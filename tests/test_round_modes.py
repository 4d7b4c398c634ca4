"""Round-mode behaviour: sync / semi_sync / async on the event kernel.

Three layers of coverage:

* :class:`~repro.sim.rounds.EventRoundSimulator` semantics — who makes the
  upload window under each discipline, the straggler-deadline edge cases, and
  the delay ordering under straggler-heavy parameters;
* the FAIR-BFL trainer integration — stragglers dropped from the gradient
  matrix in ``semi_sync``, staleness-weighted blending in ``async``, and the
  cross-backend determinism of the per-round event-trace digests;
* the configuration surface — scenario fields, config validation, the CLI
  ``--round-mode`` flag, and the staleness aggregation helpers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import FairBFLConfig
from repro.core.fairbfl import FairBFLTrainer
from repro.datasets.federated import build_federated_dataset
from repro.fl.aggregation import AggregationError, merge_stale_updates, staleness_weights
from repro.fl.client import LocalTrainingConfig
from repro.runner.scenario import ScenarioError, ScenarioSpec
from repro.sim.delay import DelayParameters
from repro.sim.rounds import EventRoundSimulator
from repro.utils.rng import new_rng

HEAVY_JITTER = DelayParameters(compute_jitter=0.8, upload_jitter=1.0)


class TestSimulatorRoundModes:
    def _sim(self, mode, **kwargs):
        return EventRoundSimulator(
            HEAVY_JITTER, new_rng(0, "modes", mode), round_mode=mode, **kwargs
        )

    def test_sync_round_has_no_stragglers(self):
        timing = self._sim("sync").fairbfl_round(
            client_ids=list(range(12)), num_miners=2, batches_per_epoch=5, epochs=2
        )
        assert set(timing.on_time_ids) == set(range(12))
        assert timing.late_ids == ()
        assert all(a.on_time for a in timing.arrivals)

    def test_semi_sync_deadline_splits_arrivals(self):
        timing = self._sim("semi_sync", straggler_deadline=4.0).fairbfl_round(
            client_ids=list(range(30)), num_miners=2, batches_per_epoch=5, epochs=2
        )
        assert set(timing.on_time_ids) | set(timing.late_ids) == set(range(30))
        assert timing.late_ids  # heavy jitter guarantees stragglers at this deadline
        for arrival in timing.arrivals:
            if arrival.on_time:
                assert arrival.arrival <= 4.0 + 1e-9
            else:
                assert arrival.arrival > 4.0 - 1e-9

    def test_semi_sync_keeps_at_least_one_client(self):
        # A deadline far below any possible arrival: the window stays open
        # until the first upload lands instead of aggregating nothing.
        timing = self._sim("semi_sync", straggler_deadline=1e-6).fairbfl_round(
            client_ids=list(range(8)), num_miners=2, batches_per_epoch=5, epochs=2
        )
        assert len(timing.on_time_ids) == 1
        earliest = min(timing.arrivals, key=lambda a: a.arrival)
        assert timing.on_time_ids == (earliest.client_id,)

    def test_async_quorum_count(self):
        timing = self._sim("async", async_quorum=0.5).fairbfl_round(
            client_ids=list(range(12)), num_miners=2, batches_per_epoch=5, epochs=2
        )
        assert len(timing.on_time_ids) == 6  # ceil(0.5 * 12)
        assert len(timing.late_ids) == 6
        # The on-time set is exactly the earliest arrivals.
        cutoff = max(a.arrival for a in timing.arrivals if a.on_time)
        assert all(a.arrival >= cutoff - 1e-9 for a in timing.arrivals if not a.on_time)

    def test_async_quorum_clamps_to_one(self):
        timing = self._sim("async", async_quorum=0.01).fairbfl_round(
            client_ids=list(range(5)), num_miners=2, batches_per_epoch=5, epochs=2
        )
        assert len(timing.on_time_ids) == 1

    def test_relaxed_modes_beat_sync_under_stragglers(self):
        def mean_total(mode, **kwargs) -> float:
            sim = self._sim(mode, **kwargs)
            return float(
                np.mean(
                    [
                        sim.fairbfl_round(
                            client_ids=list(range(20)),
                            num_miners=2,
                            batches_per_epoch=5,
                            epochs=2,
                        ).total
                        for _ in range(40)
                    ]
                )
            )

        sync = mean_total("sync")
        semi = mean_total("semi_sync", straggler_deadline=4.0)
        async_ = mean_total("async", async_quorum=0.5)
        assert semi < sync
        assert async_ < semi

    def test_breakdown_sums_to_total(self):
        for mode in ("sync", "semi_sync", "async"):
            timing = self._sim(mode).fairbfl_round(
                client_ids=list(range(10)), num_miners=3, batches_per_epoch=4, epochs=2
            )
            b = timing.breakdown
            assert timing.total == pytest.approx(b.t_local + b.t_up + b.t_ex + b.t_gl + b.t_bl)
            assert all(part >= 0 for part in (b.t_local, b.t_up, b.t_ex, b.t_gl, b.t_bl))

    def test_simulator_validation(self):
        with pytest.raises(ValueError, match="round_mode"):
            EventRoundSimulator(HEAVY_JITTER, new_rng(0, "x"), round_mode="bogus")
        with pytest.raises(ValueError, match="straggler_deadline"):
            EventRoundSimulator(HEAVY_JITTER, new_rng(0, "x"), straggler_deadline=0.0)
        with pytest.raises(ValueError, match="async_quorum"):
            EventRoundSimulator(HEAVY_JITTER, new_rng(0, "x"), async_quorum=1.5)


@pytest.fixture(scope="module")
def small_dataset():
    return build_federated_dataset(num_clients=10, num_samples=500, scheme="dirichlet", seed=0)


def _config(mode, **overrides) -> FairBFLConfig:
    defaults = dict(
        num_miners=2,
        num_rounds=3,
        participation_fraction=0.5,
        local=LocalTrainingConfig(epochs=1, batch_size=10, learning_rate=0.05),
        model_name="logreg",
        round_mode=mode,
        delay_params=DelayParameters(compute_jitter=0.8, upload_jitter=1.0),
        straggler_deadline=3.0,
        seed=0,
    )
    defaults.update(overrides)
    return FairBFLConfig(**defaults)


class TestTrainerRoundModes:
    def test_semi_sync_drops_stragglers_from_aggregation(self, small_dataset):
        with FairBFLTrainer(small_dataset, _config("semi_sync")) as trainer:
            history = trainer.run()
        stragglers = [r.extras["stragglers"] for r in history.rounds]
        assert any(stragglers), "heavy jitter at a 3s deadline must produce stragglers"
        for record in history.rounds:
            assert record.extras["round_mode"] == "semi_sync"
            # Stragglers stay selected participants but earn no reward.
            for cid in record.extras["stragglers"]:
                assert cid in record.participants
                assert cid not in record.rewards

    def test_async_applies_stale_updates_next_round(self, small_dataset):
        with FairBFLTrainer(small_dataset, _config("async", async_quorum=0.5)) as trainer:
            history = trainer.run()
        stale = [r.extras["stale_applied"] for r in history.rounds]
        stragglers = [r.extras["stragglers"] for r in history.rounds]
        assert any(stragglers)
        # A round that follows a straggler round folds those updates back in.
        for prev, applied in zip(stragglers, stale[1:]):
            if prev:
                assert applied == len(prev)

    def test_stale_screening_rejects_misaligned_updates(self, small_dataset):
        """A forgery that deliberately straggles past the quorum is not blended.

        Late updates bypass Procedure II's signature check and Algorithm 2, so
        ``_apply_stale_updates`` screens them by alignment with the round's
        consensus direction: an update pointing against it (e.g. a sign-flip
        forgery) is rejected, an aligned one is folded in.
        """
        from repro.core.procedures import RoundContext

        with FairBFLTrainer(small_dataset, _config("async", num_rounds=1)) as trainer:
            trainer.run()
        previous = np.zeros(4)
        fresh = np.array([1.0, 1.0, 0.0, 0.0])  # consensus direction (1,1,0,0)
        aligned = previous + np.array([2.0, 1.5, 0.0, 0.0])
        forged = previous - np.array([3.0, 3.0, 0.0, 0.0])  # sign-flipped
        trainer._stale_buffer = [(aligned, 0), (forged, 0)]
        ctx = RoundContext(round_index=1, global_parameters=previous)
        ctx.new_global_parameters = fresh.copy()
        ctx.gradient_client_ids = [0, 1, 2]
        trainer._apply_stale_updates(ctx, 1)
        assert ctx.stale_applied == 1
        assert ctx.stale_rejected == 1
        # Only the aligned vector moved the global; the forgery left no trace:
        # result = (3 * fresh + 2**-0.5 * aligned) / (3 + 2**-0.5).
        w = 2.0**-0.5
        expected = (3.0 * fresh + w * aligned) / (3.0 + w)
        np.testing.assert_allclose(ctx.new_global_parameters, expected)

    def test_sync_round_mode_matches_default_history(self, small_dataset):
        with FairBFLTrainer(small_dataset, _config("sync")) as trainer:
            h_default = trainer.run()
        with FairBFLTrainer(small_dataset, _config("sync")) as trainer:
            h_explicit = trainer.run()
        np.testing.assert_allclose(h_default.delays, h_explicit.delays)
        np.testing.assert_allclose(h_default.accuracies, h_explicit.accuracies)

    def test_event_trace_identical_across_executor_backends(self, small_dataset):
        digests = {}
        delays = {}
        for backend in ("serial", "thread"):
            config = _config("semi_sync", executor_backend=backend)
            with FairBFLTrainer(small_dataset, config) as trainer:
                history = trainer.run()
            digests[backend] = [r.extras["event_trace_digest"] for r in history.rounds]
            delays[backend] = list(history.delays)
        assert digests["serial"] == digests["thread"]
        assert delays["serial"] == delays["thread"]
        assert all(d is not None for d in digests["serial"])

    def test_round_records_expose_simulation_extras(self, small_dataset):
        with FairBFLTrainer(small_dataset, _config("sync")) as trainer:
            history = trainer.run()
        for record in history.rounds:
            assert record.extras["sim_events"] > 0
            assert isinstance(record.extras["event_trace_digest"], str)
            assert record.extras["delay_breakdown"]["total"] == pytest.approx(record.delay)


class TestRoundModeConfiguration:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="round_mode"):
            FairBFLConfig(round_mode="bogus")
        with pytest.raises(ValueError, match="straggler_deadline"):
            FairBFLConfig(round_mode="semi_sync", straggler_deadline=0.0)
        with pytest.raises(ValueError, match="async_quorum"):
            FairBFLConfig(round_mode="async", async_quorum=0.0)
        with pytest.raises(ValueError, match="staleness_decay"):
            FairBFLConfig(round_mode="async", staleness_decay=-0.1)

    def test_scenario_threads_round_mode_into_config(self):
        spec = ScenarioSpec(
            system="fairbfl",
            round_mode="semi_sync",
            straggler_deadline=2.5,
            async_quorum=0.25,
            staleness_decay=1.0,
        )
        config = spec.fairbfl_config()
        assert config.round_mode == "semi_sync"
        assert config.straggler_deadline == 2.5
        assert config.async_quorum == 0.25
        assert config.staleness_decay == 1.0

    def test_scenario_rejects_unknown_round_mode(self):
        with pytest.raises(ScenarioError, match="round_mode"):
            ScenarioSpec(system="fedavg", round_mode="bogus").validate()

    @pytest.mark.parametrize("system", ("fairbfl", "fedavg", "blockchain"))
    def test_scenario_bounds_checked_for_every_system(self, system):
        # A clean ScenarioError (not a deferred config crash) even when the
        # system would never consume the round-mode knobs.
        with pytest.raises(ScenarioError, match="straggler_deadline"):
            ScenarioSpec(system=system, straggler_deadline=-1.0).validate()
        with pytest.raises(ScenarioError, match="async_quorum"):
            ScenarioSpec(system=system, async_quorum=2.5).validate()
        with pytest.raises(ScenarioError, match="staleness_decay"):
            ScenarioSpec(system=system, staleness_decay=-0.5).validate()

    def test_sweep_accepts_round_mode_field_and_override(self, tmp_path, capsys):
        spec_file = tmp_path / "modes.json"
        spec_file.write_text(
            '{"system": "fairbfl", "num_clients": 6, "num_samples": 300, '
            '"num_rounds": 2, "round_mode": "semi_sync", "model_name": "logreg"}'
        )
        assert main(["sweep", "--scenario", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "modes" in out
        # The CLI flag overrides the file's round_mode for every scenario.
        assert main(["sweep", "--scenario", str(spec_file), "--round-mode", "async"]) == 0

    def test_run_cli_round_mode_flag(self, capsys):
        code = main(
            [
                "run",
                "fairbfl",
                "--clients",
                "6",
                "--samples",
                "300",
                "--rounds",
                "2",
                "--round-mode",
                "async",
            ]
        )
        assert code == 0
        assert "summary" in capsys.readouterr().out


class TestStalenessAggregation:
    def test_staleness_weights_formula(self):
        w = staleness_weights(np.array([0.0, 1.0, 3.0]), decay=0.5)
        np.testing.assert_allclose(w, [1.0, 2.0**-0.5, 4.0**-0.5])

    def test_zero_decay_treats_stale_as_fresh(self):
        np.testing.assert_allclose(staleness_weights(np.array([5.0, 9.0]), decay=0.0), [1.0, 1.0])

    def test_merge_stale_updates_math(self):
        fresh = np.array([1.0, 1.0])
        stale = np.array([[4.0, 4.0]])
        merged = merge_stale_updates(fresh, 2, stale, np.array([1.0]), decay=1.0)
        # (2 * [1,1] + 0.5 * [4,4]) / 2.5 == [1.6, 1.6]
        np.testing.assert_allclose(merged, [1.6, 1.6])

    def test_merge_with_no_stale_rows_is_identity(self):
        fresh = np.array([2.0, 3.0])
        merged = merge_stale_updates(fresh, 4, np.zeros((0, 2)), np.zeros(0))
        np.testing.assert_allclose(merged, fresh)

    def test_validation_errors(self):
        with pytest.raises(AggregationError):
            staleness_weights(np.array([-1.0]))
        with pytest.raises(AggregationError):
            staleness_weights(np.array([1.0]), decay=-1.0)
        with pytest.raises(AggregationError):
            merge_stale_updates(np.ones(2), 0, np.ones((1, 2)), np.array([1.0]))
        with pytest.raises(AggregationError):
            merge_stale_updates(np.ones(2), 1, np.ones((2, 2)), np.array([1.0]))
