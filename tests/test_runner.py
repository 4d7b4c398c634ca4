"""Tests for the runner subsystem: executor backends, scenarios, engine.

The central claims under test:

* **backend parity** — serial, thread and process executors produce
  bit-identical training histories for the same seed;
* **scenario layer** — JSON/TOML documents expand to validated specs, matrix
  grids multiply correctly, and malformed inputs fail with `ScenarioError`
  naming the problem;
* **engine equivalence** — `ExperimentEngine.run(spec)` (the one entry path
  every test, bench, example and the CLI drive through) reproduces a
  `FairBFLTrainer` hand-built from `spec.fairbfl_config()` and the engine's
  dataset exactly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import FairBFLConfig
from repro.core.fairbfl import FairBFLTrainer
from repro.fl.aggregation import AggregationError, aggregate_client_updates, simple_average
from repro.fl.client import ClientUpdate, LocalTrainingConfig
from repro.fl.server import CentralServer
from repro.runner.engine import ExperimentEngine
from repro.runner.executor import EXECUTOR_BACKENDS, ParallelExecutor, resolve_worker_count
from repro.runner.scenario import (
    ScenarioError,
    ScenarioMatrix,
    ScenarioSpec,
    load_scenario_file,
    scenarios_from_mapping,
)


def _fingerprint(history):
    return [
        (r.round_index, r.accuracy, r.train_loss, r.delay, tuple(r.participants), tuple(r.attackers))
        for r in history.rounds
    ]


class TestParallelExecutor:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            ParallelExecutor("fibers")

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="max_workers"):
            ParallelExecutor("thread", max_workers=0)

    def test_resolve_worker_count(self):
        assert resolve_worker_count(3) == 3
        assert resolve_worker_count(None) >= 1
        with pytest.raises(ValueError):
            resolve_worker_count(-1)

    def test_context_manager_closes_pool(self, tiny_federated):
        cfg = FairBFLConfig(
            num_rounds=1,
            participation_fraction=0.5,
            local=LocalTrainingConfig(epochs=1, batch_size=10, learning_rate=0.05),
            model_name="logreg",
            executor_backend="thread",
            seed=7,
        )
        with FairBFLTrainer(tiny_federated, cfg) as trainer:
            trainer.run()
            assert trainer.executor._pool is not None
        assert trainer.executor._pool is None


class TestBackendParity:
    """Serial vs thread vs process histories are bit-identical."""

    @pytest.fixture(scope="class")
    def parity_histories(self, tiny_federated):
        histories = {}
        finals = {}
        for backend in EXECUTOR_BACKENDS:
            cfg = FairBFLConfig(
                num_rounds=2,
                participation_fraction=0.5,
                local=LocalTrainingConfig(epochs=2, batch_size=10, learning_rate=0.05),
                model_name="logreg",
                enable_attacks=True,
                executor_backend=backend,
                executor_workers=2,
                seed=7,
            )
            with FairBFLTrainer(tiny_federated, cfg) as trainer:
                histories[backend] = trainer.run()
                finals[backend] = trainer.current_global_parameters()
        return histories, finals

    def test_round_records_identical(self, parity_histories):
        histories, _ = parity_histories
        serial = _fingerprint(histories["serial"])
        assert _fingerprint(histories["thread"]) == serial
        assert _fingerprint(histories["process"]) == serial

    def test_final_parameters_bitwise_identical(self, parity_histories):
        _, finals = parity_histories
        assert finals["serial"].tobytes() == finals["thread"].tobytes()
        assert finals["serial"].tobytes() == finals["process"].tobytes()

    def test_fedavg_backend_parity(self, engine, tiny_spec):
        fedavg = tiny_spec.with_overrides(system="fedavg", name="fedavg", num_rounds=2)
        serial = engine.run(fedavg)
        threaded = engine.run(fedavg.with_overrides(backend="thread"))
        assert _fingerprint(serial) == _fingerprint(threaded)


class TestScenarioSpec:
    def test_defaults_validate(self):
        spec = ScenarioSpec()
        assert spec.validate() is spec

    def test_unknown_field_is_named(self):
        with pytest.raises(ScenarioError, match="learning_rte"):
            ScenarioSpec.from_mapping({"learning_rte": 0.1})

    def test_type_coercion_and_rejection(self):
        spec = ScenarioSpec.from_mapping({"num_clients": 8, "learning_rate": 0.1, "hidden_sizes": [32, 16]})
        assert spec.num_clients == 8 and spec.hidden_sizes == (32, 16)
        with pytest.raises(ScenarioError, match="num_clients"):
            ScenarioSpec.from_mapping({"num_clients": "many"})
        with pytest.raises(ScenarioError, match="attacks"):
            ScenarioSpec.from_mapping({"attacks": "yes"})

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"system": "fedsgd"}, "unknown system"),
            ({"scheme": "zipf"}, "partition scheme"),
            ({"backend": "gpu"}, "unknown backend"),
            ({"num_clients": 0}, "num_clients"),
            ({"participation": 1.5}, "participation"),
            ({"strategy": "purge"}, "strategy"),
            ({"mode": "half"}, "mode"),
            ({"max_workers": 0}, "max_workers"),
            ({"low_quality_fraction": 2.0}, "low_quality_fraction"),
        ],
    )
    def test_invalid_values_raise_scenario_error(self, overrides, match):
        with pytest.raises(ScenarioError, match=match):
            ScenarioSpec.from_mapping(overrides)

    def test_scenario_error_is_value_error(self):
        assert issubclass(ScenarioError, ValueError)

    def test_discard_system_forces_strategy(self):
        cfg = ScenarioSpec(system="fairbfl-discard").fairbfl_config()
        assert cfg.strategy == "discard"

    def test_round_trip_mapping(self):
        spec = ScenarioSpec(system="fedprox", proximal_mu=0.2, hidden_sizes=(8,))
        clone = ScenarioSpec.from_mapping(spec.to_mapping())
        assert clone == spec


class TestScenarioMatrix:
    def test_cartesian_expansion(self):
        base = ScenarioSpec(name="grid", num_clients=6, num_samples=300, num_rounds=1)
        specs = ScenarioMatrix(base, {"strategy": ["keep", "discard"], "learning_rate": [0.01, 0.1]}).expand()
        assert len(specs) == 4
        names = [s.name for s in specs]
        assert names[0] == "grid[strategy=keep,learning_rate=0.01]"
        assert {(s.strategy, s.learning_rate) for s in specs} == {
            ("keep", 0.01), ("keep", 0.1), ("discard", 0.01), ("discard", 0.1),
        }

    def test_unknown_matrix_field(self):
        with pytest.raises(ScenarioError, match="unknown matrix field"):
            ScenarioMatrix(ScenarioSpec(), {"learning_rte": [0.1]}).expand()

    def test_empty_axis_rejected(self):
        with pytest.raises(ScenarioError, match="non-empty list"):
            ScenarioMatrix(ScenarioSpec(), {"learning_rate": []}).expand()

    def test_invalid_grid_point_rejected(self):
        with pytest.raises(ScenarioError, match="participation"):
            ScenarioMatrix(ScenarioSpec(), {"participation": [0.5, 2.0]}).expand()


class TestScenarioDocuments:
    def test_single_mapping(self):
        specs = scenarios_from_mapping({"system": "fedavg", "num_rounds": 3}, default_name="solo")
        assert len(specs) == 1 and specs[0].name == "solo" and specs[0].system == "fedavg"

    def test_base_plus_scenarios(self):
        specs = scenarios_from_mapping(
            {
                "base": {"num_clients": 6, "num_rounds": 1},
                "scenarios": [{"name": "a", "system": "fairbfl"}, {"system": "fedavg"}],
            }
        )
        assert [s.name for s in specs] == ["a", "scenario-1"]
        assert all(s.num_clients == 6 for s in specs)

    def test_matrix_document(self):
        specs = scenarios_from_mapping(
            {"name": "m", "base": {"num_rounds": 1}, "matrix": {"miners": [2, 4]}}
        )
        assert [s.miners for s in specs] == [2, 4]

    def test_scenarios_and_matrix_conflict(self):
        with pytest.raises(ScenarioError, match="both"):
            scenarios_from_mapping({"scenarios": [{}], "matrix": {}})

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError, match="mapping"):
            scenarios_from_mapping([1, 2, 3])

    def test_load_json_and_toml(self, tmp_path):
        jpath = tmp_path / "one.json"
        jpath.write_text(json.dumps({"system": "blockchain", "num_rounds": 2}))
        (tmp_path / "two.toml").write_text(
            'name = "t"\n[base]\nnum_rounds = 1\n[matrix]\nstrategy = ["keep", "discard"]\n'
        )
        jspecs = load_scenario_file(jpath)
        assert jspecs[0].system == "blockchain" and jspecs[0].name == "one"
        tspecs = load_scenario_file(tmp_path / "two.toml")
        assert [s.strategy for s in tspecs] == ["keep", "discard"]

    def test_load_rejects_missing_bad_suffix_and_bad_syntax(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario_file(tmp_path / "nope.json")
        bad = tmp_path / "spec.yaml"
        bad.write_text("system: fairbfl")
        with pytest.raises(ScenarioError, match="unsupported scenario file type"):
            load_scenario_file(bad)
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario_file(broken)


class TestExperimentEngine:
    def test_dataset_memoised_across_specs(self):
        engine = ExperimentEngine()
        a = ScenarioSpec(num_clients=6, num_samples=300)
        b = a.with_overrides(learning_rate=0.2, strategy="discard")
        assert engine.dataset_for(a) is engine.dataset_for(b)
        c = a.with_overrides(num_clients=5)
        assert engine.dataset_for(c) is not engine.dataset_for(a)

    def test_unbuildable_dataset_is_a_scenario_error(self):
        spec = ScenarioSpec(num_clients=12, num_samples=30)
        expected = "num_clients=12, num_samples=30, scheme='dirichlet'"
        with pytest.raises(ScenarioError, match=expected):
            ExperimentEngine().dataset_for(spec)

    def test_blockchain_needs_no_dataset(self):
        engine = ExperimentEngine()
        hist = engine.run(ScenarioSpec(system="blockchain", num_clients=8, num_rounds=2))
        assert len(hist) == 2
        assert engine._dataset_cache == {}

    def test_history_carries_scenario_name(self, engine, tiny_spec):
        hist = engine.run(tiny_spec.with_overrides(name="custom-label", num_rounds=1))
        assert hist.label == "custom-label"

    def test_engine_run_matches_hand_built_trainer(self, engine, tiny_spec):
        """The engine path reproduces a trainer hand-built from the same spec."""
        with FairBFLTrainer(engine.dataset_for(tiny_spec), tiny_spec.fairbfl_config()) as trainer:
            hand_built = trainer.run()
        assert _fingerprint(engine.run(tiny_spec)) == _fingerprint(hand_built)

    def test_sweep_table_shape(self, engine, tiny_spec):
        specs = [
            tiny_spec.with_overrides(name="a", num_rounds=1),
            tiny_spec.with_overrides(system="blockchain", name="b", num_rounds=1),
        ]
        table, results = engine.sweep_table(specs, title="t")
        assert [row[0] for row in table.rows] == ["a", "b"]
        assert len(results) == 2 and results[0].summary["rounds"] == 1

    def test_counters_are_exact_under_concurrent_tally(self):
        """The serve worker pool shares one engine across threads; its
        counters must not lose increments (a bare ``+=`` would)."""
        import sys
        import threading

        engine = ExperimentEngine()
        threads_n, iterations = 8, 2000
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force aggressive interleaving
        try:
            def hammer() -> None:
                for _ in range(iterations):
                    engine.tally(runs=1, rounds=2, hits=1)

            threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert engine.runs_computed == threads_n * iterations
        assert engine.round_evaluations == 2 * threads_n * iterations
        assert engine.cache_hits == threads_n * iterations

    def test_run_streaming_matches_run_and_reports_progress(self):
        spec = ScenarioSpec(system="blockchain", num_clients=8, num_rounds=3)
        seen: list[tuple[int, int]] = []
        streamed = ExperimentEngine().run_streaming(
            spec, progress=lambda done, total: seen.append((done, total))
        )
        plain = ExperimentEngine().run(spec)
        assert _fingerprint(streamed.history) == _fingerprint(plain)
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_run_streaming_cancellation_raises_and_counts_partial_rounds(self):
        from repro.runner.engine import RunCancelled

        engine = ExperimentEngine()
        spec = ScenarioSpec(system="blockchain", num_clients=8, num_rounds=5)
        done_rounds: list[int] = []
        with pytest.raises(RunCancelled):
            engine.run_streaming(
                spec,
                progress=lambda done, total: done_rounds.append(done),
                should_stop=lambda: bool(done_rounds and done_rounds[-1] >= 2),
            )
        assert engine.runs_computed == 0  # a cancelled run is not a computed run
        assert engine.round_evaluations == 2  # ...but its partial rounds are costed
        assert done_rounds == [1, 2]


class TestVectorisedAggregationPath:
    def _updates(self, dim=3):
        return [
            ClientUpdate(client_id=i, parameters=np.full(dim, float(i)), num_samples=10 * (i + 1),
                         train_loss=0.0, val_accuracy=0.0)
            for i in range(3)
        ]

    def test_server_empty_updates_raise_consistent_error(self, rng):
        server = CentralServer(lambda: _tiny_model(rng))
        with pytest.raises(AggregationError):
            server.aggregate([])
        with pytest.raises(AggregationError):
            simple_average(np.zeros((0, 3)))
        assert issubclass(AggregationError, ValueError)

    def test_server_routes_through_stacked_path(self, rng):
        server = CentralServer(lambda: _tiny_model(rng), aggregation="samples")
        dim = server.global_parameters.size
        new_global = server.aggregate(self._updates(dim=dim))
        expected = np.average(
            np.stack([np.full(dim, float(i)) for i in range(3)]), axis=0, weights=[10, 20, 30]
        )
        np.testing.assert_allclose(new_global, expected)
        np.testing.assert_allclose(server.global_parameters, expected)

    def test_aggregate_client_updates_schemes(self):
        updates = self._updates()
        np.testing.assert_allclose(aggregate_client_updates(updates), np.full(3, 1.0))
        np.testing.assert_allclose(
            aggregate_client_updates(updates, scheme="weighted", weights=np.array([1.0, 0.0, 0.0])),
            np.zeros(3),
        )
        with pytest.raises(AggregationError, match="unknown aggregation scheme"):
            aggregate_client_updates(updates, scheme="median")
        with pytest.raises(AggregationError, match="empty"):
            aggregate_client_updates([])


def _tiny_model(rng):
    from repro.nn.models import build_model

    return build_model("logreg", 3, 2, rng)
