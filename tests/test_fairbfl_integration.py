"""Integration tests: the FAIR-BFL orchestrator end to end.

These exercise the whole stack (data -> local SGD -> RSA-signed uploads ->
miner exchange -> clustering/incentive -> fair aggregation -> PoW block ->
replicated ledgers) at a miniature scale.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.blockchain.transaction import TransactionType
from repro.core.config import FairBFLConfig
from repro.core.fairbfl import FairBFLTrainer
from repro.datasets.federated import build_federated_dataset
from repro.fl.client import LocalTrainingConfig
from repro.incentive.contribution import ContributionConfig
from repro.runner.scenario import ScenarioSpec


@pytest.fixture(scope="module")
def spec():
    return ScenarioSpec(
        name="integration",
        num_clients=6,
        num_samples=400,
        num_rounds=2,
        participation=0.6,
        seed=11,
    )


@pytest.fixture(scope="module")
def dataset(engine, spec):
    return engine.dataset_for(spec)


def _small_config(spec, **overrides):
    return replace(spec.fairbfl_config(), **overrides)


def _run(dataset, config):
    """Run a hand-built trainer to completion; returns (trainer, history)."""
    with FairBFLTrainer(dataset, config) as trainer:
        history = trainer.run()
    return trainer, history


class TestFairBFLTrainer:
    def test_run_appends_one_block_per_round(self, dataset, spec):
        trainer, _ = _run(dataset, _small_config(spec))
        # Genesis + one block per round (Assumption 2).
        assert trainer.chain.height == 1 + spec.num_rounds
        rounds_on_chain = [b.round_index for b in trainer.chain.blocks[1:]]
        assert rounds_on_chain == list(range(spec.num_rounds))

    def test_all_miner_replicas_identical(self, dataset, spec):
        trainer, _ = _run(dataset, _small_config(spec))
        tips = {m.chain.last_block.block_hash for m in trainer.miners}
        assert len(tips) == 1
        assert all(m.chain.is_valid() for m in trainer.miners)

    def test_blocks_contain_global_update_and_rewards(self, dataset, spec):
        trainer, _ = _run(dataset, _small_config(spec))
        block = trainer.chain.blocks[-1]
        types = {tx.tx_type for tx in block.transactions}
        assert TransactionType.GLOBAL_UPDATE in types
        assert TransactionType.REWARD in types
        assert block.global_update().shape == trainer.current_global_parameters().shape

    def test_proof_of_work_enforced_on_chain(self, dataset, spec):
        trainer, _ = _run(dataset, _small_config(spec))
        from repro.crypto.hashing import difficulty_to_target, meets_target

        for block in trainer.chain.blocks[1:]:
            target = difficulty_to_target(block.header.difficulty)
            assert meets_target(block.block_hash, target)

    def test_history_records_delays_and_accuracy(self, dataset, spec):
        _, history = _run(dataset, _small_config(spec))
        assert len(history) == spec.num_rounds
        assert all(r.delay > 0 for r in history.rounds)
        assert all(0.0 <= r.accuracy <= 1.0 for r in history.rounds)
        assert all("delay_breakdown" in r.extras for r in history.rounds)
        assert np.all(np.diff(history.elapsed_times) > 0)

    def test_run_is_reproducible(self, dataset, spec):
        cfg = _small_config(spec)
        _, h1 = _run(dataset, cfg)
        _, h2 = _run(dataset, cfg)
        np.testing.assert_allclose(h1.accuracies, h2.accuracies)
        np.testing.assert_allclose(h1.delays, h2.delays)

    def test_rewards_recorded_and_credited(self, dataset, spec):
        trainer, _ = _run(dataset, _small_config(spec))
        ledger_total = trainer.reward_ledger.total_issued()
        assert ledger_total > 0.0
        # On-chain rewards match the ledger total.
        on_chain = sum(trainer.chain.total_rewards_by_client().values())
        assert on_chain == pytest.approx(ledger_total)
        # Clients received their credits.
        credited = sum(c.total_reward for c in trainer.clients.values())
        assert credited == pytest.approx(ledger_total)

    def test_global_test_accuracy_improves(self, dataset, spec):
        cfg = _small_config(
            spec,
            num_rounds=6,
            participation_fraction=1.0,
            local=LocalTrainingConfig(epochs=2, batch_size=10, learning_rate=0.05),
        )
        trainer = FairBFLTrainer(dataset, cfg)
        initial = trainer.global_test_accuracy()
        trainer.run()
        assert trainer.global_test_accuracy() > initial

    def test_signature_verification_rejects_unregistered(self, dataset, spec):
        trainer = FairBFLTrainer(dataset, _small_config(spec))
        record = trainer.run_round(0)
        assert record.extras["rejected_uploads"] == 0

    def test_without_signatures_and_without_pow(self, dataset, spec):
        cfg = _small_config(spec, verify_signatures=False, use_real_pow=False)
        trainer, history = _run(dataset, cfg)
        assert len(history) == spec.num_rounds
        assert trainer.chain.height == 1 + spec.num_rounds


class TestOperatingModes:
    def test_fl_only_mode_produces_no_new_blocks(self, dataset, spec):
        cfg = _small_config(spec, mode="fl_only")
        trainer, history = _run(dataset, cfg)
        assert trainer.chain.height == 1  # genesis only
        assert all(r.extras["delay_breakdown"]["t_bl"] == 0.0 for r in history.rounds)
        assert all(r.accuracy > 0.0 for r in history.rounds)

    def test_fl_only_mode_still_learns(self, dataset, spec):
        cfg = _small_config(
            spec,
            mode="fl_only",
            num_rounds=5,
            participation_fraction=1.0,
            local=LocalTrainingConfig(epochs=2, batch_size=10, learning_rate=0.05),
        )
        trainer, history = _run(dataset, cfg)
        assert history.accuracies[-1] > history.accuracies[0]

    def test_chain_only_mode_mines_but_does_not_learn(self, dataset, spec):
        cfg = _small_config(spec, mode="chain_only")
        trainer, history = _run(dataset, cfg)
        assert trainer.chain.height == 1 + spec.num_rounds
        assert all(r.extras["delay_breakdown"]["t_local"] == 0.0 for r in history.rounds)
        assert all(r.accuracy == 0.0 for r in history.rounds)

    def test_mode_delay_ordering(self, dataset, spec):
        """Flexibility claim: FL-only < full BFL in delay; chain-only has no learning delay."""
        num_rounds = 4
        _, h_bfl = _run(dataset, _small_config(spec, num_rounds=num_rounds))
        _, h_fl = _run(dataset, _small_config(spec, num_rounds=num_rounds, mode="fl_only"))
        assert h_fl.average_delay() < h_bfl.average_delay()


class TestDiscardStrategyAndAttacks:
    def test_discard_strategy_runs_and_logs(self, dataset, spec):
        cfg = _small_config(spec, strategy="discard", num_rounds=3)
        trainer, history = _run(dataset, cfg)
        assert len(history) == 3
        # Discarded clients never appear among the same round's reward recipients.
        for record in history.rounds:
            assert not (set(record.discarded) & set(record.rewards.keys()))

    def test_attacks_designated_and_mostly_detected(self):
        dataset = build_federated_dataset(
            num_clients=10, num_samples=600, scheme="dirichlet", seed=3, noise_std=0.3
        )
        cfg = FairBFLConfig(
            num_rounds=5,
            participation_fraction=1.0,
            local=LocalTrainingConfig(epochs=2, batch_size=10, learning_rate=0.05),
            model_name="logreg",
            strategy="discard",
            enable_attacks=True,
            contribution=ContributionConfig(eps=0.7),
            seed=5,
        )
        trainer, history = _run(dataset, cfg)
        logs = trainer.detection_logs()
        assert len(logs) == 5
        assert all(1 <= len(log.attacker_ids) <= 3 for log in logs)
        # The clustering-based detector catches a majority of attackers overall.
        assert trainer.average_detection_rate() >= 0.5
        # Attackers recorded in history match the scheduler logs.
        for record, log in zip(history.rounds, logs):
            assert record.attackers == log.attacker_ids

    def test_attack_damages_accuracy_without_discard(self):
        dataset = build_federated_dataset(
            num_clients=10, num_samples=600, scheme="dirichlet", seed=3, noise_std=0.3
        )
        base = dict(
            num_rounds=5,
            participation_fraction=1.0,
            local=LocalTrainingConfig(epochs=2, batch_size=10, learning_rate=0.05),
            model_name="logreg",
            seed=5,
        )
        _, clean = _run(dataset, FairBFLConfig(**base))
        _, attacked = _run(
            dataset,
            FairBFLConfig(
                **base, enable_attacks=True, attack_name="scaling", strategy="keep"
            ),
        )
        _, defended = _run(
            dataset,
            FairBFLConfig(
                **base, enable_attacks=True, attack_name="scaling", strategy="discard"
            ),
        )
        # Undefended poisoning hurts; the discard strategy recovers most of the loss.
        assert attacked.final_accuracy() < clean.final_accuracy()
        assert defended.final_accuracy() >= attacked.final_accuracy()


class TestExperimentHelpers:
    def test_suite_dataset_memoised(self, engine, spec):
        assert engine.dataset_for(spec) is engine.dataset_for(spec.with_overrides(miners=3))
        smaller = spec.with_overrides(num_clients=4)
        assert engine.dataset_for(smaller) is not engine.dataset_for(spec)

    def test_suite_config_overrides(self, spec):
        cfg = spec.with_overrides(miners=5, strategy="discard").fairbfl_config()
        assert cfg.num_miners == 5
        assert cfg.strategy == "discard"
        assert cfg.num_rounds == spec.num_rounds

    def test_fedavg_and_fedprox_helpers(self, engine, spec):
        ha = engine.run(spec.with_overrides(system="fedavg", num_rounds=1))
        hp = engine.run(spec.with_overrides(system="fedprox", num_rounds=1, drop_percent=0.02))
        assert len(ha) == 1 and len(hp) == 1

    def test_vanilla_blockchain_helper(self, engine, spec):
        hist = engine.run(spec.with_overrides(system="blockchain", num_clients=10))
        assert len(hist) == spec.num_rounds

    def test_low_quality_fraction_corrupts_clients(self):
        clean = build_federated_dataset(num_clients=6, num_samples=400, seed=2)
        noisy = build_federated_dataset(
            num_clients=6, num_samples=400, seed=2, low_quality_fraction=0.5
        )
        differing = sum(
            int(not np.array_equal(a.labels, b.labels))
            for a, b in zip(clean.clients, noisy.clients)
        )
        assert differing == 3
