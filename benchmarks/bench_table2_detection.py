"""Table 2: detecting malicious attacks with the contribution-based incentive mechanism.

Paper protocol: 10 indexed clients, 1-3 random clients designated malicious
each round, 10 rounds, DBSCAN clustering; the table reports the attacker
indices, the drop list, the per-round detection rate, and the average
detection rate for non-IID and IID data (paper: 64.96% non-IID, 75% IID, with
IID > non-IID).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.core.config import FairBFLConfig
from repro.core.fairbfl import FairBFLTrainer
from repro.core.results import ComparisonResult
from repro.datasets.federated import build_federated_dataset
from repro.fl.client import LocalTrainingConfig
from repro.incentive.contribution import ContributionConfig

NUM_CLIENTS = 10
NUM_ROUNDS = 10


def _run_detection(scheme: str, seed: int = 0):
    dataset = build_federated_dataset(
        num_clients=NUM_CLIENTS,
        num_samples=800,
        scheme=scheme,
        seed=seed,
        noise_std=0.35,
    )
    config = FairBFLConfig(
        num_rounds=NUM_ROUNDS,
        participation_fraction=1.0,
        local=LocalTrainingConfig(epochs=2, batch_size=10, learning_rate=0.05),
        model_name="logreg",
        strategy="discard",
        enable_attacks=True,
        attack_name="sign_flip",
        min_attackers=1,
        max_attackers=3,
        contribution=ContributionConfig(eps=0.7),
        seed=seed,
    )
    with FairBFLTrainer(dataset, config) as trainer:
        trainer.run()
    return trainer.detection_logs(), trainer.average_detection_rate()


def _run_both():
    non_iid_logs, non_iid_rate = _run_detection("dirichlet")
    iid_logs, iid_rate = _run_detection("iid")
    return (non_iid_logs, non_iid_rate), (iid_logs, iid_rate)


def test_table2_malicious_detection(benchmark):
    (non_iid_logs, non_iid_rate), (iid_logs, iid_rate) = benchmark.pedantic(
        _run_both, rounds=1, iterations=1
    )

    table = ComparisonResult(
        title="Table 2 -- detecting malicious attacks (contribution-based incentive mechanism)",
        columns=["distribution", "round", "attacker_index", "drop_index", "detection_rate"],
    )
    for label, logs in (("Non-IID", non_iid_logs), ("IID", iid_logs)):
        for log in logs:
            table.add_row(
                label,
                log.round_index + 1,
                str(log.attacker_ids),
                str(log.dropped_ids),
                log.detection_rate,
            )
    table.notes.append(
        f"average detection rate: Non-IID={non_iid_rate:.2%}, IID={iid_rate:.2%}"
    )
    table.notes.append("paper: Non-IID 64.96%, IID 75% (IID easier than non-IID)")
    emit(table, "table2_detection.txt")

    # Every round designated between 1 and 3 attackers, as in the paper's protocol.
    for logs in (non_iid_logs, iid_logs):
        assert len(logs) == NUM_ROUNDS
        assert all(1 <= len(log.attacker_ids) <= 3 for log in logs)
    # The mechanism catches a clear majority of attackers in both regimes.
    assert non_iid_rate >= 0.5
    assert iid_rate >= 0.6
    # The paper's qualitative ordering: IID detection is at least as good as non-IID.
    assert iid_rate >= non_iid_rate - 0.05


@pytest.mark.smoke
def test_table2_detection_smoke():
    """Fast structural pass: the detection protocol runs at toy scale."""
    dataset = build_federated_dataset(
        num_clients=6, num_samples=400, scheme="iid", seed=0, noise_std=0.35
    )
    config = FairBFLConfig(
        num_rounds=2,
        participation_fraction=1.0,
        local=LocalTrainingConfig(epochs=1, batch_size=10, learning_rate=0.05),
        model_name="logreg",
        strategy="discard",
        enable_attacks=True,
        attack_name="sign_flip",
        min_attackers=1,
        max_attackers=2,
        contribution=ContributionConfig(eps=0.7),
        seed=0,
    )
    with FairBFLTrainer(dataset, config) as trainer:
        trainer.run()
    logs = trainer.detection_logs()
    assert len(logs) == 2
    assert all(1 <= len(log.attacker_ids) <= 2 for log in logs)
