"""Ablation: choice of clustering algorithm in Algorithm 2 (DBSCAN vs KMeans).

The paper uses DBSCAN by default and notes that "any suitable clustering
algorithm can be used".  This ablation re-runs the Table 2 attack-detection
protocol with both clusterers and compares average detection rates and false
positives (honest clients wrongly discarded).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.core.config import FairBFLConfig
from repro.core.fairbfl import FairBFLTrainer
from repro.core.results import ComparisonResult
from repro.datasets.federated import build_federated_dataset
from repro.fl.client import LocalTrainingConfig
from repro.incentive.contribution import ContributionConfig


def _run_with(algorithm: str):
    dataset = build_federated_dataset(
        num_clients=10, num_samples=800, scheme="dirichlet", seed=1, noise_std=0.35
    )
    contribution = (
        ContributionConfig(algorithm="dbscan", eps=0.7)
        if algorithm == "dbscan"
        else ContributionConfig(algorithm="kmeans", num_clusters=2)
    )
    config = FairBFLConfig(
        num_rounds=8,
        participation_fraction=1.0,
        local=LocalTrainingConfig(epochs=2, batch_size=10, learning_rate=0.05),
        model_name="logreg",
        strategy="discard",
        enable_attacks=True,
        contribution=contribution,
        seed=1,
    )
    with FairBFLTrainer(dataset, config) as trainer:
        trainer.run()
    logs = trainer.detection_logs()
    detection = trainer.average_detection_rate()
    false_positives = float(np.mean([len(log.false_positives) for log in logs]))
    return detection, false_positives


def _sweep():
    return {alg: _run_with(alg) for alg in ("dbscan", "kmeans")}


def test_ablation_clustering_algorithm(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    table = ComparisonResult(
        title="Ablation -- clustering algorithm in Algorithm 2",
        columns=["algorithm", "avg_detection_rate", "avg_false_positives_per_round"],
    )
    for alg, (det, fp) in results.items():
        table.add_row(alg, det, fp)
    table.notes.append("paper default is DBSCAN; the mechanism is clusterer-agnostic")
    emit(table, "ablation_clustering.txt")

    # DBSCAN (the paper's default) gives a working detector and clearly beats the
    # forced-two-cluster KMeans variant, which justifies the default choice.
    assert results["dbscan"][0] >= 0.5
    assert results["dbscan"][0] >= results["kmeans"][0]
    assert results["kmeans"][0] >= 0.1
    # False positives stay bounded (the detector does not discard everyone).
    assert results["dbscan"][1] <= 5.0
    assert results["kmeans"][1] <= 6.0


@pytest.mark.smoke
def test_ablation_clustering_smoke():
    """Fast structural pass: the DBSCAN detector runs end-to-end at toy scale."""
    dataset = build_federated_dataset(
        num_clients=6, num_samples=400, scheme="dirichlet", seed=1, noise_std=0.35
    )
    config = FairBFLConfig(
        num_rounds=2,
        participation_fraction=1.0,
        local=LocalTrainingConfig(epochs=1, batch_size=10, learning_rate=0.05),
        model_name="logreg",
        strategy="discard",
        enable_attacks=True,
        contribution=ContributionConfig(algorithm="dbscan", eps=0.7),
        seed=1,
    )
    with FairBFLTrainer(dataset, config) as trainer:
        trainer.run()
    assert len(trainer.detection_logs()) == 2
    assert 0.0 <= trainer.average_detection_rate() <= 1.0
