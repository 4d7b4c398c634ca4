#!/usr/bin/env python
"""Incentive scenario: contribution-based rewards with heterogeneous data quality.

A federation where a third of the clients hold low-quality (label-noisy) data.
FAIR-BFL's contribution mechanism (Algorithm 2) scores every upload by its
cosine distance to the global update, rewards the high contributors from a
per-round base reward, and -- with the discard strategy -- drops the
low-quality gradients from aggregation.  The script compares the rewards
accumulated by clean vs noisy clients and the accuracy of keep vs discard.

Run with:  python examples/incentive_rewards.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.core.config import FairBFLConfig  # noqa: E402
from repro.core.fairbfl import FairBFLTrainer  # noqa: E402
from repro.datasets.federated import inject_label_noise  # noqa: E402
from repro.datasets.synthetic_mnist import load_synthetic_mnist  # noqa: E402
from repro.datasets.federated import FederatedDataset  # noqa: E402
from repro.fl.client import LocalTrainingConfig  # noqa: E402
from repro.incentive.contribution import ContributionConfig  # noqa: E402
from repro.utils.rng import new_rng  # noqa: E402


def build_population(seed: int = 0):
    """15 clients on Dirichlet non-IID data; 5 of them get heavy label noise."""
    base = load_synthetic_mnist(1200, seed=seed, noise_std=0.4)
    fed = FederatedDataset.from_dataset(
        base, 15, new_rng(seed, "incentive-example"), scheme="dirichlet", alpha=0.5
    )
    noisy = inject_label_noise(
        fed, new_rng(seed, "incentive-noise"), client_fraction=1 / 3, noise_level=0.7
    )
    return fed, noisy


def run(strategy: str, dataset, seed: int = 0):
    """Run FAIR-BFL on ``dataset``; returns (trainer, history)."""
    config = FairBFLConfig(
        num_rounds=12,
        participation_fraction=0.6,
        local=LocalTrainingConfig(epochs=2, batch_size=10, learning_rate=0.05),
        model_name="logreg",
        strategy=strategy,
        contribution=ContributionConfig(eps=0.6, base_reward=1.0),
        seed=seed,
    )
    with FairBFLTrainer(dataset, config) as trainer:
        history = trainer.run()
    return trainer, history


def main() -> None:
    dataset, noisy_clients = build_population()
    print(f"Low-quality (label-noise) clients: {noisy_clients}\n")

    trainer_keep, hist_keep = run("keep", dataset)
    trainer_discard, hist_discard = run("discard", dataset)

    print("Accumulated rewards after 12 rounds (discard strategy)")
    totals = trainer_discard.reward_ledger.totals
    clean_rewards = [totals.get(c, 0.0) for c in range(dataset.num_clients) if c not in noisy_clients]
    noisy_rewards = [totals.get(c, 0.0) for c in noisy_clients]
    for cid in range(dataset.num_clients):
        tag = "low-quality" if cid in noisy_clients else "clean"
        print(f"  client {cid:>2} ({tag:<11}): {totals.get(cid, 0.0):.3f}")
    print(f"\n  mean reward, clean clients       : {np.mean(clean_rewards):.3f}")
    print(f"  mean reward, low-quality clients : {np.mean(noisy_rewards):.3f}")

    discarded_counts = [len(r.discarded) for r in hist_discard.rounds]
    print(f"\nClients discarded per round: {discarded_counts}")

    print("\nAccuracy comparison (keep vs discard)")
    print(f"  keep all gradients : final accuracy {hist_keep.final_accuracy():.3f}, "
          f"average delay {hist_keep.average_delay():.2f} s")
    print(f"  discard strategy   : final accuracy {hist_discard.final_accuracy():.3f}, "
          f"average delay {hist_discard.average_delay():.2f} s")
    print(
        "\nRewards follow contribution rather than self-reported data size, and the discard\n"
        "strategy filters the label-noise clients out of the aggregation (Section 5.3)."
    )


if __name__ == "__main__":
    main()
