#!/usr/bin/env python
"""Security scenario: detect and discard malicious clients (paper Section 5.4 / Table 2).

Ten clients train collaboratively; every round 1-3 of them are randomly
designated malicious and upload sign-flipped gradients.  The winning miner runs
Algorithm 2 (DBSCAN on the gradient set) and the discard strategy drops the
low-contribution uploads.  The script prints the per-round attacker/drop
indices (Table 2's format), the average detection rate for non-IID and IID
data, and the accuracy impact of the defence.

Run with:  python examples/malicious_detection.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import ExperimentEngine, FairBFLTrainer, ScenarioSpec  # noqa: E402


def run_protocol(engine, scheme: str, *, strategy: str = "discard", seed: int = 0):
    """Run the Table 2 protocol on the given data distribution; returns (trainer, history)."""
    spec = ScenarioSpec(
        name=f"table2[{scheme},{strategy}]",
        num_clients=10,
        num_samples=800,
        scheme=scheme,
        noise_std=0.35,
        num_rounds=10,
        participation=1.0,
        strategy=strategy,
        attacks=True,
        attack_name="sign_flip",
        min_attackers=1,
        max_attackers=3,
        dbscan_eps=0.7,
        seed=seed,
    )
    # Built by hand (not `engine.run(spec)`) to read the detection logs.
    with FairBFLTrainer(engine.dataset_for(spec), spec.fairbfl_config()) as trainer:
        history = trainer.run()
    return trainer, history


def main() -> None:
    engine = ExperimentEngine()  # builds each dataset once across the runs below
    for scheme, label in (("dirichlet", "Non-IID"), ("iid", "IID")):
        trainer, history = run_protocol(engine, scheme)
        print(f"\n=== {label} data ===")
        print(f"{'round':>5}  {'attacker index':>18}  {'drop index':>18}  {'detection rate':>14}")
        for log in trainer.detection_logs():
            print(
                f"{log.round_index + 1:>5}  {str(log.attacker_ids):>18}  "
                f"{str(log.dropped_ids):>18}  {log.detection_rate:>13.0%}"
            )
        print(f"Average detection rate ({label}): {trainer.average_detection_rate():.2%}")
        print(f"Final accuracy with defence    : {history.final_accuracy():.3f}")

    # Show what happens when the defence is off: same attack, keep-everything strategy.
    print("\n=== Defence ablation (non-IID) ===")
    _, defended = run_protocol(engine, "dirichlet", strategy="discard")
    _, undefended = run_protocol(engine, "dirichlet", strategy="keep")
    print(f"final accuracy with discard strategy : {defended.final_accuracy():.3f}")
    print(f"final accuracy without discarding    : {undefended.final_accuracy():.3f}")
    print("(the discard strategy removes forged gradients before aggregation)")


if __name__ == "__main__":
    main()
