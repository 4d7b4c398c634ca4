"""Partition consensus: delay and reward fairness degrade, then recover.

The gossip substrate makes the cost of a network split measurable.  One
FAIR-BFL workload (4 miners, full peer graph) runs through three phases —
healthy, partitioned, healed: a timed ``partition`` window splits the miner
committee into two groups that each mine their own fork, and the heal-time
reorg voids the losing fork's blocks and rewards.

Asserted (the claims this bench pins):

* **consensus delay** — blocks mined during the partition only reach
  network-wide agreement at the heal, so their consensus delay (simulated
  seconds from block creation to global agreement) is orders of magnitude
  above the healed baseline of a few gossip hops;
* **reward fairness** — Jain's fairness index over the canonical chain's
  per-client rewards drops during the partition (only the winning fork's
  clients keep their rewards) and recovers after the heal.

Emits the human-readable phase table (``partition_consensus.txt``) and the
machine-readable record (``BENCH_partition_consensus.json``).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import emit, emit_json
from repro.core.fairbfl import FairBFLTrainer
from repro.core.results import ComparisonResult
from repro.runner.engine import ExperimentEngine
from repro.runner.scenario import ScenarioSpec

NUM_CLIENTS = 12
NUM_MINERS = 4
NUM_ROUNDS = 10
PARTITION = "3-6:0,1"  # rounds 3-6: miners {0,1} vs {2,3}
PARTITION_ROUNDS = range(3, 7)

PHASES = ("pre", "partition", "post")


def _phase_of(round_index: int) -> str:
    if round_index < PARTITION_ROUNDS.start:
        return "pre"
    if round_index in PARTITION_ROUNDS:
        return "partition"
    return "post"


def _spec(num_rounds: int = NUM_ROUNDS, partition: str = PARTITION) -> ScenarioSpec:
    return ScenarioSpec(
        name="partition-consensus",
        system="fairbfl",
        num_clients=NUM_CLIENTS,
        num_samples=50 * NUM_CLIENTS,
        num_rounds=num_rounds,
        participation=0.75,
        epochs=1,
        batch_size=10,
        learning_rate=0.05,
        miners=NUM_MINERS,
        topology="full",
        partition=partition,
        seed=0,
    )


def jain_index(values: list[float]) -> float:
    """Jain's fairness index over ``values`` (1 = perfectly even, 1/n = one winner)."""
    if not values:
        return 0.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        return 0.0
    return (total * total) / (len(values) * squares)


def _phase_fairness(chain) -> dict[str, float]:
    """Jain index over per-client canonical-chain rewards, one value per phase."""
    by_phase: dict[str, dict[str, float]] = {phase: {} for phase in PHASES}
    for block in chain.blocks:
        rewards = by_phase[_phase_of(block.round_index)]
        for record in block.reward_records():
            client = str(record.get("client"))
            rewards[client] = rewards.get(client, 0.0) + float(record.get("reward", 0.0))
    return {
        phase: jain_index(list(rewards.values())) for phase, rewards in by_phase.items()
    }


def _run_partition_experiment():
    spec = _spec()
    engine = ExperimentEngine()
    start = time.perf_counter()
    with FairBFLTrainer(engine.dataset_for(spec), spec.fairbfl_config()) as trainer:
        history = trainer.run()
    wall = time.perf_counter() - start

    consensus: dict[int, float] = {}
    net = [record.extras["net"] for record in history.rounds]
    for entry in net:
        for r, delay in entry["consensus_resolved"].items():
            consensus[int(r)] = float(delay)
    return {
        "spec": spec,
        "trainer": trainer,
        "history": history,
        "net": net,
        "consensus": consensus,
        "fairness": _phase_fairness(trainer.chain),
        "wall_time_s": wall,
    }


def test_partition_consensus(benchmark):
    results = benchmark.pedantic(_run_partition_experiment, rounds=1, iterations=1)
    consensus, net = results["consensus"], results["net"]
    fairness = results["fairness"]

    assert set(consensus) == set(range(NUM_ROUNDS)), "every round must resolve"
    phase_delays = {phase: [] for phase in PHASES}
    for r, delay in consensus.items():
        phase_delays[_phase_of(r)].append(delay)
    mean_delay = {
        phase: sum(values) / len(values) for phase, values in phase_delays.items()
    }

    table = ComparisonResult(
        title=(
            f"Partition consensus (FAIR-BFL, n={NUM_CLIENTS}, m={NUM_MINERS}, "
            f"partition rounds {PARTITION_ROUNDS.start}-{PARTITION_ROUNDS.stop - 1})"
        ),
        columns=["phase", "rounds", "mean_consensus_delay_s", "reward_fairness_jain"],
    )
    measurements = []
    for phase in PHASES:
        table.add_row(
            phase, len(phase_delays[phase]), mean_delay[phase], fairness[phase]
        )
        measurements.append(
            {
                "label": phase,
                "rounds": len(phase_delays[phase]),
                "mean_consensus_delay_s": mean_delay[phase],
                "max_consensus_delay_s": max(phase_delays[phase]),
                "reward_fairness_jain": fairness[phase],
            }
        )
    total_reorgs = net[-1]["total_reorgs"]
    lost_uploads = sum(entry["lost_uploads"] for entry in net)
    table.notes.append(
        f"total reorgs {total_reorgs}, lost uploads {lost_uploads}; consensus "
        "delay = simulated seconds from block creation to network-wide agreement"
    )
    emit(table, "partition_consensus.txt")
    emit_json(
        "partition_consensus",
        config={
            "num_clients": NUM_CLIENTS,
            "num_miners": NUM_MINERS,
            "num_rounds": NUM_ROUNDS,
            "topology": "full",
            "partition": PARTITION,
            "participation": 0.75,
        },
        measurements=measurements,
        notes=[
            "assertion: partition-phase consensus delay > healed baseline",
            "assertion: reward fairness (Jain) recovers after the heal",
        ],
        specs=[results["spec"]],
    )

    # Consensus delay: a partitioned block waits whole rounds for agreement;
    # a healed block waits a few gossip hops.
    healed_baseline = max(mean_delay["pre"], mean_delay["post"])
    assert mean_delay["partition"] > 10 * healed_baseline, (
        f"partition did not degrade consensus delay: {mean_delay['partition']:.3f}s "
        f"vs healed {healed_baseline:.3f}s"
    )
    # Reward fairness: the heal voids the losing fork's rewards, so the
    # partitioned phase concentrates canonical rewards on the winning side.
    assert fairness["partition"] < fairness["pre"], (
        f"partition did not degrade reward fairness: "
        f"{fairness['partition']:.3f} vs pre {fairness['pre']:.3f}"
    )
    assert fairness["post"] > fairness["partition"], (
        f"fairness did not recover after the heal: "
        f"{fairness['post']:.3f} vs partition {fairness['partition']:.3f}"
    )
    # The split actually happened and healed.
    assert any(entry["chain_views"] > 1 for entry in net)
    assert net[-1]["chain_views"] == 1
    assert total_reorgs >= 1


@pytest.mark.smoke
def test_partition_consensus_smoke():
    """Structural subset: one short split, delays stretch, heal converges."""
    spec = _spec(num_rounds=5, partition="1-2:0,1")
    engine = ExperimentEngine()
    with FairBFLTrainer(engine.dataset_for(spec), spec.fairbfl_config()) as trainer:
        history = trainer.run()
    net = [record.extras["net"] for record in history.rounds]
    assert net[1]["chain_views"] == 2 and net[1]["partition_active"]
    assert net[3]["reorged"] and net[3]["chain_views"] == 1
    resolved = {
        int(r): float(d)
        for entry in net
        for r, d in entry["consensus_resolved"].items()
    }
    # The split rounds' blocks waited for the heal; round 0 resolved in-round.
    assert resolved[1] > 10 * resolved[0]
    assert trainer.net.chain_views() == 1
