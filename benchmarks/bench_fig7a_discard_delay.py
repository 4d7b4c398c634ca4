"""Figure 7a: average delay with and without the discarding strategy.

Paper result: FAIR-BFL with the discard strategy is markedly faster than plain
FAIR-BFL (discarded low contributors sit out the following round, shrinking
the per-round workload), approaching -- in the paper, slightly beating --
FedAvg, while the vanilla blockchain remains the slowest.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.core.results import ComparisonResult


def _run(engine, base):
    fair = engine.run(base.with_overrides(system="fairbfl", name="fairbfl"))
    fair_discard = engine.run(
        base.with_overrides(system="fairbfl", name="fairbfl", strategy="discard", dbscan_eps=0.6)
    )
    fedavg = engine.run(base.with_overrides(system="fedavg", name="fedavg"))
    chain = engine.run(
        base.with_overrides(system="blockchain", name="blockchain", num_clients=100)
    )
    return fair, fair_discard, fedavg, chain


def test_fig7a_discard_delay(benchmark, engine, quality_base):
    fair, fair_discard, fedavg, chain = benchmark.pedantic(
        _run, args=(engine, quality_base), rounds=1, iterations=1
    )

    table = ComparisonResult(
        title="Figure 7a -- running average delay (s) with the discarding strategy",
        columns=["round", "FAIR-Discard", "FAIR", "Blockchain", "FedAvg"],
    )
    for i in range(len(fair)):
        table.add_row(
            i + 1,
            fair_discard.running_average_delay()[i],
            fair.running_average_delay()[i],
            chain.running_average_delay()[i] if i < len(chain) else float("nan"),
            fedavg.running_average_delay()[i],
        )
    discarded_per_round = [len(r.discarded) for r in fair_discard.rounds]
    participants_per_round = [len(r.participants) for r in fair_discard.rounds]
    table.notes.append(f"clients discarded per round: {discarded_per_round}")
    table.notes.append(f"participants per round (discard run): {participants_per_round}")
    table.notes.append(
        "paper: FAIR-Discard < FedAvg < FAIR < Blockchain; at this simulation scale the "
        "discard savings land FAIR-Discard between FedAvg and FAIR (see EXPERIMENTS.md)"
    )
    emit(table, "fig7a_discard_delay.txt")

    # Core qualitative claims: discarding reduces FAIR-BFL's delay, and the
    # vanilla blockchain remains the slowest system.
    assert fair_discard.average_delay() <= fair.average_delay()
    assert chain.average_delay() > fair.average_delay()
    # The discard strategy did actually discard someone.
    assert sum(discarded_per_round) > 0


@pytest.mark.smoke
def test_fig7a_discard_delay_smoke(engine, smoke_quality_base):
    """Fast structural pass: the discard run completes with well-formed rounds."""
    fair_discard = engine.run(
        smoke_quality_base.with_overrides(
            system="fairbfl",
            name="fairbfl",
            strategy="discard",
            dbscan_eps=0.6,
        )
    )
    assert fair_discard.average_delay() > 0
    assert all(isinstance(r.discarded, list) for r in fair_discard.rounds)
