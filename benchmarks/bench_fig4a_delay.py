"""Figure 4a: average per-round delay of FAIR-BFL vs vanilla blockchain vs FedAvg.

Paper result: FAIR-BFL's average delay lies *between* the vanilla blockchain
(highest) and FedAvg (lowest), because Assumptions 1 and 2 remove the
queueing/forking costs of the vanilla ledger while keeping one proof-of-work
block per round.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.core.results import ComparisonResult


def _run(engine, base):
    # All systems drive through the scenario engine (one wiring path shared
    # with the CLI's run/compare/sweep subcommands).
    fair = engine.run(base.with_overrides(system="fairbfl", name="fairbfl"))
    fedavg = engine.run(base.with_overrides(system="fedavg", name="fedavg"))
    chain = engine.run(
        base.with_overrides(system="blockchain", name="blockchain", num_clients=100)
    )
    return fair, fedavg, chain


def test_fig4a_delay_comparison(benchmark, engine, bench_base):
    fair, fedavg, chain = benchmark.pedantic(
        _run, args=(engine, bench_base), rounds=1, iterations=1
    )

    table = ComparisonResult(
        title="Figure 4a -- running average delay per communication round (seconds)",
        columns=["round", "FAIR", "Blockchain", "FedAvg"],
    )
    fair_avg = fair.running_average_delay()
    chain_avg = chain.running_average_delay()
    fedavg_avg = fedavg.running_average_delay()
    for i in range(len(fair)):
        table.add_row(i + 1, fair_avg[i], chain_avg[i], fedavg_avg[i])
    table.notes.append(
        f"overall averages: FAIR={fair.average_delay():.2f}s, "
        f"Blockchain={chain.average_delay():.2f}s, FedAvg={fedavg.average_delay():.2f}s"
    )
    table.notes.append("paper: FedAvg < FAIR < Blockchain (approx. 6 / 9.5 / 15 s)")
    emit(table, "fig4a_delay.txt")

    # The paper's qualitative conclusion: FAIR sits between FedAvg and Blockchain.
    assert fedavg.average_delay() < fair.average_delay() < chain.average_delay()
    assert np.all(fair.delays > 0)


@pytest.mark.smoke
def test_fig4a_delay_smoke(engine, smoke_base):
    """Fast structural pass: FedAvg stays cheaper than the vanilla chain."""
    fedavg = engine.run(smoke_base.with_overrides(system="fedavg", name="fedavg"))
    chain = engine.run(
        smoke_base.with_overrides(system="blockchain", name="blockchain", num_clients=20)
    )
    assert 0.0 < fedavg.average_delay() < chain.average_delay()
