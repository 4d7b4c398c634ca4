"""One run of one workload in a fresh process; prints one JSON result line.

Usage (``run.py`` starts this; it is not meant to be run by hand)::

    python3 perfbench/child.py --workload bfl-committee --seed 1 [--trace] [--smoke]

The run goes through :class:`repro.runner.engine.ExperimentEngine`:
``dataset_for`` builds the dataset, ``run_streaming`` builds the system and
steps it round by round.  Its ``should_stop`` callback fires just before each
round and its ``progress`` callback just after, which is where setup ends and
each round ends.  A :class:`hostclock.HostClock` marks those boundaries,
probes the host's speed at each and, in untraced runs, every half second in
between, and reports each interval's wall time and its time scaled to the
nominal host speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from hostclock import SAMPLE_PERIOD_S, HostClock  # noqa: E402
from tracing import Recorder, hooks_installed, layer_metrics  # noqa: E402
from workloads import SMOKE_ACCURACY_FLOOR, WORKLOADS, spec_fields  # noqa: E402

#: Scratch space for the run store, inside the checkout.
SCRATCH = ROOT / ".perfbench_tmp"


def history_digest(history) -> str:
    """SHA-256 of the history's full store payload (every round field)."""
    from repro.store.records import history_to_payload

    text = json.dumps(history_to_payload(history), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ledger_checks(trainer) -> list[tuple[str, bool]]:
    """Every miner's chain is valid; the canonical chain's rewards match the ledger."""
    checks = [(f"chain_valid:{m.miner_id}", bool(m.chain.is_valid())) for m in trainer.miners]
    on_chain: dict[int, float] = {}
    for label, amount in trainer.chain.total_rewards_by_client().items():
        cid = int(str(label).rpartition("-")[2])
        on_chain[cid] = on_chain.get(cid, 0.0) + float(amount)
    ledger = {int(k): float(v) for k, v in trainer.reward_ledger.totals.items()}
    same = set(on_chain) == set(ledger) and all(
        math.isclose(on_chain[c], ledger[c], rel_tol=1e-9, abs_tol=1e-12) for c in ledger
    )
    checks.append(("rewards_match_chain", same))
    return checks


def run_once(workload: str, seed: int, *, smoke: bool, rec: Recorder, sample: bool) -> dict:
    """Run the workload once, recording setup and round spans into ``rec``.

    ``sample`` adds timer probes between the boundaries; a traced run leaves
    them out, as they would land inside its spans.
    """
    from repro.runner.engine import ExperimentEngine
    from repro.runner.scenario import ScenarioSpec
    from repro.store.runstore import RunStore
    from repro.systems.registry import get_system

    w = WORKLOADS[workload]
    spec = ScenarioSpec(**spec_fields(workload, seed, smoke=smoke)).validate()
    store_dir = None
    store = None
    if w.persist:
        SCRATCH.mkdir(exist_ok=True)
        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=SCRATCH))
        store = RunStore(store_dir)
    engine = ExperimentEngine(store=store, reuse_cached=False)

    # The engine builds the runner internally; keep a handle on it so the
    # ledger can be checked after the run.
    system = get_system(spec.system)
    built = []

    def build(spec_, dataset):
        built.append(type(system).build(system, spec_, dataset))
        return built[-1]

    system.build = build
    marks: dict = {}
    clock = HostClock(w.probe, period=SAMPLE_PERIOD_S if sample else None)
    clock.start()
    try:
        clock.mark()
        setup_id = rec.begin("setup")
        with rec.span("datasets.build"):
            engine.dataset_for(spec)
        open_ids = [setup_id, rec.begin("runner.build")]

        def should_stop() -> bool:
            if "setup_end" not in marks:
                rec.end(open_ids.pop())  # runner.build
                rec.end(open_ids.pop())  # setup
                marks["setup_end"] = True
                clock.mark()
            open_ids.append(rec.begin("round"))
            return False

        def progress(_done: int, _total: int) -> None:
            rec.end(open_ids.pop())
            clock.mark()

        result = engine.run_streaming(spec, progress=progress, should_stop=should_stop)
        stored_digest = None
        if store is not None:
            readback = RunStore(store_dir).get(spec)
            stored_digest = None if readback is None else history_digest(readback.history)
        clock.mark()
    finally:
        clock.stop()
        del system.build
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)

    history = result.history
    digest = history_digest(history)
    final_accuracy = float(history.rounds[-1].accuracy)
    floor = SMOKE_ACCURACY_FLOOR if smoke else w.accuracy_floor
    checks = [("accuracy_above_floor", final_accuracy > floor)]
    if w.ledger:
        checks += ledger_checks(built[-1].trainer)
    if w.persist:
        checks.append(("store_readback_equal", stored_digest == digest))
    net = [r.extras["net"] for r in history.rounds if "net" in r.extras]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Intervals: setup, each round, then the tail (store write and read-back).
    wall, scaled = zip(*clock.intervals())
    return {
        "workload": workload,
        "seed": seed,
        "setup_s": scaled[0],
        "run_s": sum(scaled),
        "rounds_s": list(scaled[1:-1]),
        "wall": {"setup_s": wall[0], "run_s": sum(wall), "rounds_s": list(wall[1:-1])},
        "probes_ms": clock.probes_ms(),
        "updates": sum(len(r.participants) for r in history.rounds),
        "peak_rss_mb": peak_rss_mb,
        "final_accuracy": final_accuracy,
        "digest": digest,
        "checks": checks,
        "history_counts": {
            "incentive.discarded": sum(len(r.discarded) for r in history.rounds),
            "net.reorgs": net[-1]["total_reorgs"] if net else 0,
            "net.lost_uploads": sum(n["lost_uploads"] for n in net),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    rec = Recorder()
    if args.trace:
        with hooks_installed(rec):
            out = run_once(args.workload, args.seed, smoke=args.smoke, rec=rec, sample=False)
        out["layers"] = layer_metrics(rec, out["history_counts"])
    else:
        out = run_once(args.workload, args.seed, smoke=args.smoke, rec=rec, sample=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
