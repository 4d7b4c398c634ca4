"""Run sets of benchmark runs over several seeds and summarise their spread.

Usage, from the repository root::

    python3 perfbench/sets.py run --seeds 1-10 --trace-seeds 1 \
        --out .perfbench_tmp/a.json .perfbench_tmp/b.json
    python3 perfbench/sets.py compare .perfbench_tmp/a.json .perfbench_tmp/b.json
    python3 perfbench/sets.py baseline .perfbench_tmp/a.json .perfbench_tmp/b.json \
        --out perfbench/baseline.json
    python3 perfbench/sets.py reference --seeds 0-20

``run`` invokes ``run.py`` once per seed, workload and set, rotating the
workload order from one seed to the next so that no workload always runs
first, running the sets' runs of a seed and workload back to back, and
records every end-to-end value with the host calibration reading taken just
before it.  For each metric it prints the median, the quartiles and the
spread (interquartile distance over the median) against the metric's bound
in ``BENCHMARK.json``; a spread must stay under the bound, and under a third
of it to count as steady.  ``--trace-seeds`` adds traced runs whose
per-layer medians go into the file too.

``reference`` runs each workload once per seed and records the history
digests and final accuracies in ``perfbench/reference.json``.

``compare`` checks that the second set's median of every metric is not worse
than the first set's by more than the bound.  ``baseline`` writes the
checked-in baseline: every value, medians and quartiles, the host
calibration readings, the per-layer medians, the layer to end-to-end map,
the workload rationale and the seed for confirming claims.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import REFERENCE, calibrate_ms, run_child  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import CONFIRM_SEED, WORKLOADS  # noqa: E402


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    began = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall = time.monotonic() - began
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(values: dict[str, dict[str, list[float]]], bounds: dict[str, float]) -> dict:
    """Median, quartiles and spread of each workload's metrics."""
    out: dict = {}
    for workload, metrics in values.items():
        out[workload] = {}
        for name, series in metrics.items():
            q1, median, q3 = quartiles(series)
            spread = (q3 - q1) / median if median else 0.0
            out[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "OVER" if spread > bound else ("wide" if spread > bound / 3 else "ok")
            print(
                f"{workload:15s} {name:16s} median {median:12.6f} q1 {q1:12.6f} q3 {q3:12.6f} "
                f"spread {spread:7.4f} bound {bound if bound is not None else '-'} {flag}"
            )
    return out


def _new_set(seeds, seconds, workloads) -> dict:
    return {
        "seeds": seeds,
        "run_seconds": seconds,
        "attempted": 0,
        "failed": 0,
        "values": {w: {} for w in workloads},
        "calib_ms": {w: [] for w in workloads},
        "wall_s": {w: [] for w in workloads},
        "layers": {},
    }


def _add(record: dict, result: dict) -> None:
    record["attempted"] += result["attempted"]
    record["failed"] += result["failed"]


def cmd_run(args) -> int:
    """One or more sets over the same seeds, interleaved run by run.

    With several ``--out`` files each (seed, workload) runs once per set,
    back to back, the set order rotating with the seed, so every set samples
    the same stretches of host time.
    """
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (
        [w["name"] for w in bench["workloads"]]
        if args.workloads == "all"
        else args.workloads.split(",")
    )
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    sets = [_new_set(seeds, seconds, workloads) for _ in args.out]

    def save() -> None:
        for path, record in zip(args.out, sets):
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for i, seed in enumerate(seeds):
        order = workloads[i % len(workloads):] + workloads[: i % len(workloads)]
        for workload in order:
            for k in range(len(sets)):
                which = (i + k) % len(sets)
                record = sets[which]
                record["calib_ms"][workload].append(calibrate_ms())
                result = invoke(workload, seed, seconds, 0)
                _add(record, result)
                record["wall_s"][workload].append(result["wall_s"])
                for name, metric in result["metrics"].items():
                    record["values"][workload].setdefault(name, []).append(metric["value"])
                print(
                    f"set {which} seed {seed} {workload}: "
                    f"failed {result['failed']}/{result['attempted']} "
                    f"wall {result['wall_s']:.1f}s "
                    + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                    flush=True,
                )
                save()
    for seed in parse_seeds(args.trace_seeds) if args.trace_seeds else []:
        for workload in workloads:
            result = invoke(workload, seed, seconds, 1)
            _add(sets[0], result)
            sets[0]["layers"].setdefault(workload, {})[seed] = {
                k: v["value"] for k, v in result["metrics"].items()
            }
            print(
                f"traced seed {seed} {workload}: "
                f"failed {result['failed']}/{result['attempted']}",
                flush=True,
            )
    failed = 0
    for which, record in enumerate(sets):
        print(f"set {which}: operations failed {record['failed']}/{record['attempted']}")
        record["summary"] = summarise(record["values"], bounds)
        for workload in workloads:
            walls = record["wall_s"][workload]
            print(
                f"{workload:15s} host.calib_ms median "
                f"{statistics.median(record['calib_ms'][workload]):.2f} "
                f"wall_s max {max(walls):.1f} median {statistics.median(walls):.1f}"
            )
        failed += record["failed"]
    save()
    return 0 if failed == 0 else 1


def cmd_compare(args) -> int:
    bench = load_benchmark()
    meta = {m["name"]: m for m in bench["end_to_end"]}
    first = json.loads(Path(args.first).read_text())["summary"]
    second = json.loads(Path(args.second).read_text())["summary"]
    worst_ok = True
    for workload, metrics in first.items():
        for name, stats in metrics.items():
            m1, m2 = stats["median"], second[workload][name]["median"]
            sign = 1.0 if meta[name]["better"] == "lower" else -1.0
            worse = sign * (m2 - m1) / m1 if m1 else 0.0
            ok = worse <= meta[name]["bound"]
            worst_ok &= ok
            print(
                f"{workload:15s} {name:16s} {m1:12.6f} -> {m2:12.6f} worse by {100 * worse:7.2f}% "
                f"(bound {100 * meta[name]['bound']:.0f}%) {'ok' if ok else 'OVER'}"
            )
    return 0 if worst_ok else 1


def cmd_baseline(args) -> int:
    sets = [json.loads(Path(p).read_text()) for p in args.sets]
    baseline = {
        "about": (
            "Baseline of the FAIR-BFL benchmark at the commit that defined it: "
            "medians and quartiles of each end-to-end metric over the seeds of "
            "each set (times host-scaled, see hostclock.py), per-layer medians "
            "of traced runs (wall time), and the layer each per-layer metric "
            "belongs to with the end-to-end metric it should move."
        ),
        "confirm_seed": CONFIRM_SEED,
        "workloads": {name: w.why for name, w in WORKLOADS.items()},
        "layer_map": {name: {"unit": unit, "better": better, "moves": moves}
                      for name, unit, better, moves in PER_LAYER},
        "sets": [
            {
                "seeds": s["seeds"],
                "run_seconds": s["run_seconds"],
                "failed": s["failed"],
                "attempted": s["attempted"],
                "host_calib_ms": s["calib_ms"],
                "end_to_end": s["summary"],
                "values": s["values"],
                "per_layer": s["layers"],
            }
            for s in sets
        ],
    }
    Path(args.out).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


def cmd_reference(args) -> int:
    """Record each seed's history digest and final accuracy, one plain run each."""
    record = {
        "about": (
            "History digest (SHA-256 of the run's full record) and final accuracy of "
            "one run per workload and seed.  run.py counts a run whose digest differs "
            "from the one recorded for its seed as a failed operation, so a change "
            "that alters the arithmetic shows even where accuracy does not move.  "
            "Regenerate with: python3 perfbench/sets.py reference"
        ),
        "digests": {},
        "final_accuracy": {},
    }
    for workload in WORKLOADS:
        for seed in parse_seeds(args.seeds) + [CONFIRM_SEED]:
            result = run_child(workload, seed, traced=False, smoke=False, timeout=170)
            if result is None or not all(ok for _name, ok in result["checks"]):
                raise RuntimeError(f"{workload} seed {seed} failed: {result and result['checks']}")
            record["digests"].setdefault(workload, {})[str(seed)] = result["digest"]
            record["final_accuracy"].setdefault(workload, {})[str(seed)] = result[
                "final_accuracy"
            ]
            print(f"{workload} seed {seed}: {result['digest'][:16]} "
                  f"accuracy {result['final_accuracy']:.4f}", flush=True)
    REFERENCE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sets of benchmark runs (see module docstring)")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--workloads", default="all")
    run.add_argument("--seconds", type=int, default=0)
    run.add_argument("--trace-seeds", default="")
    run.add_argument("--out", nargs="+", required=True, help="one file per set")
    run.set_defaults(func=cmd_run)
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    compare.set_defaults(func=cmd_compare)
    baseline = sub.add_parser("baseline")
    baseline.add_argument("sets", nargs="+")
    baseline.add_argument("--out", required=True)
    baseline.set_defaults(func=cmd_baseline)
    reference = sub.add_parser("reference")
    reference.add_argument("--seeds", default="0-20")
    reference.set_defaults(func=cmd_reference)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
