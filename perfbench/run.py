"""The FAIR-BFL benchmark: one workload, measured for a fixed wall time.

Usage, from the repository root::

    python3 perfbench/run.py --workload bfl-committee --seed 1 --seconds 30 --trace 0

Each run of the workload happens in a fresh child process (``child.py``) with
BLAS and OpenMP pinned to one thread and only the ``serial`` and ``cohort``
executor backends, so no worker pool competes for the cores.  Runs repeat
until ``--seconds`` would be exceeded (at least two; two pairs when traced),
and the end-to-end metrics are medians over them.

The end-to-end times (``setup_s``, ``run_s``, ``round_s_p50`` and
``updates_per_s``) are host-scaled: each timed interval's wall time is scaled
to a nominal host speed by a short probe taken at its two ends
(``hostclock.py``), because the hosts this runs on change speed by up to half
for minutes at a time.  Their wall-time values are printed beside them, and
``host.probe_ms`` is the median probe reading.  Before each run a fixed
calibration loop is timed and reported as ``host.calib_ms``; it scales
nothing and gates nothing, but makes host drift between sets of runs visible.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs pairs of a
traced and an untraced run (traced, untraced, traced, untraced, ...) and
prints the per-layer metrics of the traced ones: self time per layer (wall
time) from spans recorded around each layer's public functions, exact work
counts, span coverage of round time and the tracing overhead against the
untraced runs.

Outputs are checked on every run and counted as operations: the run
completes; its history digest equals the one recorded for the seed in
``reference.json`` and that of every other run of the seed (traced and
untraced); on the FAIR-BFL workloads every miner's chain is valid and the
chain's reward totals equal the trainer's ledger; on bfl-committee the record
read back from the run store equals the history; ``final_accuracy`` is above
the workload's floor; in traced runs the exact counts repeat.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import EXACT_COUNTS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: (name, unit, better): the metrics a user of the system sees.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("round_s_p50", "s", "lower"),
    ("updates_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("final_accuracy", "fraction", "higher"),
]

#: The end-to-end metrics that are host-scaled times; the report prints
#: their wall-time values beside them.
WALL_TIMED = ("setup_s", "run_s", "round_s_p50", "updates_per_s")

#: One thread for every BLAS/OpenMP runtime numpy may load; unpinned, the
#: cohort kernels spread over the cores and their wall time follows the load
#: of whatever else runs on the host.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: History digests recorded per workload and seed (``sets.py reference``).
REFERENCE = HERE / "reference.json"

#: No new run starts once it could end later than this after the start.
DEADLINE_S = 165.0
CALIBRATION_LOOP = 1_000_000


def calibrate_ms() -> float:
    """Wall time of a fixed pure-Python loop, in milliseconds."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i
    return (time.perf_counter() - start) * 1000.0


def run_child(workload: str, seed: int, *, traced: bool, smoke: bool, timeout: float):
    """One run in a fresh process; its result dict, or None if it failed."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, **PINNED_ENV)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        print(f"run timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout[-2000:])
        return None


def run_set(workload: str, seed: int, seconds: float, *, trace: bool, smoke: bool) -> list[dict]:
    """Repeat runs until ``seconds`` would be exceeded; each entry is one run.

    Traced mode runs traced/untraced pairs, so the set ends on an untraced
    run and both kinds have the same count, at least two each.
    """
    kinds = ("traced", "plain") if trace else ("plain",)
    minimum = 2 * len(kinds)
    runs: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    while True:
        for kind in kinds:
            calib = calibrate_ms()
            began = time.monotonic()
            result = run_child(
                workload,
                seed,
                traced=kind == "traced",
                smoke=smoke,
                timeout=DEADLINE_S - (began - start),
            )
            durations.append(time.monotonic() - began)
            runs.append({"kind": kind, "calib_ms": calib, "result": result})
        elapsed = time.monotonic() - start
        step = len(kinds) * max(durations)
        if elapsed + step > DEADLINE_S:
            break
        if len(runs) >= minimum and elapsed + len(kinds) * statistics.median(durations) > seconds:
            break
    return runs


def reference_digest(workload: str, seed: int, *, smoke: bool) -> str | None:
    """The history digest recorded for this workload and seed, if there is one."""
    if smoke:
        return None
    table = json.loads(REFERENCE.read_text())["digests"]
    return table.get(workload, {}).get(str(seed))


def check_runs(runs: list[dict], reference: str | None = None) -> list[tuple[str, bool]]:
    """Every output check of a set of runs of one seed, as (name, passed).

    ``reference`` is the digest recorded for the seed; the first completed
    run must match it, and every other run matches the first.
    """
    checks: list[tuple[str, bool]] = []
    done = [r["result"] for r in runs if r["result"] is not None]
    for i, run in enumerate(runs):
        checks.append((f"run_{i}_completed", run["result"] is not None))
    if reference is not None and done:
        checks.append(("digest_matches_reference", done[0]["digest"] == reference))
    for i, result in enumerate(done):
        checks += [(f"run_{i}_{name}", bool(ok)) for name, ok in result["checks"]]
        if i:
            checks.append((f"run_{i}_digest_equal", result["digest"] == done[0]["digest"]))
    traced = [r["layers"] for r in done if "layers" in r]
    for i, layers in enumerate(traced[1:], start=1):
        for name in EXACT_COUNTS:
            checks.append((f"traced_{i}_{name}_repeats", layers[name] == traced[0][name]))
    return checks


def end_to_end(done: list[dict]) -> dict[str, tuple[float, int]]:
    """End-to-end metrics of untraced runs as (value, sample count).

    Times are host-scaled (see ``hostclock.py``); pass runs whose fields are
    replaced by their ``wall`` ones to get the same metrics in wall time.
    """
    rounds = [t for r in done for t in r["rounds_s"]]
    round_time = sum(rounds)
    per_run = {
        name: [r[name] for r in done]
        for name in ("setup_s", "run_s", "peak_rss_mb", "final_accuracy")
    }
    out = {name: (statistics.median(values), len(values)) for name, values in per_run.items()}
    out["round_s_p50"] = (statistics.median(rounds), len(rounds))
    out["updates_per_s"] = (sum(r["updates"] for r in done) / round_time, len(rounds))
    return {name: out[name] for name, _unit, _better in END_TO_END}


def per_layer(runs: list[dict], host_only: bool = False) -> dict[str, tuple[float, int]]:
    """Per-layer metrics: medians over the traced runs, plus the run-pair and host metrics."""
    done = [r["result"] for r in runs if r["result"] is not None]
    traced = [r["result"] for r in runs if r["kind"] == "traced" and r["result"] is not None]
    plain = [r["result"] for r in runs if r["kind"] == "plain" and r["result"] is not None]
    out: dict[str, tuple[float, int]] = {}
    if not host_only:
        for name, _unit, _better, _moves in PER_LAYER:
            values = [r["layers"][name] for r in traced if name in r["layers"]]
            if values:
                out[name] = (statistics.median(values), len(values))
        if traced and plain:
            ratio = statistics.median(r["run_s"] for r in traced) / statistics.median(
                r["run_s"] for r in plain
            )
            out["trace.overhead_pct"] = (100.0 * (ratio - 1.0), len(traced) + len(plain))
    calibs = [r["calib_ms"] for r in runs]
    out["host.calib_ms"] = (statistics.median(calibs), len(calibs))
    probes = [p for r in done for p in r["probes_ms"]]
    if probes:
        out["host.probe_ms"] = (statistics.median(probes), len(probes))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="FAIR-BFL benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="shrink the workload (self-tests only)"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    runs = run_set(
        args.workload, args.seed, args.seconds, trace=bool(args.trace), smoke=args.smoke
    )
    done = [r["result"] for r in runs if r["result"] is not None]
    if args.trace:
        metrics = per_layer(runs)
        spec = [(name, unit) for name, unit, _better, _moves in PER_LAYER]
    else:
        metrics = end_to_end(done) if done else {}
        spec = [(name, unit) for name, unit, _better in END_TO_END]
    missing = [name for name, _unit in spec if name not in metrics]
    if missing:
        print(f"error: no successful run produced {', '.join(missing)}", file=sys.stderr)
        return 1

    checks = check_runs(runs, reference_digest(args.workload, args.seed, smoke=args.smoke))
    failed = [name for name, ok in checks if not ok]
    print(
        f"{args.workload} seed {args.seed}: {len(runs)} runs "
        f"({sum(r['kind'] == 'traced' for r in runs)} traced), "
        f"{len(failed)}/{len(checks)} checks failed {failed if failed else ''}".rstrip()
    )
    wall = {} if args.trace else end_to_end([dict(r, **r["wall"]) for r in done])
    for name, unit in spec:
        value, samples = metrics[name]
        line = f"  {name:34s} {value:14.6f} {unit:14s} n={samples}"
        if name in WALL_TIMED:
            line += f"  (wall {wall[name][0]:.6f})"
        print(line)
    if not args.trace:
        for name, (value, samples) in per_layer(runs, host_only=True).items():
            print(f"  {name:34s} {value:14.6f} {'ms':14s} n={samples}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(checks),
                "failed": len(failed),
                "metrics": {
                    name: {"value": metrics[name][0], "unit": unit} for name, unit in spec
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
