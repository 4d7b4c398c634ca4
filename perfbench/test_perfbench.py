"""Self-tests of the benchmark: metric names and units, output checks, span and
host-clock arithmetic.

Run with ``python -m pytest perfbench -q`` from the repository root.  The
workloads run at smoke scale (a few seconds each).
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
from hostclock import NOMINAL_MS, HostClock  # noqa: E402
from run import END_TO_END, check_runs, reference_digest  # noqa: E402
from tracing import PER_LAYER, Recorder, coverage, self_times  # noqa: E402
from workloads import CONFIRM_SEED, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in PER_LAYER
    ]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("bfl-committee", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _fake_run(digest: str, checks=(("accuracy_above_floor", True),)) -> dict:
    return {"kind": "plain", "calib_ms": 1.0, "result": {"digest": digest, "checks": list(checks)}}


def test_a_tampered_history_digest_is_a_failed_operation():
    checks = check_runs([_fake_run("a" * 64), _fake_run("a" * 64), _fake_run("b" * 64)])
    assert [name for name, ok in checks if not ok] == ["run_2_digest_equal"]


def test_a_digest_unlike_the_recorded_one_is_a_failed_operation():
    runs = [_fake_run("a" * 64), _fake_run("a" * 64)]
    assert all(ok for _name, ok in check_runs(runs, reference="a" * 64))
    checks = check_runs(runs, reference="b" * 64)
    assert [name for name, ok in checks if not ok] == ["digest_matches_reference"]


def test_every_workload_has_recorded_digests():
    for workload in WORKLOADS:
        assert reference_digest(workload, 1, smoke=False) is not None
        assert reference_digest(workload, CONFIRM_SEED, smoke=False) is not None
        assert reference_digest(workload, 1, smoke=True) is None


def test_a_tampered_chain_is_a_failed_operation():
    from repro.runner.engine import ExperimentEngine
    from repro.runner.scenario import ScenarioSpec
    from repro.systems.registry import get_system

    spec = ScenarioSpec(**child.spec_fields("bfl-committee", 3, smoke=True)).validate()
    trainer = get_system(spec.system).build(spec, ExperimentEngine().dataset_for(spec)).trainer
    trainer.run()
    assert all(ok for _name, ok in child.ledger_checks(trainer))

    # Replicas hold the same block objects, so the edit reaches every chain.
    trainer.miners[1].chain.blocks[-1].transactions[0].payload_digest = "0" * 64
    invalid = [f"chain_valid:{m.miner_id}" for m in trainer.miners]
    assert [name for name, ok in child.ledger_checks(trainer) if not ok] == invalid
    runs = [_fake_run("a" * 64, child.ledger_checks(trainer))]
    assert [name for name, ok in check_runs(runs) if not ok] == [f"run_0_{n}" for n in invalid]


def test_span_self_time_and_coverage_arithmetic():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 10.0, 11.0, 12.0, 14.0, 16.0])
    rec = Recorder(clock=lambda: next(ticks))
    with rec.span("round"):
        with rec.span("core.upload"):
            with rec.span("crypto.sign"):
                pass
            with rec.span("crypto.sign"):
                pass
    with rec.span("round"):
        with rec.span("crypto.sign"):
            pass
    # (span_id, name, start, end, parent_id), in the order spans close.
    assert rec.spans == [
        (2, "crypto.sign", 2.0, 4.0, 1),
        (3, "crypto.sign", 5.0, 6.0, 1),
        (1, "core.upload", 1.0, 7.0, 0),
        (0, "round", 0.0, 10.0, None),
        (5, "crypto.sign", 12.0, 14.0, 4),
        (4, "round", 11.0, 16.0, None),
    ]
    times = self_times(rec.spans)
    assert times["crypto.sign"] == pytest.approx(2.0 + 1.0 + 2.0)
    assert times["core.upload"] == pytest.approx(6.0 - 3.0)
    assert times["round"] == pytest.approx((10.0 - 6.0) + (5.0 - 2.0))
    assert sum(times.values()) == pytest.approx(10.0 + 5.0)
    assert coverage(rec.spans) == pytest.approx((6.0 + 2.0) / 15.0)


def test_host_clock_scales_each_interval_by_the_probes_at_its_ends():
    now = [0.0]
    probe_s = [0.002]

    def probe():
        now[0] += probe_s[0]

    clock = HostClock("python", clock=lambda: now[0], probe=probe)
    clock.mark()
    now[0] += 1.0
    probe_s[0] = 0.0016
    clock.mark()
    now[0] += 0.5
    probe_s[0] = 0.0018
    clock.mark()
    assert clock.probes_ms() == pytest.approx([2.0, 1.6, 1.8])
    nominal = NOMINAL_MS["python"]
    # Probe time falls between intervals, never inside one.
    assert clock.intervals() == [
        (pytest.approx(1.0), pytest.approx(1.0 * nominal / 1.8)),
        (pytest.approx(0.5), pytest.approx(0.5 * nominal / 1.7)),
    ]


def test_timer_probes_split_an_interval_by_host_speed_along_it():
    now = [0.0]
    probe_s = [0.002]

    def probe():
        now[0] += probe_s[0]

    clock = HostClock("python", clock=lambda: now[0], probe=probe)
    clock.mark()
    now[0] += 1.0
    probe_s[0] = 0.0016
    clock.sample()
    now[0] += 1.0
    probe_s[0] = 0.0018
    clock.mark()
    nominal = NOMINAL_MS["python"]
    assert clock.intervals() == [
        (pytest.approx(2.0), pytest.approx(1.0 * nominal / 1.8 + 1.0 * nominal / 1.7))
    ]


def test_the_timer_probes_while_started_and_stops():
    clock = HostClock("python", period=0.05)
    clock.start()
    try:
        clock.mark()
        time.sleep(0.2)
        clock.mark()
    finally:
        clock.stop()
    assert len(clock.probes_ms()) > 2
    ((wall, _scaled),) = clock.intervals()
    # The sleep ends on time; the probes inside it are not counted.
    assert 0.05 < wall < 0.2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
