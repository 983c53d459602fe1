"""Smoke test of run.py on shortened horizons.

Runs every workload for 0.2 simulated seconds, untraced and traced, and
checks the result line against BENCHMARK.json and the per-layer activity
that NOTES.md predicts.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--horizon-s", "0.2"],
        capture_output=True, text=True, cwd=root, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_and_positive(workload):
    proc = run_bench(workload, 0)
    metrics = result_of(proc)["metrics"]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0
        assert spec["name"] in proc.stdout
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert "fail_frac" in proc.stdout and "fast_err_pkts" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_shows_predicted_layer_activity(workload):
    metrics = {k: v["value"] for k, v in result_of(run_bench(workload, 1))["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["engine.ticks"] == 2001
    assert metrics["history.record_calls"] > 0
    assert "trace.overhead_frac" in metrics
    if workload == "squarewave":
        assert metrics["user.step_calls"] == metrics["protocol.fast_wdot_calls"] == 0
    if workload == "fast_pair_offgrid":
        assert metrics["history.eval_at_calls"] > 0
        assert metrics["protocol.fast_wdot_calls"] > 0
    else:
        assert metrics["history.eval_at_calls"] == 0
        assert metrics["oracle.packet_events"] > 0


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("squarewave", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_clock_leaves_out_its_calibrations_and_restores_sigalrm():
    import signal
    sys.path.insert(0, str(HERE))
    from hostclock import HostClock

    before = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        t0 = clock.now()
        while len(clock.calibrations) < 4:   # the entry calibration and three more
            pass
        work_s = clock.now() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.0 < clock.paused_s and 0.0 < work_s
    assert clock.scale() > 0.0
