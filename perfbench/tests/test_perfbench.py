"""Self-test of the benchmark.

Run from the repository root::

    python -m pytest perfbench/tests -q

Most tests run the benchmark command in-process at smoke size (a few dozen
tasks per workload); ``test_steady_window_is_flat`` runs ``taps-steady`` at
full size on the reference seed and a held-out one (about a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import measure  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
NAMES = sorted(workloads.WORKLOADS)
REFERENCE_SEED, HELD_OUT_SEED = 7, 11


@pytest.fixture
def smoke(monkeypatch):
    """Shrink every workload to a few seconds of work."""
    sized = {
        name: replace(
            w,
            config=dict(w.config, num_tasks=12 if w.traced else 60),
            warmup=min(w.warmup, 20),
            faults=min(w.faults, 4),
            episodes=min(w.episodes, 2),
        )
        for name, w in workloads.WORKLOADS.items()
    }
    monkeypatch.setattr(workloads, "WORKLOADS", sized)
    monkeypatch.setattr(workloads, "AUDIT_EPISODES", 2)
    monkeypatch.setattr(workloads, "AUDIT_TASKS", 15)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def bench(capsys, workload: str, seed: int = REFERENCE_SEED, trace: int = 0):
    """Run the benchmark command; returns (exit code, diagnostics, result)."""
    code = run.main([
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2].startswith("perfbench: ")
    return code, json.loads(lines[-2][len("perfbench: "):]), json.loads(lines[-1])


def test_spec_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_are_emitted_with_units(smoke, capsys, workload):
    code, diag, result = bench(capsys, workload)
    assert code == 0 and result["correct"], diag["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == END_TO_END
    assert all(v["value"] > 0 for v in metrics.values()), metrics
    assert 0 < diag["host.wall_cpu_ratio"] and len(diag["outcome_digest"]) == 64
    assert diag["admit_window_samples"] >= 10


@pytest.mark.parametrize("workload", NAMES)
def test_per_layer_metrics_are_emitted_with_units(smoke, capsys, workload):
    code, diag, result = bench(capsys, workload, trace=1)
    assert code == 0 and result["correct"], diag["failures"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == PER_LAYER
    assert metrics["sim.events"]["value"] > 0
    assert metrics["trace.bytes"]["value"] > 0
    assert metrics["bench.layer_timing_overhead"]["value"] > 0
    taps = workloads.WORKLOADS[workload].scheduler == "taps"
    assert (metrics["core.path_calc_calls"]["value"] > 0) == taps
    if workloads.WORKLOADS[workload].faults:
        assert metrics["core.realloc_calls"]["value"] > 0


def _work_counters(metrics: dict) -> dict:
    """Every per-layer metric that is not a host time."""
    return {
        k: v["value"] for k, v in metrics.items()
        if not k.endswith("_s") and not k.startswith(("host.", "bench."))
    }


@pytest.mark.parametrize("workload", NAMES)
def test_exact_metrics_repeat_bit_for_bit(smoke, capsys, workload):
    runs = [bench(capsys, workload) for _ in range(2)]
    exact = ("task_completion_ratio", "app_throughput", "trace_mb")
    (_, d0, r0), (_, d1, r1) = runs
    assert d0["outcome_digest"] == d1["outcome_digest"]
    for name in exact:
        assert r0["metrics"][name] == r1["metrics"][name]
    layered = [bench(capsys, workload, trace=1)[2]["metrics"] for _ in range(2)]
    assert _work_counters(layered[0]) == _work_counters(layered[1])


def test_another_seed_gives_other_outcomes(smoke, capsys):
    _, d0, _ = bench(capsys, "taps-steady", seed=1)
    _, d1, _ = bench(capsys, "taps-steady", seed=2)
    assert d0["outcome_digest"] != d1["outcome_digest"]


def test_timings_are_scaled_by_the_probe_beside_them():
    """A repetition on a host running at half speed (its probe took twice
    the reference time) counts at half its CPU time."""
    ref = probe.PROBE_REF_S
    quiet = measure.Rep(run_cpu=2.0, probe=ref,
                        post=[[{"write": 0.1, "load": 0.3, "audit": 0.2}]])
    busy = measure.Rep(run_cpu=4.0, probe=2 * ref,
                       post=[[{"write": 0.2, "load": 0.6, "audit": 0.4}]])
    assert measure.scaled_run_cpu([quiet, busy, busy]) == pytest.approx(2.0)
    post = [sum(cycles, []) for cycles in zip(quiet.post, busy.post)]
    assert measure.scaled_post(post, [ref, 2 * ref]) == pytest.approx(0.6)


def test_probe_is_deterministic():
    assert probe.host_probe() == probe.host_probe()
    assert all(t > 0 for t in probe.probe_batch(2))


def test_steady_workloads_consume_identical_inputs():
    topo, hosts = workloads.build_network()
    taps, pdq = (
        workloads.generate_episodes(workloads.WORKLOADS[name], REFERENCE_SEED,
                                    topo, hosts)
        for name in ("taps-steady", "pdq-steady")
    )
    assert taps == pdq


def test_failed_check_fails_the_run(smoke, capsys, monkeypatch):
    monkeypatch.setattr(measure, "check_outcomes",
                        lambda *args: ["a task settled twice"])
    code, diag, result = bench(capsys, "taps-steady")
    assert code == 1 and not result["correct"] and result["failed"] >= 1
    assert "a task settled twice" in diag["failures"]


def test_audit_violation_fails_the_run(smoke, capsys, monkeypatch):
    report = SimpleNamespace(ok=False, summary=lambda: "exclusive-link")
    monkeypatch.setattr(measure, "audit_trace", lambda trace: report)
    code, diag, result = bench(capsys, "taps-burst-audit")
    assert code == 1 and not result["correct"] and result["failed"] >= 1
    assert any("exclusive-link" in f for f in diag["failures"])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "taps-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("seed", [REFERENCE_SEED, HELD_OUT_SEED])
def test_steady_window_is_flat(capsys, seed):
    """After the fixed warm-up, admission cost does not trend.  The exact
    measure, flows planned per admission, keeps the median of the window's
    second half within 15% of its first half's.  The CPU-time median must
    stay within 50%: host speed can swing that much within one run, while
    the burst's ramp, for contrast, more than triples."""
    code, diag, _ = bench(capsys, "taps-steady", seed=seed)
    assert code == 0
    assert diag["admit_window_samples"] == 900
    assert abs(diag["admit_window_work_trend"]) < 0.15, diag
    assert abs(diag["admit_window_trend"]) < 0.5, diag
