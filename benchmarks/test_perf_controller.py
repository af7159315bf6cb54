"""Controller benchmark: speedup AND bit-identical decisions.

Runs one frozen arrival-heavy workload (64 hosts of a k=8 fat-tree, Poisson
arrivals, ~4.4k flows) through the TAPS controller twice — the production
allocator (segment cache + fused pair-scan candidate evaluation) and the
reference allocator of :mod:`tests.reference_taps` (per-candidate union
fold + complement + fit) — and asserts:

1. **Equivalence**: the two runs make the *same decisions* — the decision
   traces (:mod:`repro.trace`) serialize to byte-identical JSONL (same
   accept/reject/preempt sequence, same victims, float-identical plans at
   every commit), and both traces pass the schedule invariant auditor.
2. **Speedup**: at full scale, controller time (admission + reallocation,
   measured around the scheduler callbacks) improves by >= 2x.

A third production run with a :class:`~repro.obs.registry.MetricsRegistry`
attached must also trace byte-identically — telemetry is observational
only — and its controller-time overhead versus the untelemetered run is
recorded in the JSON (not gated; timing ratios are too noisy on shared
runners).

The measured record is written to ``benchmarks/results/perf_controller*.json``
(workload, timings, profile counters, speedups) for EXPERIMENTS.md and the
CI artifact.

``REPRO_PERF_SCALE=smoke`` (CI) shrinks the workload to seconds and skips
the speedup floor — shared runners are too noisy to gate on a timing ratio —
while still asserting decision equivalence and emitting the JSON.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.controller import TapsScheduler
from repro.net.fattree import FatTree
from repro.net.paths import PathService
from repro.obs.export import TELEMETRY_SCHEMA_VERSION
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine
from repro.trace import TraceRecorder, audit_trace
from repro.workload.generator import WorkloadConfig, generate_workload
from tests.reference_taps import ReferenceTaps

SCALES = {
    # ~2.5 min total (reference run dominates); the scale where the fast
    # path's asymptotic advantages are fully visible (several hundred
    # in-flight flows per arrival)
    "full": dict(num_tasks=180, arrival_rate=2200.0, mean_deadline=0.38,
                 mean_flow_size=300_000.0, mean_flows_per_task=25.0),
    # ~2 s total; same shape, CI-friendly
    "smoke": dict(num_tasks=40, arrival_rate=700.0, mean_deadline=0.15,
                  mean_flow_size=400_000.0, mean_flows_per_task=10.0),
}
SEED = 7
HOSTS_USED = 64
MAX_PATHS = 8


class _Timed:
    """Controller-time stopwatch, mixed into a TAPS scheduler class.

    ``controller_seconds`` sums wall time spent inside admission, the
    honest "controller cost" (path calculation + trial ledger management
    + reject rule).  Decisions are captured by the shared
    :class:`~repro.trace.recorder.TraceRecorder` instead of ad-hoc
    subclass hooks — the trace events carry float-exact plan snapshots,
    so comparing serialized traces proves two runs scheduled identically.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.controller_seconds = 0.0

    def on_task_arrival(self, task_state, now):
        t0 = time.perf_counter()
        try:
            super().on_task_arrival(task_state, now)
        finally:
            self.controller_seconds += time.perf_counter() - t0


class _TimedScheduler(_Timed, TapsScheduler):
    """Production TAPS with the stopwatch."""


class _TimedReference(_Timed, ReferenceTaps):
    """Reference-allocator TAPS with the stopwatch."""


def _workload(scale: dict):
    topo = FatTree(k=8)
    hosts = list(topo.hosts)[:HOSTS_USED]
    cfg = WorkloadConfig(seed=SEED, **scale)
    return topo, generate_workload(cfg, hosts)


def _run(topo, tasks, fast: bool, telemetry: MetricsRegistry | None = None):
    sched = _TimedScheduler() if fast else _TimedReference()
    paths = PathService(topo, max_paths=MAX_PATHS)
    recorder = TraceRecorder()
    t0 = time.perf_counter()
    result = Engine(topo, tasks, sched, path_service=paths,
                    trace=recorder, telemetry=telemetry).run()
    wall = time.perf_counter() - t0
    audit = audit_trace(recorder)
    assert audit.ok, audit.summary()
    return {
        "wall_seconds": wall,
        "controller_seconds": sched.controller_seconds,
        "trace_jsonl": recorder.dumps(),
        "trace_events": recorder.emitted,
        "audit_ok": audit.ok,
        "stats": {
            "tasks_accepted": sched.stats.tasks_accepted,
            "tasks_rejected": sched.stats.tasks_rejected,
            "tasks_preempted": sched.stats.tasks_preempted,
            "reallocations": sched.stats.reallocations,
            "flows_planned": sched.stats.flows_planned,
        },
        "profile": sched.stats.profile.as_dict(),
        "flows": [
            (fs.flow.flow_id, fs.remaining, fs.met_deadline)
            for fs in result.flow_states
        ],
        "tasks": [
            (ts.task.task_id, str(ts.outcome)) for ts in result.task_states
        ],
    }


def test_perf_controller(results_dir):
    scale_name = os.environ.get("REPRO_PERF_SCALE", "full")
    scale = SCALES[scale_name]
    topo, tasks = _workload(scale)

    fast = _run(topo, tasks, fast=True)
    slow = _run(topo, tasks, fast=False)
    registry = MetricsRegistry()
    telemetered = _run(topo, tasks, fast=True, telemetry=registry)

    # 1. bit-identical scheduling: the serialized decision traces match
    # byte for byte (same decision sequence, same victims, float-identical
    # plans), and the end-of-run flow/task outcomes agree.  The
    # telemetered run proves instrumentation is observational only.
    assert fast["trace_jsonl"] == slow["trace_jsonl"]
    assert fast["trace_jsonl"] == telemetered["trace_jsonl"]
    assert fast["flows"] == slow["flows"]
    assert fast["tasks"] == slow["tasks"]
    assert fast["stats"] == slow["stats"]
    assert telemetered["stats"] == fast["stats"]
    hist = registry.get("controller/admission_latency_seconds")
    decisions = (telemetered["stats"]["tasks_accepted"]
                 + telemetered["stats"]["tasks_rejected"])
    assert hist is not None and hist.count == decisions

    speedup_controller = slow["controller_seconds"] / fast["controller_seconds"]
    speedup_wall = slow["wall_seconds"] / fast["wall_seconds"]
    speedup_pc = (
        slow["profile"]["path_calculation_seconds"]
        / fast["profile"]["path_calculation_seconds"]
    )

    telemetry_overhead = (
        telemetered["controller_seconds"] / fast["controller_seconds"] - 1.0
    )

    record = {
        "scale": scale_name,
        "telemetry_schema": TELEMETRY_SCHEMA_VERSION,
        "workload": {**scale, "seed": SEED, "hosts_used": HOSTS_USED,
                     "topology": "fattree-k8", "max_paths": MAX_PATHS,
                     "num_flows": sum(len(t.flows) for t in tasks)},
        "decisions_identical": True,
        "trace_events": fast["trace_events"],
        "audit_ok": fast["audit_ok"] and slow["audit_ok"],
        "fast": {k: fast[k] for k in
                 ("wall_seconds", "controller_seconds", "stats", "profile")},
        "slow": {k: slow[k] for k in
                 ("wall_seconds", "controller_seconds", "stats", "profile")},
        "speedup": {
            "controller": round(speedup_controller, 3),
            "wall": round(speedup_wall, 3),
            "path_calculation": round(speedup_pc, 3),
        },
        "telemetry": {
            # enabled-vs-disabled on the identical production workload;
            # recorded, not gated — shared runners are too noisy
            "controller_seconds": telemetered["controller_seconds"],
            "overhead_vs_disabled": round(telemetry_overhead, 4),
            "admission_p50_seconds": hist.quantile(0.5),
            "admission_p99_seconds": hist.quantile(0.99),
        },
    }
    suffix = "" if scale_name == "full" else f"_{scale_name}"
    out = results_dir / f"perf_controller{suffix}.json"
    out.write_text(json.dumps(record, indent=1))
    if os.environ.get("REPRO_PERF_HISTORY"):
        # opt-in: append to the cross-run store that `repro-taps diff`
        # reads, so regressions can be tracked across commits
        from repro.obs.diffing import append_history

        hist = append_history(record, results_dir / "history",
                              name=f"perf_controller{suffix}")
        print(f"\nhistory record -> {hist}")
    print(f"\nperf record -> {out}\n"
          f"controller {speedup_controller:.2f}x  wall {speedup_wall:.2f}x  "
          f"path_calculation {speedup_pc:.2f}x  "
          f"telemetry overhead {telemetry_overhead:+.1%}")

    if scale_name == "full":
        # the acceptance floor: >= 2x on controller time at the frozen
        # arrival-heavy workload (smoke scale skips it: CI runners are
        # too noisy to gate on a wall-clock ratio)
        assert speedup_controller >= 2.0, record["speedup"]
