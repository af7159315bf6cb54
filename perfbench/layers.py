"""The layer-timed run: CPU time and work counts at each layer boundary.

Spans are recorded from the benchmark's own files only, around the calls
into each layer:

* ``repro.core`` — the TAPS scheduler's ``on_task_arrival`` (admission) and
  ``on_link_state_change`` (fault reallocation), plus
  ``repro.core.controller.path_calculation`` (Alg. 2) and
  ``OccupancyLedger.commit`` / ``rollback_trial``, patched for the
  duration of one run in this process only;
* ``repro.sched`` — the other callbacks of the ``Scheduler`` contract;
* ``repro.sim`` — ``Engine.run``, whose self time is what remains after
  every scheduler callback;
* ``repro.trace`` — ``TraceRecorder.emit`` through a subclass.

Work counters come from the public ``sched.stats``,
``stats.profile.as_dict()`` and ``result.counters``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import repro.core.controller as controller
from repro.core.occupancy import OccupancyLedger
from repro.core.controller import TapsScheduler
from repro.obs.hotpath import HotPathCounters
from repro.trace import TraceRecorder

from measure import SCHEDULERS


class Clock:
    """Accumulated CPU seconds and call counts per span name."""

    def __init__(self) -> None:
        self.cpu: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.ftmp_flows = 0
        self.in_admission = False

    def add(self, name: str, dt: float) -> None:
        self.cpu[name] += dt
        self.calls[name] += 1


def _timed(name: str, method):
    def wrapper(self, *args):
        t0 = time.thread_time()
        try:
            return method(self, *args)
        finally:
            self.clock.add(name, time.thread_time() - t0)

    return wrapper


def layered(kind: str, clock: Clock) -> type:
    """A scheduler class of ``kind`` whose contract callbacks charge
    ``clock``."""
    base = SCHEDULERS[kind]
    arrival = "core.admit" if issubclass(base, TapsScheduler) else "sched.arrival"

    class Layered(base):
        on_link_state_change = _timed(
            "core.realloc", base.on_link_state_change
        )
        assign_rates = _timed("sched.assign_rates", base.assign_rates)
        next_change = _timed("sched.next_change", base.next_change)
        on_flow_completed = _timed("sched.completion", base.on_flow_completed)
        on_deadline_expired = _timed(
            "sched.deadline", base.on_deadline_expired
        )

        def on_task_arrival(self, task_state, now):
            self.clock.in_admission = True
            t0 = time.thread_time()
            try:
                super().on_task_arrival(task_state, now)
            finally:
                self.clock.add(arrival, time.thread_time() - t0)
                self.clock.in_admission = False

    Layered.clock = clock
    return Layered


class TimedRecorder(TraceRecorder):
    """A recorder that charges each ``emit`` to ``trace.emit``."""

    __slots__ = ("clock",)

    def __init__(self, clock: Clock) -> None:
        super().__init__()
        self.clock = clock

    def emit(self, event):
        t0 = time.thread_time()
        try:
            return super().emit(event)
        finally:
            self.clock.add("trace.emit", time.thread_time() - t0)


@contextmanager
def core_spans(clock: Clock):
    """Time Alg. 2 and the occupancy ledger for the duration of a run."""
    path_calculation = controller.path_calculation
    commit = OccupancyLedger.commit
    rollback_trial = OccupancyLedger.rollback_trial

    def timed_path_calculation(flows, *args, **kwargs):
        clock.ftmp_flows += len(flows)
        t0 = time.thread_time()
        try:
            return path_calculation(flows, *args, **kwargs)
        finally:
            dt = time.thread_time() - t0
            clock.add("core.path_calc", dt)
            if clock.in_admission:
                clock.add("core.path_calc_in_admit", dt)

    def timed_commit(self, path, slices):
        t0 = time.thread_time()
        try:
            return commit(self, path, slices)
        finally:
            clock.add("core.ledger_commit", time.thread_time() - t0)

    def counted_rollback(self):
        clock.calls["core.rollback"] += 1
        return rollback_trial(self)

    controller.path_calculation = timed_path_calculation
    OccupancyLedger.commit = timed_commit
    OccupancyLedger.rollback_trial = counted_rollback
    try:
        yield
    finally:
        controller.path_calculation = path_calculation
        OccupancyLedger.commit = commit
        OccupancyLedger.rollback_trial = rollback_trial


CALLBACKS = (
    "core.admit", "core.realloc", "sched.arrival", "sched.assign_rates",
    "sched.next_change", "sched.completion", "sched.deadline",
)


def _stats(scheds) -> tuple[dict, dict]:
    """Decision counters and the hot-path profile, summed over episodes."""
    stats: dict[str, int] = defaultdict(int)
    profile = HotPathCounters()
    for sched in scheds:
        s = getattr(sched, "stats", None)
        if s is None:
            continue
        for name in ("tasks_accepted", "tasks_rejected", "tasks_preempted",
                     "flows_planned"):
            stats[name] += getattr(s, name)
        profile.merge(s.profile)
    return stats, profile.as_dict()


def layer_metrics(
    clock: Clock, scheds, rep, trace_clock: Clock, trace_rep
) -> dict[str, float]:
    """Per-layer metrics of one layer-timed run (times in CPU seconds).

    The ``trace.*`` metrics come from ``trace_rep``/``trace_clock``: the
    run itself on a traced workload, the audit pass on an untraced one.
    """
    cpu, calls = clock.cpu, clock.calls
    stats, profile = _stats(scheds)
    decisions = stats["tasks_accepted"] + stats["tasks_rejected"]
    pc_calls = calls["core.path_calc"]
    out = {
        "core.admit_cpu_s": cpu["core.admit"],
        "core.admit_calls": calls["core.admit"],
        "core.ftmp_flows_mean": clock.ftmp_flows / pc_calls if pc_calls else 0.0,
        "core.path_calc_cpu_s": cpu["core.path_calc"],
        "core.path_calc_calls": pc_calls,
        "core.self_cpu_s": cpu["core.admit"] - cpu["core.path_calc_in_admit"],
        "core.flows_planned": stats["flows_planned"],
        "core.candidates_evaluated": profile["candidates_evaluated"],
        "core.prune_rate": profile["prune_rate"],
        "core.union_cache_hit_rate": profile["union_cache_hit_rate"],
        "core.intervals_scanned": profile["intervals_scanned"],
        "core.ledger_commit_cpu_s": cpu["core.ledger_commit"],
        "core.ledger_commit_calls": calls["core.ledger_commit"],
        "core.trials_rolled_back": calls["core.rollback"],
        "core.accept_ratio": (
            stats["tasks_accepted"] / decisions if decisions else 0.0
        ),
        "core.tasks_preempted": stats["tasks_preempted"],
        "core.realloc_cpu_s": cpu["core.realloc"],
        "core.realloc_calls": calls["core.realloc"],
        "sched.assign_rates_cpu_s": cpu["sched.assign_rates"],
        "sched.assign_rates_calls": calls["sched.assign_rates"],
        "sched.next_change_cpu_s": cpu["sched.next_change"],
        "sched.next_change_calls": calls["sched.next_change"],
        "sched.completion_cpu_s": cpu["sched.completion"] + cpu["sched.deadline"],
        "sched.arrival_cpu_s": cpu["sched.arrival"],
        "sim.run_cpu_s": rep.run_cpu,
        "sim.self_cpu_s": rep.run_cpu - sum(cpu[name] for name in CALLBACKS),
        "sim.events": rep.counters["events"],
        "sim.rate_recomputes": rep.counters["rate_recomputes"],
        "sim.deadline_scan_skips": rep.counters["deadline_scan_skips"],
        "trace.events": trace_rep.trace_events,
        "trace.bytes": trace_rep.trace_bytes,
        "trace.accept_bytes_share": (
            trace_rep.trace_accept_bytes / trace_rep.trace_bytes
        ),
        "trace.emit_cpu_s": trace_clock.cpu["trace.emit"],
        "trace.write_cpu_s": trace_rep.post_cpu["write"],
        "trace.load_cpu_s": trace_rep.post_cpu["load"],
        "trace.audit_cpu_s": trace_rep.post_cpu["audit"],
    }
    if calls["core.rollback"] != profile["trials_rolled_back"]:
        rep.failures.append(
            f"ledger rolled back {calls['core.rollback']} trials, profile "
            f"counted {profile['trials_rolled_back']}"
        )
    return out
