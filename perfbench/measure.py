"""One simulation of a workload, its correctness checks and its statistics.

Host time is read from the benchmark thread's CPU clock
(``time.thread_time``).  The process is single-threaded, so CPU time
equals wall time on a quiet box, and time spent waiting for a CPU is not
counted.  Slowdown from sharing the machine with other tenants is still
counted, so every timing is scaled by the host-speed probe taken next to
it (see ``probe``), and each is the median over several repetitions of
the input.  Wall time is kept only for the wall/CPU ratio that flags a
contended run.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.controller import TapsScheduler
from repro.metrics.summary import summarize
from repro.sched.pdq import PDQ
from repro.sim.engine import Engine
from repro.sim.state import TaskOutcome
from repro.trace import TraceRecorder, audit_trace, load_jsonl

from probe import PROBE_REF_S, probe_batch, scaled
from workloads import Episode, Workload

SCHEDULERS = {"taps": TapsScheduler, "pdq": PDQ}

POST_STEPS = ("write", "load", "audit")

PROBE_INTERVAL_S = 0.3
"""CPU seconds of simulation between two host-speed probes inside a run."""


def arrival_timed(base: type) -> type:
    """``base`` with the CPU time of every ``on_task_arrival`` call kept
    in ``arrival_cpu``, in admission order, and for TAPS the flows Alg. 2
    planned in that call (its work, exact) in ``arrival_work``.  Before an
    arrival that comes ``PROBE_INTERVAL_S`` of CPU after the last probe,
    outside the timed call, it runs a host-speed probe and keeps its CPU
    seconds in ``probes``."""

    class ArrivalTimed(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.arrival_cpu: list[float] = []
            self.arrival_work: list[int] = []
            self.probes: list[float] = []
            self.next_probe = 0.0

        def on_task_arrival(self, task_state, now):
            if time.thread_time() >= self.next_probe:
                self.probes += probe_batch(1)
                self.next_probe = time.thread_time() + PROBE_INTERVAL_S
            stats = getattr(self, "stats", None)
            planned = stats.flows_planned if stats is not None else 0
            t0 = time.thread_time()
            super().on_task_arrival(task_state, now)
            self.arrival_cpu.append(time.thread_time() - t0)
            if stats is not None:
                self.arrival_work.append(stats.flows_planned - planned)

    return ArrivalTimed


TIMED = {kind: arrival_timed(cls) for kind, cls in SCHEDULERS.items()}


class SettleCounter:
    """Engine hook counting how often each task is settled."""

    def __init__(self) -> None:
        self.settled: dict[int, int] = {}

    def on_task_settled(self, ts, now) -> None:
        tid = ts.task.task_id
        self.settled[tid] = self.settled.get(tid, 0) + 1


@dataclass
class Rep:
    """What one simulation of a workload's input produced, summed over
    its episodes.  Per episode, ``windows`` holds the CPU seconds of each
    admission in its steady-state window, ``work_windows`` the flows each
    of those admissions planned (empty for PDQ), and ``post`` the CPU
    seconds of each trace step, one dict per write/load/audit cycle.
    ``recorders`` keeps the episodes' traces for those cycles.  ``probes``
    holds the CPU seconds of the host-speed probes taken during the
    simulation (left out of ``run_cpu``), and ``probe`` is the median of
    those and of the probes taken before and after it, set by the caller."""

    run_cpu: float = 0.0
    run_wall: float = 0.0
    windows: list[list[float]] = field(default_factory=list)
    work_windows: list[list[int]] = field(default_factory=list)
    post: list[list[dict]] = field(default_factory=list)
    recorders: list = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    probe: float = PROBE_REF_S
    digests: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    tasks: int = 0
    tasks_completed: int = 0
    total_bytes: float = 0.0
    useful_bytes: float = 0.0
    counters: dict = field(default_factory=dict)
    trace_bytes: int = 0
    trace_events: int = 0
    trace_accept_bytes: int = 0
    post_cpu: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        """SHA-256 of the per-task outcomes of every episode."""
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()

    @property
    def exact(self) -> dict:
        """Decision-quality metrics: exact functions of the simulation."""
        return {
            "task_completion_ratio": self.tasks_completed / self.tasks,
            "app_throughput": self.useful_bytes / self.total_bytes,
        }

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def outcome_digest(task_states) -> str:
    """SHA-256 over every task's admission decision and final outcome."""
    h = hashlib.sha256()
    for ts in sorted(task_states, key=lambda t: t.task.task_id):
        h.update(f"{ts.task.task_id}:{ts.accepted}:{ts.outcome.value}\n".encode())
    return h.hexdigest()


def check_outcomes(result, sched, settle: SettleCounter) -> list[str]:
    """Every task settled exactly once and decided exactly once."""
    failures = []
    n = len(result.task_states)
    once = sum(1 for ts in result.task_states
               if settle.settled.get(ts.task.task_id) == 1)
    if once != n or len(settle.settled) != n:
        failures.append(f"{n - once} of {n} tasks not settled exactly once")
    if any(ts.outcome is TaskOutcome.PENDING for ts in result.task_states):
        failures.append("a task ended the run unsettled")
    accepted = sum(1 for ts in result.task_states if ts.accepted is True)
    rejected = sum(1 for ts in result.task_states if ts.accepted is False)
    if accepted + rejected != n:
        failures.append(f"accepted {accepted} + rejected {rejected} != {n} tasks")
    stats = getattr(sched, "stats", None)
    if stats is not None and (stats.tasks_accepted, stats.tasks_rejected) != (
        accepted, rejected
    ):
        failures.append(
            f"controller counted {stats.tasks_accepted}+{stats.tasks_rejected}"
            f" decisions, tasks record {accepted}+{rejected}"
        )
    return failures


def post_cycle(rep: Rep, out_dir: Path) -> None:
    """What ``run --trace`` plus ``audit`` add after the simulation, once
    for each of ``rep``'s recorded traces: write the trace, load it back
    and audit it.  The CPU seconds of each step go to ``rep.post``; an
    audit violation is a failure.  The first cycle also measures the
    trace's size."""
    path = out_dir / "trace.jsonl"
    first = not rep.post
    if first:
        rep.post = [[] for _ in rep.recorders]
    for recorder, cycles in zip(rep.recorders, rep.post):
        t0 = time.thread_time()
        recorder.to_jsonl(path)
        t1 = time.thread_time()
        loaded = load_jsonl(path)
        t2 = time.thread_time()
        report = audit_trace(loaded)
        t3 = time.thread_time()
        cycles.append({"write": t1 - t0, "load": t2 - t1, "audit": t3 - t2})
        if not report.ok:
            rep.failures.append("trace audit failed: " + report.summary())
        if loaded.truncated or len(loaded.events) != recorder.emitted:
            rep.failures.append("trace lost events between write and load")
        if first:
            with path.open("rb") as fh:
                for line in fh:
                    rep.trace_bytes += len(line)
                    if line.startswith(b'{"kind":"task-accept"'):
                        rep.trace_accept_bytes += len(line)
            rep.trace_events += recorder.emitted
        path.unlink()
    for step in POST_STEPS:
        rep.post_cpu[step] = sum(cycles[-1][step] for cycles in rep.post)


def run_episode(
    workload: Workload, inputs, episode: Episode, rep: Rep, out_dir: Path,
    sched, recorder,
) -> None:
    """Simulate one episode, check it, and add what it produced to ``rep``."""
    settle = SettleCounter()
    engine = Engine(
        inputs.topology, episode.tasks, sched, path_service=inputs.paths,
        hooks=(settle,), faults=episode.faults, trace=recorder,
    )
    gc.collect()
    w0 = time.perf_counter()
    c0 = time.thread_time()
    result = engine.run()
    c1 = time.thread_time()
    w1 = time.perf_counter()
    probes = getattr(sched, "probes", [])
    rep.probes += probes
    rep.run_cpu += c1 - c0 - sum(probes)
    rep.run_wall += w1 - w0 - sum(probes)
    rep.windows.append(getattr(sched, "arrival_cpu", [])[workload.warmup:])
    rep.work_windows.append(getattr(sched, "arrival_work", [])[workload.warmup:])
    rep.digests.append(outcome_digest(result.task_states))
    rep.failures += check_outcomes(result, sched, settle)
    m = summarize(result)
    rep.tasks += m.num_tasks
    rep.tasks_completed += m.tasks_completed
    rep.total_bytes += m.total_bytes
    rep.useful_bytes += m.useful_bytes
    rep.count("events", result.counters.events)
    rep.count("rate_recomputes", result.counters.rate_recomputes)
    rep.count("deadline_scan_skips", result.counters.deadline_scan_skips)
    if recorder is not None:
        rep.recorders.append(recorder)


def simulate(
    workload: Workload,
    inputs,
    out_dir: Path,
    make_sched=None,
    make_recorder=None,
    episodes: list[Episode] | None = None,
    keep_traces: bool = False,
) -> Rep:
    """Run every episode of the workload's input once, and put each
    recorded trace through one write/load/audit cycle.

    ``make_sched`` and ``make_recorder`` build each episode's scheduler and
    recorder; they default to the arrival-timed scheduler and, on a traced
    workload, a plain recorder.  The layer-timed run passes instrumented
    ones.  ``episodes`` replaces the workload's input (the audit pass).
    ``keep_traces`` keeps the recorders for more cycles; otherwise they
    are dropped after the first.
    """
    if make_sched is None:
        make_sched = TIMED[workload.scheduler]
    if make_recorder is None:
        make_recorder = TraceRecorder if workload.traced else (lambda: None)
    rep = Rep()
    for episode in inputs.episodes if episodes is None else episodes:
        run_episode(workload, inputs, episode, rep, out_dir,
                    make_sched(), make_recorder())
    if rep.recorders:
        post_cycle(rep, out_dir)
        if not keep_traces:
            rep.recorders = []
    return rep


def audit_pass(workload: Workload, inputs, out_dir: Path, make_recorder=None) -> Rep:
    """The decision trace of an untraced workload, for the trace metrics
    and the audit check: a traced run of its audit input, written, loaded
    and audited.  Its traces are kept for more cycles (:func:`post_cycle`)."""
    return simulate(
        workload, inputs, out_dir,
        make_recorder=make_recorder or TraceRecorder,
        episodes=inputs.audit_episodes, keep_traces=True,
    )


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def window_trend(window: list[float]) -> float:
    """Relative change of the median cost from the first to the second
    half of the window (0 = flat)."""
    half = len(window) // 2
    return statistics.median(window[half:]) / statistics.median(window[:half]) - 1.0


def scaled_run_cpu(reps: list[Rep]) -> float:
    """CPU seconds of one simulation of the input on the reference host:
    the median over the repetitions."""
    return statistics.median(scaled(r.run_cpu, r.probe) for r in reps)


def scaled_post(post: list[list[dict]], probes: list[float]) -> float:
    """CPU seconds of one write/load/audit cycle over every recorded trace
    on the reference host.  ``post`` holds each trace's cycles, and cycle
    ``c`` of every trace ran next to ``probes[c]``; each step of each
    trace is the median over its cycles."""
    return sum(
        statistics.median(scaled(c[step], p) for c, p in zip(cycles, probes))
        for cycles in post for step in POST_STEPS
    )


def steady_window(reps: list[Rep], attr: str = "windows") -> list:
    """The steady-state window of the input, one value per admission.

    For each episode and admission index, the median over the repetitions
    of its CPU seconds on the reference host strips host noise (the work
    of one index is the same in every repetition); ``attr="work_windows"``
    takes the flows planned, which do not vary.  Across the burst's
    episodes, the median at each position of the ramp is taken, the
    typical cost there instead of one burst's luck."""

    def value(x, rep: Rep) -> float:
        return scaled(x, rep.probe) if attr == "windows" else x

    episodes = [
        [statistics.median(value(x, r) for x, r in zip(xs, reps))
         for xs in zip(*per_rep)]
        for per_rep in zip(*(getattr(r, attr) for r in reps))
    ]
    return [statistics.median(xs) for xs in zip(*episodes)]
