"""The fluid simulation engine.

Time advances from event to event; between events every flow's rate is
constant, so progress integrates exactly.  Event kinds:

* **task arrival** — the scheduler admits/rejects and (re)allocates;
* **flow completion** — earliest ``remaining / rate`` among active flows;
* **deadline expiry** — the scheduler reacts (quit, kill, or ignore);
* **scheduler change point** — e.g. a TAPS time-slice boundary.

The engine never decides policy: admission, routing, rates, and reactions
to deadline misses all live in the attached
:class:`~repro.sched.base.Scheduler`.

Performance: rates are recomputed only when the allocation is *dirty*
(arrival / completion / kill / scheduler change point).  Between
recomputes only the *transmitting* flows (rate > 0) can progress or
finish, so integration, the completion minimum and the completion test
walk that list alone; deadlines sit in a lazily pruned heap, and only the
tasks a status change touched are checked for settlement.  Per event the
in-flight list itself is filtered once, at the rate recompute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush
from operator import itemgetter

from repro.net.paths import PathService
from repro.net.topology import Topology
from repro.sim.state import FlowState, FlowStatus, TaskState, TaskOutcome
from repro.trace.events import (
    DeadlineExpired,
    FlowCompleted,
    LinkStateChange,
    RunEnd,
    SliceEnd,
    SliceStart,
    TaskArrival,
)
from repro.trace.recorder import TraceRecorder
from repro.util.errors import SimulationError
from repro.util.intervals import EPS
from repro.workload.flow import Task

BYTES_REL_EPS = 1e-5
"""A flow is complete when its residue drops below this fraction of its
size.  The residue comes from two sources: float rounding in ``rate * dt``
integration (~1e-16 relative) and the ±EPS slice-edge probing of the TAPS
sender model (≤ a few bytes on a 200 KB flow, ~1e-5 relative)."""

BYTES_ABS_EPS = 1e-9
"""Absolute floor of the completion tolerance, for unit-sized toy flows."""


def _done(remaining: float, size: float) -> bool:
    return remaining <= max(BYTES_ABS_EPS, BYTES_REL_EPS * size)


# hot loops compare against a module constant: attribute lookup on the
# enum class costs more than the identity test itself
_PENDING = FlowStatus.PENDING


@dataclass(slots=True)
class EngineCounters:
    """Work counters for benchmarking the simulation itself."""

    events: int = 0
    arrivals: int = 0
    completions: int = 0
    deadline_events: int = 0
    rate_recomputes: int = 0
    stalled_kills: int = 0
    deadline_scan_skips: int = 0
    """Events where no in-flight flow's deadline was due, so the expiry
    step only peeked at the deadline heap."""


@dataclass(slots=True)
class SimulationResult:
    """Everything a run produced, for the metrics layer to digest."""

    scheduler_name: str
    topology_name: str
    flow_states: list[FlowState]
    task_states: list[TaskState]
    finished_at: float
    counters: EngineCounters = field(default_factory=EngineCounters)

    @property
    def tasks_completed(self) -> int:
        return sum(1 for ts in self.task_states if ts.outcome is TaskOutcome.COMPLETED)

    @property
    def flows_met(self) -> int:
        return sum(1 for fs in self.flow_states if fs.met_deadline)


class Engine:
    """Runs one workload under one scheduler on one topology.

    Parameters
    ----------
    topology:
        The network; paths come from ``path_service`` (constructed with
        defaults when omitted).
    tasks:
        Workload; any order (sorted internally by arrival, then id).
    scheduler:
        A :class:`~repro.sched.base.Scheduler`; :meth:`run` attaches it.
    path_service:
        Shared path cache; pass one when sweeping many runs on a topology.
    hooks:
        Objects with optional ``on_advance(t0, t1, flows)``,
        ``on_flow_settled(fs, now)``, ``on_task_settled(ts, now)``
        callbacks (see :mod:`repro.metrics.timeseries`).  ``flows`` holds
        every flow transmitting over ``[t0, t1)`` (rate > 0), in arrival
        order; it may also hold flows whose rate is 0.
    max_events:
        Safety valve against runaway loops; ``SimulationError`` when hit.
    horizon:
        Optional hard stop (seconds): at this time every still-active
        flow is terminated and the run settles.  Useful for fixed-window
        measurements of deadline-oblivious policies whose doomed flows
        would otherwise run long past every deadline.
    trace:
        Optional :class:`~repro.trace.recorder.TraceRecorder`.  The
        engine emits the physical timeline (arrivals, slice
        transitions after down-link zeroing, completions, deadline
        expiries, link-state changes, run end) into it, and — when the
        scheduler supports tracing but was built without a recorder —
        hands the same recorder to the scheduler before ``attach`` so
        controller decisions and engine facts interleave in one stream.
    telemetry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  The
        engine opens a ``run`` span over the whole simulation with
        ``arrival``/``rates`` phase spans nested inside (scheduler spans
        nest further, e.g. ``span/run/arrival/admission``), tracks the
        ``engine/active_flows`` gauge, auto-attaches a
        :class:`~repro.metrics.linkload.LinkLoadCollector` hook (reusing
        a caller-supplied one), and at end of run publishes its work
        counters, per-link ``net/link_utilization`` /
        ``net/link_peak_utilization`` gauges, and the scheduler's own
        telemetry (via ``publish_telemetry``, when the scheduler has
        one).  Like ``trace``, the registry is handed to a
        telemetry-capable scheduler before ``attach``.  Telemetry never
        feeds back into decisions, so traces stay byte-identical with it
        on or off.
    """

    def __init__(
        self,
        topology: Topology,
        tasks: list[Task],
        scheduler,
        path_service: PathService | None = None,
        hooks: tuple = (),
        max_events: int = 10_000_000,
        faults=None,
        horizon: float | None = None,
        trace: TraceRecorder | None = None,
        telemetry=None,
    ) -> None:
        from repro.sim.faults import FaultSchedule

        self.topology = topology
        self.path_service = path_service or PathService(topology)
        self.scheduler = scheduler
        self.hooks = hooks
        self.max_events = max_events
        if horizon is not None and horizon <= 0:
            raise SimulationError("horizon must be positive")
        self.horizon = horizon
        if faults is None:
            self.faults = FaultSchedule([])
        elif isinstance(faults, FaultSchedule):
            self.faults = faults
        else:
            self.faults = FaultSchedule(list(faults))

        self._arrivals: list[TaskState] = []
        self.flow_states: list[FlowState] = []
        self.task_states: list[TaskState] = []
        for task in sorted(tasks, key=lambda t: (t.arrival, t.task_id)):
            ts = TaskState(task=task)
            ts.flow_states = [FlowState(flow=f) for f in task.flows]
            self._arrivals.append(ts)
            self.task_states.append(ts)
            self.flow_states.extend(ts.flow_states)
        self._task_by_id = {ts.task.task_id: ts for ts in self.task_states}
        self.counters = EngineCounters()
        self.trace = trace
        self.telemetry = telemetry
        self._tel_linkload = None
        if telemetry is not None and getattr(telemetry, "enabled", True):
            # lazy import: repro.metrics.summary imports this module back
            from repro.metrics.linkload import LinkLoadCollector

            for hook in self.hooks:
                if isinstance(hook, LinkLoadCollector):
                    self._tel_linkload = hook
                    break
            else:
                self._tel_linkload = LinkLoadCollector(topology)
                self.hooks = (*self.hooks, self._tel_linkload)
        # flow_id -> (path, task_id) of flows physically transmitting now;
        # diffed against the post-recompute picture to emit slice events
        self._open_slices: dict[int, tuple[tuple[int, ...], int]] = {}

        # -- loop state, advanced by the event phases of run() --
        self._now = 0.0
        self._next_arrival = 0
        self._dirty = True
        self._arrived = False
        self._down_links: set[int] = set()
        self._t_sched: float | None = None
        # pending flows in flight, in arrival order (the order completions
        # and deadline notifications fire in)
        self._active: list[FlowState] = []
        # the in-flight flows with a positive rate since the last rate
        # recompute: the only ones that can progress or finish
        self._transmitting: list[FlowState] = []
        # flows the scheduler stopped during this event, after the
        # in-flight list was last filtered; they leave at the settle step
        self._killed: list[FlowState] = []
        # (deadline, arrival sequence, flow) of every in-flight flow whose
        # deadline has not passed; stopped flows are pruned lazily
        self._deadlines: list[tuple[float, int, FlowState]] = []
        self._seq = 0
        # task ids whose flows changed status during this event
        self._touched: set[int] = set()

    # -- main loop -----------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the simulation to quiescence and return the result.

        Single-shot: flow/task states are consumed by the run, so a second
        ``run()`` on the same engine raises — build a fresh Engine (state
        construction is cheap; workloads are immutable and reusable).

        Each event runs the phase methods in step order: arrivals (1),
        deadline expiries (2), link-state changes (2b), rate recompute
        (3), next event time (4), integration (5), completions and task
        settlement (6).
        """
        if getattr(self, "_ran", False):
            raise SimulationError(
                "Engine.run() is single-shot; construct a new Engine to replay"
            )
        self._ran = True
        sched = self.scheduler
        trace = self.trace
        if trace is not None and getattr(sched, "trace", False) is None:
            # the scheduler supports tracing but has no recorder: share ours
            # (must happen before attach — that's where meta is stamped)
            sched.trace = trace
        tel = self.telemetry
        if tel is not None and getattr(sched, "telemetry", False) is None:
            # same handoff for telemetry: a telemetry-capable scheduler
            # built without a registry records into ours
            sched.telemetry = tel
        sched.attach(self.topology, self.path_service)
        run_span = None
        self._active_gauge = None
        if tel is not None:
            tel.set_meta(
                topology=self.topology.name,
                num_tasks=len(self.task_states),
            )
            self._active_gauge = tel.gauge("engine/active_flows")
            run_span = tel.spans.span("run")
            run_span.__enter__()
        self._on_advance = _callbacks(self.hooks, "on_advance")
        self._on_flow_settled = _callbacks(self.hooks, "on_flow_settled")
        self._on_task_settled = _callbacks(self.hooks, "on_task_settled")

        counters = self.counters
        horizon = self.horizon
        while True:
            counters.events += 1
            if counters.events > self.max_events:
                raise SimulationError(
                    f"exceeded max_events={self.max_events} at t={self._now:g}"
                )
            if horizon is not None and self._now >= horizon - EPS:
                self._terminate(stalled=False)
                break
            self._deliver_arrivals()
            self._expire_deadlines()
            if self.faults:
                self._apply_link_state()
            if self._dirty:
                self._recompute_rates()
            if self._active_gauge is not None:
                self._active_gauge.set(len(self._active) + len(self._killed))
            t_next = self._next_event_time()
            if not math.isfinite(t_next):
                # Nothing will ever happen again.  Any still-active flow is
                # stalled (rate 0 forever): kill it so the run terminates.
                self._terminate(stalled=True)
                break
            # guard against zero-length steps looping forever
            self._advance_to(max(t_next, self._now))
            self._settle()

        now = self._now
        if trace is not None:
            self._flush_slices(now)
            trace.emit(RunEnd(now))
        if run_span is not None:
            run_span.__exit__(None, None, None)
        if tel is not None:
            self._publish_telemetry(tel, now)
        return SimulationResult(
            scheduler_name=getattr(sched, "name", type(sched).__name__),
            topology_name=self.topology.name,
            flow_states=self.flow_states,
            task_states=self.task_states,
            finished_at=now,
            counters=counters,
        )

    # -- event phases ----------------------------------------------------------

    def _deliver_arrivals(self) -> None:
        """Step 1: hand every task due now to the scheduler.  Flows still
        pending after admission join the in-flight list (in arrival
        order) and the deadline heap."""
        self._arrived = False
        arrivals = self._arrivals
        i = self._next_arrival
        now = self._now
        while i < len(arrivals) and arrivals[i].task.arrival <= now + EPS:
            ts = arrivals[i]
            i += 1
            self.counters.arrivals += 1
            if self.trace is not None:
                self.trace.emit(TaskArrival(
                    now,
                    task_id=ts.task.task_id,
                    deadline=ts.task.deadline,
                    num_flows=len(ts.task.flows),
                    total_bytes=ts.task.total_size,
                ))
            if self.telemetry is None:
                self.scheduler.on_task_arrival(ts, now)
            else:
                with self.telemetry.spans.span("arrival"):
                    self.scheduler.on_task_arrival(ts, now)
            self._touched.add(ts.task.task_id)
            for fs in ts.flow_states:
                if fs.status is _PENDING:
                    self._active.append(fs)
                    heappush(self._deadlines, (fs.flow.deadline, self._seq, fs))
                    self._seq += 1
            self._arrived = self._dirty = True
        self._next_arrival = i

    def _expire_deadlines(self) -> None:
        """Step 2: notify the scheduler of every pending flow whose
        deadline has passed unfinished, in arrival order, then drop flows
        that arrivals or notifications stopped from the in-flight list.

        The deadline heap holds one entry per in-flight flow; entries of
        flows that have stopped are pruned lazily when they reach the top,
        and an entry whose deadline is due leaves for good, so a flow is
        notified at most once.  Most events only peek at the heap.
        """
        heap = self._deadlines
        while heap and heap[0][2].status is not _PENDING:
            heappop(heap)
        limit = self._now + EPS
        if not heap or heap[0][0] > limit:
            self.counters.deadline_scan_skips += 1
            if self._arrived:
                self._filter_active()  # admission may have preempted victims
            return
        due = []
        while heap and heap[0][0] <= limit:
            due.append(heappop(heap))
        due.sort(key=itemgetter(1))  # in-flight (arrival) order
        sched = self.scheduler
        trace = self.trace
        now = self._now
        for _, _, fs in due:
            if fs.status is not _PENDING or _done(fs.remaining, fs.flow.size):
                # stopped, or already (numerically) complete: a flow that
                # arrived inside the tolerance settles as a completion
                # this same event
                continue
            self.counters.deadline_events += 1
            if trace is not None:
                trace.emit(DeadlineExpired(
                    now, flow_id=fs.flow.flow_id, task_id=fs.flow.task_id,
                ))
            sched.on_deadline_expired(fs, now)
            if fs.status is not _PENDING:
                self._dirty = True
        self._filter_active()

    def _filter_active(self) -> list[FlowState]:
        """Drop stopped flows from the in-flight list and return them;
        their tasks are settled at the end of the event."""
        active = self._active
        live = [fs for fs in active if fs.status is _PENDING]
        if len(live) == len(active):
            return []
        stopped = [fs for fs in active if fs.status is not _PENDING]
        for fs in stopped:
            self._touched.add(fs.flow.task_id)
        self._active = live
        return stopped

    def _apply_link_state(self) -> None:
        """Step 2b: on a fault transition, notify the scheduler; transmission
        across down links stops in :meth:`_recompute_rates`."""
        now = self._now
        current_down = self.faults.down_links(now)
        if current_down == self._down_links:
            return
        self._down_links = current_down
        if self.trace is not None:
            self.trace.emit(LinkStateChange(
                now, down_links=tuple(sorted(current_down))
            ))
        on_change = getattr(self.scheduler, "on_link_state_change", None)
        if on_change is not None:
            on_change(frozenset(current_down), now)
        self._dirty = True

    def _recompute_rates(self) -> None:
        """Step 3: ask the scheduler for rates, stop transmission across
        down links, and split the in-flight list into the flows that
        transmit until the next event and the flows the scheduler stopped
        during this event (kept aside until :meth:`_settle`)."""
        self.counters.rate_recomputes += 1
        now = self._now
        tel = self.telemetry
        if tel is None:
            self.scheduler.assign_rates(now)
        else:
            with tel.spans.span("rates"):
                self.scheduler.assign_rates(now)
        self._killed = self._filter_active()
        live = self._active
        # physics: a down link carries nothing, whatever was asked.  Only
        # this loop writes ``rate`` from outside the scheduler; a scheduler
        # that leaves unchanged rates alone relies on every link-state
        # change making it rewrite them.
        down_links = self._down_links
        if down_links:
            for fs in live:
                if fs.rate > 0 and fs.path is not None and any(
                    l in down_links for l in fs.path
                ):
                    fs.rate = 0.0
        self._transmitting = [fs for fs in live if fs.rate > 0]
        self._dirty = False
        if self.trace is not None:
            self._sync_slices(self._transmitting, now)

    def _next_event_time(self) -> float:
        """Step 4: the earliest of the next fault boundary, arrival,
        completion, deadline, scheduler change point and horizon."""
        now = self._now
        t_next = math.inf
        if self.faults:
            fb = self.faults.next_boundary(now)
            if fb is not None:
                t_next = fb
        if self._next_arrival < len(self._arrivals):
            t_next = min(t_next, self._arrivals[self._next_arrival].task.arrival)
        for fs in self._transmitting:
            rate = fs.rate
            if rate > 0:
                t = now + fs.remaining / rate
                if t < t_next:
                    t_next = t
        # every heap entry left after step 2 lies past now + EPS
        heap = self._deadlines
        while heap and heap[0][2].status is not _PENDING:
            heappop(heap)
        if heap and heap[0][0] < t_next:
            t_next = heap[0][0]
        # flows stopped during this event still offer their deadline
        for fs in self._killed:
            d = fs.flow.deadline
            if now + EPS < d < t_next:
                t_next = d
        t_sched = self.scheduler.next_change(now)
        if t_sched is not None and t_sched > now + EPS:
            t_next = min(t_next, t_sched)
        self._t_sched = t_sched
        if self.horizon is not None:
            t_next = min(t_next, self.horizon)
        return t_next

    def _advance_to(self, t_next: float) -> None:
        """Step 5: integrate the transmitting flows over ``[now, t_next)``."""
        now = self._now
        dt = t_next - now
        if dt > 0:
            flows = self._transmitting
            for fs in flows:
                fs.advance(dt)
            for on_advance in self._on_advance:
                on_advance(now, t_next, flows)
        self._now = t_next
        if t_next <= now and dt == 0 and not self._dirty:
            # A scheduler change point at 'now' that changed nothing;
            # treat the allocation as dirty to force progress next turn.
            self._dirty = True

    def _settle(self) -> None:
        """Step 6: complete flows that delivered their last byte, in
        in-flight order, then settle every task a status change touched.

        Only flows that transmitted can have finished, except arrivals:
        a flow can arrive already inside the completion tolerance, so an
        event with arrivals checks every in-flight flow.
        """
        now = self._now
        candidates = self._active if self._arrived else self._transmitting
        finished = [
            fs for fs in candidates
            if fs.status is _PENDING and _done(fs.remaining, fs.flow.size)
        ]
        if finished or self._killed:
            self._dirty = True
        sched = self.scheduler
        trace = self.trace
        active = self._active
        for fs in finished:
            fs.finish(now)
            self.counters.completions += 1
            if trace is not None:
                trace.emit(FlowCompleted(
                    now,
                    flow_id=fs.flow.flow_id,
                    task_id=fs.flow.task_id,
                    met_deadline=fs.met_deadline,
                ))
            sched.on_flow_completed(fs, now)
            for cb in self._on_flow_settled:
                cb(fs, now)
            active.remove(fs)
            self._touched.add(fs.flow.task_id)
        self._killed = []
        if trace is not None:
            # completed/killed flows stop transmitting at this instant
            self._sync_slices(self._transmitting, now)
        # mark a scheduler change point as needing a rate refresh
        t_sched = self._t_sched
        if t_sched is not None and abs(now - t_sched) <= EPS:
            self._dirty = True
        self._settle_tasks(now)

    def _terminate(self, stalled: bool) -> None:
        """End of run (horizon reached, or nothing can ever happen again):
        stop every flow still in flight and settle the tasks."""
        for fs in (*self._active, *self._killed):
            fs.kill(FlowStatus.TERMINATED)
            self._touched.add(fs.flow.task_id)
            if stalled:
                self.counters.stalled_kills += 1
        self._active = []
        self._killed = []
        self._settle_tasks(self._now)

    # -- helpers -----------------------------------------------------------

    def _publish_telemetry(self, tel, now: float) -> None:
        """End-of-run publication: engine work counters, the scheduler's
        own counters, and per-link utilization gauges."""
        for f in fields(EngineCounters):
            tel.counter("engine/" + f.name).inc(getattr(self.counters, f.name))
        publish = getattr(self.scheduler, "publish_telemetry", None)
        if publish is not None:
            publish()
        collector = self._tel_linkload
        if collector is None:
            return
        collector.finalize(self.flow_states)
        links = self.topology.links

        def labels(l: int) -> dict[str, str]:
            return {"link": str(l), "src": links[l].src, "dst": links[l].dst}

        if now > 0:
            for load in collector.utilization(now):
                tel.gauge(
                    "net/link_utilization", labels(load.link_index)
                ).set(load.utilization)
        for l, frac in sorted(collector.peak_utilization().items()):
            tel.gauge("net/link_peak_utilization", labels(l)).set(frac)

    def _sync_slices(self, flows: list[FlowState], now: float) -> None:
        """Diff the physically-transmitting set against the last picture and
        emit slice events (ends before starts; a path change is both).

        Called after every rate recompute (post down-link zeroing — the
        trace records what the network actually carried) and after
        completions, so a flow's slice closes at the instant it stopped.
        ``flows`` must include every flow with a positive rate.
        """
        current: dict[int, tuple[tuple[int, ...], int]] = {}
        for fs in flows:
            if fs.rate > 0 and fs.path is not None:
                current[fs.flow.flow_id] = (tuple(fs.path), fs.flow.task_id)
        prev = self._open_slices
        if current == prev:
            return
        trace = self.trace
        ended = [f for f, v in prev.items() if current.get(f) != v]
        started = [f for f, v in current.items() if prev.get(f) != v]
        for fid in sorted(ended):
            trace.emit(SliceEnd(now, flow_id=fid, task_id=prev[fid][1]))
        for fid in sorted(started):
            path, tid = current[fid]
            trace.emit(SliceStart(now, flow_id=fid, task_id=tid, path=path))
        self._open_slices = current

    def _flush_slices(self, now: float) -> None:
        """Close every still-open slice at the end of the run."""
        prev = self._open_slices
        for fid in sorted(prev):
            self.trace.emit(SliceEnd(now, flow_id=fid, task_id=prev[fid][1]))
        self._open_slices = {}

    def _settle_tasks(self, now: float) -> None:
        """Finalize, in task-id order, the touched tasks whose flows have
        all reached a terminal status."""
        touched = self._touched
        if not touched:
            return
        for tid in sorted(touched):
            ts = self._task_by_id[tid]
            if all(fs.status is not _PENDING for fs in ts.flow_states):
                ts.settle()
                for cb in self._on_task_settled:
                    cb(ts, now)
        touched.clear()


def _callbacks(hooks: tuple, name: str) -> list:
    """The hooks' bound ``name`` callbacks (hooks may omit any of them)."""
    return [cb for hook in hooks if (cb := getattr(hook, name, None)) is not None]
