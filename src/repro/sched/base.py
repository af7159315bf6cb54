"""The scheduler contract shared by all six policies.

A scheduler owns four decisions, invoked by the engine:

1. **Admission** (:meth:`Scheduler.on_task_arrival`): accept, reject, or
   preempt; route flows (set ``FlowState.path``).
2. **Rates** (:meth:`Scheduler.assign_rates`): called only when the
   allocation is dirty (arrival, completion, kill, link-state change,
   change point).  On return every managed flow's ``rate`` must be correct
   for ``[now, next_change)``.  The engine keeps ``rate`` between calls,
   so a scheduler may skip flows whose rate is unchanged (the TAPS sender
   model rewrites only flows whose slice boundary was crossed).  Nothing
   outside the scheduler writes ``rate`` except the engine, which zeroes
   it on flows crossing a down link right after this call — a scheduler
   that skips unchanged flows must rewrite them after a link-state
   change.  Stopping a flow (``kill``) zeroes its rate too.
3. **Change points** (:meth:`Scheduler.next_change`): the next time rates
   would change with no external event (e.g. a TAPS slice boundary, a
   Varys reservation expiry that frees capacity).
4. **Deadline reaction** (:meth:`Scheduler.on_deadline_expired`): quit the
   flow, kill it, or let it keep transmitting (Baraat).

Flows may be stopped only from admission, rates, deadline reaction and
link-state callbacks; ``on_flow_completed`` must not stop other flows.

PDQ's transmission model — each link carries at most one flow, at full
rate, granted in priority order — is implemented once here and shared by
PDQ and Baraat: :class:`ExclusiveLinkScheduler` keeps ``active_flows`` in
priority order and caches each flow's path bottleneck, and
:func:`exclusive_full_rate` is the greedy link claim over that order.
The priority keys (:data:`PRIORITY_KEYS`) also serve TAPS' ``Ftmp`` sort.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping, Sequence

from repro.net.paths import PathService
from repro.net.link import Link
from repro.net.topology import Topology
from repro.sim.state import FlowState, FlowStatus, TaskState


class Scheduler(ABC):
    """Base class: lifecycle hooks with safe defaults."""

    #: short name used in reports and figure legends
    name: str = "scheduler"

    def __init__(self) -> None:
        self.topology: Topology | None = None
        self.paths: PathService | None = None
        self.active_flows: list[FlowState] = []

    # -- lifecycle ----------------------------------------------------------

    def attach(self, topology: Topology, paths: PathService) -> None:
        """Bind to a network; called once by the engine before the run."""
        self.topology = topology
        self.paths = paths
        self.active_flows = []

    @abstractmethod
    def on_task_arrival(self, task_state: TaskState, now: float) -> None:
        """Admit/reject the task and route its flows."""

    @abstractmethod
    def assign_rates(self, now: float) -> None:
        """Leave every managed flow's ``rate`` correct for
        ``[now, next_change)``; flows whose rate is unchanged may be
        skipped (see the module docstring)."""

    def next_change(self, now: float) -> float | None:
        """Next spontaneous rate-change time, or ``None``."""
        return None

    def on_flow_completed(self, fs: FlowState, now: float) -> None:
        """A managed flow delivered its last byte."""
        self._drop(fs)

    def on_deadline_expired(self, fs: FlowState, now: float) -> None:
        """Default policy: quit-on-miss (paper §V-A: D3/Fair Sharing "will
        not send more packets from flows already missed their deadlines").
        Deadline-agnostic schedulers override this with a no-op."""
        fs.kill(FlowStatus.TERMINATED)
        self._drop(fs)

    def on_link_state_change(self, down_links: frozenset[int], now: float) -> None:
        """A link failed or recovered (``down_links`` is the full current
        outage set).  Default: do nothing — the engine already stops
        transmission across down links, so an oblivious scheduler's flows
        stall until recovery.  Reactive schedulers (the TAPS controller)
        override this to reroute."""

    # -- shared bookkeeping ---------------------------------------------------

    def _admit_flows(self, task_state: TaskState, use_ecmp: bool = True) -> None:
        """Route and start tracking every flow of a task."""
        assert self.paths is not None
        for fs in task_state.flow_states:
            if fs.path is None and use_ecmp:
                f = fs.flow
                fs.path = self.paths.ecmp_path(f.flow_id, f.src, f.dst)
            self.active_flows.append(fs)

    def _reject_task(self, task_state: TaskState) -> None:
        """Reject a task outright: no flow ever transmits."""
        task_state.accepted = False
        for fs in task_state.flow_states:
            fs.kill(FlowStatus.REJECTED)

    def _drop(self, fs: FlowState) -> None:
        try:
            self.active_flows.remove(fs)
        except ValueError:
            pass


class PathBottlenecks(dict):
    """``FlowState`` → bottleneck rate of its path, computed on the first
    lookup: paths and capacities are fixed while a flow is in flight."""

    __slots__ = ("_links",)

    def __init__(self, links: Sequence[Link]) -> None:
        super().__init__()
        self._links = links

    def __missing__(self, fs: FlowState) -> float:
        cap = self[fs] = min(self._links[l].capacity for l in fs.path)  # type: ignore[union-attr]
        return cap


class ExclusiveLinkScheduler(Scheduler):
    """Base of PDQ and Baraat, whose ``assign_rates`` re-sort
    ``active_flows`` in place: flows join at the tail and keys barely move
    between events, so Timsort finds it almost sorted, and with unique
    keys the order is a fresh ``sorted()``'s.  ``_bottleneck`` holds each
    in-flight flow's path bottleneck and drops it when the flow leaves."""

    def attach(self, topology: Topology, paths: PathService) -> None:
        super().attach(topology, paths)
        self._bottleneck = PathBottlenecks(topology.links)

    def _drop(self, fs: FlowState) -> None:
        super()._drop(fs)
        self._bottleneck.pop(fs, None)


def exclusive_full_rate(
    ordered: Iterable[FlowState],
    bottleneck: Mapping[FlowState, float],
) -> None:
    """Greedy exclusive-link allocation (PDQ's transmission model, §IV-A).

    Flows are visited in the order given (highest priority first); a flow
    transmits at ``bottleneck[fs]``, the full rate of its path, iff
    *every* link on its path is still unclaimed; otherwise its rate is
    zero ("at most one flow on transmission on each link at any time").
    """
    busy: set[int] = set()
    for fs in ordered:
        path = fs.path
        if busy.isdisjoint(path):  # type: ignore[arg-type]
            fs.rate = bottleneck[fs]
            busy.update(path)  # type: ignore[arg-type]
        else:
            fs.rate = 0.0


def edf_sjf_key(fs: FlowState) -> tuple[float, float, int]:
    """EDF first, SJF (remaining) second, flow id as the stable tie-break.

    The priority used by PDQ's criticality and TAPS' ``Ftmp`` sort
    (paper Alg. 1 line 9: "sort Ftmp according to EDF and SJF").
    """
    return (fs.flow.deadline, fs.remaining, fs.flow.flow_id)


def edf_key(fs: FlowState) -> tuple[float, int]:
    """Pure EDF (ablation variant of the Ftmp sort)."""
    return (fs.flow.deadline, fs.flow.flow_id)


def sjf_key(fs: FlowState) -> tuple[float, int]:
    """Pure SJF on remaining size (ablation variant)."""
    return (fs.remaining, fs.flow.flow_id)


def fifo_key(fs: FlowState) -> tuple[float, int]:
    """Release-order FIFO (ablation variant; D3-like arrival priority)."""
    return (fs.flow.release, fs.flow.flow_id)


#: the Ftmp orderings the priority ablation sweeps
PRIORITY_KEYS = {
    "edf_sjf": edf_sjf_key,
    "edf": edf_key,
    "sjf": sjf_key,
    "fifo": fifo_key,
}
