"""PDQ: Preemptive Distributed Quick flow scheduling (Hong et al., SIGCOMM'12).

Per the paper (§II, §V-A, Fig. 1(d)/Fig. 3 walk-throughs):

* flows are ranked by **criticality** — EDF first, SJF tie-break;
* the most critical flow on each link transmits **alone at full rate**;
  less critical flows are *paused* (preemption);
* **Early Termination (ET)**: a flow that cannot finish before its deadline
  even running alone at full rate is killed immediately, freeing bandwidth
  ("We simulated PDQ with the basic Early Termination function" — §V-A;
  Suppressed Probing and Early Start are packet-level and excluded there);
* switches hold per-flow state in a bounded **flow list**; flows that do
  not fit in some switch's list are paused regardless of link state (this
  reproduces the paper's Fig. 3 example where "the flow list in S3 is
  full").  The default limit is effectively unbounded, matching §V's
  large-scale runs.

PDQ is distributed in reality; at flow level its behaviour is the greedy
priority allocation of :func:`~repro.sched.base.exclusive_full_rate` (the
paper simulates it the same way).
"""

from __future__ import annotations

from repro.sched.base import ExclusiveLinkScheduler, edf_sjf_key, exclusive_full_rate
from repro.sim.state import FlowState, FlowStatus, TaskState


class PDQ(ExclusiveLinkScheduler):
    """EDF+SJF preemptive exclusive-link scheduling with Early Termination.

    Parameters
    ----------
    early_termination:
        Kill flows that cannot meet their deadline even alone (default on).
        Without it, the default quit-on-miss kills a flow at its deadline.
    flow_list_limit:
        Per-switch flow-list capacity; flows beyond it are paused at that
        switch.  ``None`` = unbounded.
    """

    name = "PDQ"

    def __init__(
        self,
        early_termination: bool = True,
        flow_list_limit: int | None = None,
    ) -> None:
        super().__init__()
        self.early_termination = early_termination
        self.flow_list_limit = flow_list_limit
        self._switch_of_link: dict[int, str] = {}

    def attach(self, topology, paths) -> None:
        super().attach(topology, paths)
        # a flow "occupies a slot" at the switch that forwards it, i.e. the
        # source node of each link it traverses that is a switch
        switch_set = set(topology.switches)
        self._switch_of_link = {
            l.index: l.src for l in topology.links if l.src in switch_set
        }

    def on_task_arrival(self, task_state: TaskState, now: float) -> None:
        task_state.accepted = True
        self._admit_flows(task_state)

    def assign_rates(self, now: float) -> None:
        flows = self.active_flows
        if not flows:
            return
        bottleneck = self._bottleneck

        # Early Termination: hopeless even at full rate, alone
        if self.early_termination:
            doomed = [
                fs for fs in flows
                if fs.remaining > (fs.flow.deadline - now) * bottleneck[fs] + 1e-6
            ]
            for fs in doomed:
                fs.kill(FlowStatus.TERMINATED)
                self._drop(fs)
            if not flows:
                return

        flows.sort(key=edf_sjf_key)
        if self.flow_list_limit is not None:
            flows = self._with_switch_slot(flows)
        exclusive_full_rate(flows, bottleneck)

    def _with_switch_slot(self, ordered: list[FlowState]) -> list[FlowState]:
        """The flows that find room in every switch's flow list on their
        path, in priority order; the rest are paused.  Slots go by
        priority alone, never by link state, so this precedes the link
        claim."""
        limit = self.flow_list_limit
        switch_of_link = self._switch_of_link
        slots: dict[str, int] = {}
        admitted: list[FlowState] = []
        for fs in ordered:
            switches = {switch_of_link[l] for l in fs.path if l in switch_of_link}  # type: ignore[union-attr]
            if any(slots.get(sw, 0) >= limit for sw in switches):  # type: ignore[operator]
                fs.rate = 0.0  # no room in some switch's flow list
                continue
            for sw in switches:
                slots[sw] = slots.get(sw, 0) + 1
            admitted.append(fs)
        return admitted
