"""Engine corner cases: degenerate workloads, coincident events."""

import pytest

from repro.core.controller import TapsScheduler
from repro.sched.fair import FairSharing
from repro.sched.pdq import PDQ
from repro.sim.engine import Engine
from repro.sim.faults import LinkFault
from repro.sim.state import FlowStatus
from repro.trace import TraceRecorder
from repro.trace.audit import audit_trace
from repro.workload.flow import make_task
from repro.workload.traces import dumbbell


def test_empty_workload():
    topo = dumbbell(1)
    result = Engine(topo, [], FairSharing()).run()
    assert result.flow_states == []
    assert result.tasks_completed == 0
    assert result.finished_at == 0.0


def test_empty_workload_all_schedulers(any_scheduler):
    topo = dumbbell(2)
    result = Engine(topo, [], any_scheduler).run()
    assert result.counters.completions == 0


def test_single_tiny_flow():
    topo = dumbbell(1)
    tasks = [make_task(0, 0.0, 1.0, [("L0", "R0", 1e-6)], 0)]
    result = Engine(topo, tasks, FairSharing()).run()
    assert result.flows_met == 1


def test_coincident_arrival_and_fault_boundary():
    """A task arriving at the exact instant its path fails must not be
    admitted onto the dead link."""
    topo = dumbbell(1)
    mid = topo.link("SL", "SR").index
    tasks = [make_task(0, 1.0, 3.0, [("L0", "R0", 1.0)], 0)]
    sched = TapsScheduler()
    result = Engine(topo, tasks, sched,
                    faults=[LinkFault(mid, 1.0, 10.0)]).run()
    assert result.flow_states[0].bytes_sent == 0.0


def test_coincident_completion_and_deadline():
    """A flow finishing exactly at its deadline is met, not killed."""
    topo = dumbbell(1)
    tasks = [make_task(0, 0.0, 3.0, [("L0", "R0", 3.0)], 0)]
    result = Engine(topo, tasks, TapsScheduler()).run()
    fs = result.flow_states[0]
    assert fs.status is FlowStatus.COMPLETED
    assert fs.met_deadline


def test_many_tasks_same_instant():
    topo = dumbbell(8)
    tasks = [make_task(i, 0.0, 100.0, [(f"L{i}", f"R{i}", 1.0)], i)
             for i in range(8)]
    result = Engine(topo, tasks, TapsScheduler()).run()
    assert result.tasks_completed == 8


def test_duplicate_endpoint_pairs_contend():
    """Two flows between the same host pair serialize on access links."""
    topo = dumbbell(1)
    tasks = [
        make_task(0, 0.0, 10.0, [("L0", "R0", 2.0)], 0),
        make_task(1, 0.0, 10.0, [("L0", "R0", 2.0)], 1),
    ]
    result = Engine(topo, tasks, TapsScheduler()).run()
    ends = sorted(fs.completed_at for fs in result.flow_states)
    assert ends == [pytest.approx(2.0), pytest.approx(4.0)]


def test_fault_entirely_before_traffic_is_noop():
    topo = dumbbell(1)
    mid = topo.link("SL", "SR").index
    tasks = [make_task(0, 5.0, 15.0, [("L0", "R0", 1.0)], 0)]
    result = Engine(topo, tasks, TapsScheduler(),
                    faults=[LinkFault(mid, 0.0, 1.0)]).run()
    assert result.flow_states[0].completed_at == pytest.approx(6.0)


def test_fault_on_unused_topology_region():
    topo = dumbbell(3)
    far = topo.link("L2", "SL").index
    tasks = [make_task(0, 0.0, 10.0, [("L0", "R0", 1.0)], 0)]
    result = Engine(topo, tasks, TapsScheduler(),
                    faults=[LinkFault(far, 0.0, float("inf"))]).run()
    assert result.tasks_completed == 1


def test_overlapping_faults_on_same_link():
    topo = dumbbell(1)
    mid = topo.link("SL", "SR").index
    tasks = [make_task(0, 0.0, 20.0, [("L0", "R0", 2.0)], 0)]
    result = Engine(
        topo, tasks, FairSharing(),
        faults=[LinkFault(mid, 0.5, 2.0), LinkFault(mid, 1.0, 3.0)],
    ).run()
    fs = result.flow_states[0]
    # 0.5 sent before the outage, the rest after t=3
    assert fs.completed_at == pytest.approx(4.5)


def test_zero_rate_task_eventually_killed_by_deadline():
    """A flow the scheduler never serves dies at its deadline, and the
    run still terminates."""
    from repro.sched.base import Scheduler

    class Starver(Scheduler):
        name = "starver"

        def on_task_arrival(self, ts, now):
            ts.accepted = True
            self._admit_flows(ts)

        def assign_rates(self, now):
            for fs in self.active_flows:
                fs.rate = 0.0

    topo = dumbbell(1)
    tasks = [make_task(0, 0.0, 2.0, [("L0", "R0", 1.0)], 0)]
    result = Engine(topo, tasks, Starver()).run()
    fs = result.flow_states[0]
    assert fs.status is FlowStatus.TERMINATED
    assert result.finished_at <= 2.0 + 1e-6


def test_flow_inside_tolerance_settles_without_transmitting():
    """A flow that arrives already inside the completion tolerance settles
    at the end of its arrival event even while its rate is 0 (PDQ serves
    the earlier deadline first on the shared link)."""
    topo = dumbbell(1)
    tasks = [make_task(0, 0.0, 1.0, [("L0", "R0", 1.0)], 0),
             make_task(1, 0.0, 2.0, [("L0", "R0", 5e-10)], 1)]
    result = Engine(topo, tasks, PDQ()).run()
    tiny = result.flow_states[1]
    assert tiny.bytes_sent == 0.0
    assert tiny.status is FlowStatus.COMPLETED
    assert tiny.completed_at == 1.0
    assert result.tasks_completed == 2


def test_taps_accepts_a_flow_with_nothing_to_send():
    """A flow whose transmission time is within EPS gets a plan with no
    slices and settles like any flow inside the completion tolerance."""
    topo = dumbbell(1)
    tasks = [make_task(0, 0.0, 1.0, [("L0", "R0", 5e-10)], 0)]
    recorder = TraceRecorder()
    result = Engine(topo, tasks, TapsScheduler(), trace=recorder).run()
    assert result.task_states[0].accepted is True
    assert result.flow_states[0].status is FlowStatus.COMPLETED
    assert result.tasks_completed == 1
    assert audit_trace(recorder).ok


def test_flow_stopped_inside_an_event_still_offers_its_deadline():
    """Flows the scheduler stops after the in-flight list was filtered
    (here: rejected when the batch window flushes, inside the rate
    recompute) keep offering their deadline to that event's next-event
    search, so the run takes one idle event at the deadline."""
    topo = dumbbell(1)
    tasks = [make_task(0, 0.0, 1.5, [("L0", "R0", 10.0)], 0)]
    result = Engine(topo, tasks, TapsScheduler(batch_window=1.0)).run()
    assert result.flow_states[0].status is FlowStatus.REJECTED
    assert result.finished_at == 1.5
    assert result.counters.rate_recomputes == 3
