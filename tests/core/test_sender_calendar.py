"""The TAPS sender model's boundary calendar against the full scan.

``TapsScheduler.assign_rates`` rewrites only the flows whose plan crossed a
slice boundary, and ``next_change`` peeks at a heap (DESIGN.md §5.3).
The oracle below is the scheduler with the full scans those replaced: after
every call it recomputes the rate of every pending plan and the least
next slice boundary the old way, and asserts the calendar gave the same
answer.  Hypothesis drives it over small fat-trees with link faults and
every controller knob.
"""

from hypothesis import given, settings, strategies as st

from repro.core.controller import TapsScheduler
from repro.core.reject import PreemptionPolicy
from repro.net.fattree import FatTree
from repro.sched.base import PRIORITY_KEYS
from repro.sim.engine import Engine
from repro.sim.faults import LinkFault
from repro.sim.state import FlowStatus
from repro.util.intervals import EPS
from repro.workload.generator import WorkloadConfig, generate_workload


class FullScanOracle(TapsScheduler):
    """TAPS checked against the full-scan sender model after every call."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.rate_checks = 0
        self.change_checks = 0

    def assign_rates(self, now: float) -> None:
        super().assign_rates(now)
        probe = now + 2 * EPS
        down = self._down_links
        for fid, plan in self.plans.items():
            fs = plan.flow_state
            if fs.status is not FlowStatus.PENDING:
                continue
            want = self._capacity if plan.slices.contains(probe) else 0.0
            got = fs.rate
            if any(l in down for l in fs.path):
                # the engine zeroes this rate right after the call
                want = got = 0.0
            assert got == want, (now, fid, got, want)
            self.rate_checks += 1

    def next_change(self, now: float) -> float | None:
        got = super().next_change(now)
        want = None
        if self._flush_at is not None and self._flush_at > now + EPS:
            want = self._flush_at
        for plan in self.plans.values():
            if plan.flow_state.status is not FlowStatus.PENDING:
                continue
            b = plan.slices.next_boundary(now)
            if b is not None and (want is None or b < want):
                want = b
        assert got == want, (now, got, want)
        self.change_checks += 1
        return got


TOPO = FatTree(k=4)


@st.composite
def cases(draw):
    hosts = list(TOPO.hosts)[: draw(st.integers(4, 16))]
    config = WorkloadConfig(
        num_tasks=draw(st.integers(2, 16)),
        arrival_rate=draw(st.sampled_from([300.0, 1000.0, 3000.0])),
        mean_deadline=draw(st.sampled_from([0.008, 0.015, 0.03])),
        mean_flow_size=300_000.0,
        mean_flows_per_task=draw(st.sampled_from([2.0, 4.0])),
        seed=draw(st.integers(0, 2**16)),
    )
    faults = []
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.floats(0.0, 0.02))
        length = draw(st.one_of(st.floats(0.0005, 0.02),
                                st.just(float("inf"))))
        faults.append(LinkFault(
            draw(st.integers(0, len(TOPO.links) - 1)), start, start + length
        ))
    knobs = dict(
        preemption=draw(st.sampled_from(list(PreemptionPolicy))),
        priority=draw(st.sampled_from(sorted(PRIORITY_KEYS))),
        batch_window=draw(st.sampled_from([0.0, 0.001, 0.003])),
        control_latency=draw(st.sampled_from([0.0, 0.0005])),
        flow_table_limit=draw(st.sampled_from([None, 3, 8])),
        reallocate_inflight=draw(st.booleans()),
    )
    return generate_workload(config, hosts), faults, knobs


@settings(max_examples=150, deadline=None)
@given(cases())
def test_calendar_matches_full_scan(case):
    tasks, faults, knobs = case
    sched = FullScanOracle(**knobs)
    Engine(TOPO, tasks, sched, faults=faults).run()
    assert sched.change_checks > 0


def test_oracle_checks_rates_under_faults():
    """The oracle is not vacuous: on a loaded run with outages it compares
    hundreds of rates and change points."""
    hosts = list(TOPO.hosts)[:8]
    tasks = generate_workload(
        WorkloadConfig(num_tasks=12, arrival_rate=1000.0, mean_deadline=0.02,
                       mean_flow_size=300_000.0, mean_flows_per_task=4.0,
                       seed=5),
        hosts,
    )
    switches = set(TOPO.switches)
    core = [l.index for l in TOPO.links
            if l.src in switches and l.dst in switches]
    faults = [LinkFault(core[2], 0.003, 0.012), LinkFault(core[9], 0.005, 0.02)]
    sched = FullScanOracle(batch_window=0.001)
    Engine(TOPO, tasks, sched, faults=faults).run()
    assert sched.stats.fault_reroutes > 0
    assert sched.rate_checks > 100
    assert sched.change_checks > 20
