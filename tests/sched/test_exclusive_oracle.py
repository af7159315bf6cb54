"""The shared exclusive-link allocator against the full-scan reference.

PDQ and Baraat sort ``active_flows`` in place, compute each flow's path
bottleneck once, and claim links with ``set.isdisjoint`` (DESIGN.md §5.4).
The reference below is the full-scan code those replaced, kept verbatim:
a fresh ``sorted()`` and a ``min()`` over the path's capacities on every
call.  The oracle runs it on copies of the flows before every
``assign_rates`` and asserts that the scheduler leaves the same rates and
kills the same flows.  Hypothesis drives it over small fat-trees with and
without link faults and over every knob of both schedulers.
"""

from hypothesis import given, settings, strategies as st

from repro.net.fattree import FatTree
from repro.sched.baraat import Baraat
from repro.sched.base import edf_sjf_key
from repro.sched.pdq import PDQ
from repro.sim.engine import Engine
from repro.sim.faults import LinkFault
from repro.sim.state import FlowState, FlowStatus
from repro.workload.generator import WorkloadConfig, generate_workload

# -- the full-scan reference ---------------------------------------------------


def reference_exclusive_full_rate(
    flows: list[FlowState],
    priority_key,
    capacity_of,
) -> None:
    busy: set[int] = set()
    for fs in sorted(flows, key=priority_key):
        path = fs.path
        assert path is not None, f"flow {fs.flow.flow_id} has no path"
        if any(l in busy for l in path):
            fs.rate = 0.0
        else:
            fs.rate = capacity_of(path)
            busy.update(path)


class ReferencePDQ(PDQ):
    def assign_rates(self, now: float) -> None:
        assert self.topology is not None
        flows = self.active_flows
        if not flows:
            return
        links = self.topology.links

        # Early Termination: hopeless even at full rate, alone
        if self.early_termination:
            doomed: list[FlowState] = []
            for fs in flows:
                cap = min(links[l].capacity for l in fs.path)  # type: ignore[union-attr]
                if fs.remaining > (fs.flow.deadline - now) * cap + 1e-6:
                    doomed.append(fs)
            for fs in doomed:
                fs.kill(FlowStatus.TERMINATED)
                self._drop(fs)
            flows = self.active_flows
            if not flows:
                return

        busy: set[int] = set()
        slots: dict[str, int] = {}
        limit = self.flow_list_limit
        for fs in sorted(flows, key=edf_sjf_key):
            path = fs.path
            assert path is not None
            if limit is not None:
                switches = {self._switch_of_link[l] for l in path if l in self._switch_of_link}
                if any(slots.get(sw, 0) >= limit for sw in switches):
                    fs.rate = 0.0  # no room in some switch's flow list
                    continue
                for sw in switches:
                    slots[sw] = slots.get(sw, 0) + 1
            if any(l in busy for l in path):
                fs.rate = 0.0
            else:
                fs.rate = min(links[l].capacity for l in path)
                busy.update(path)


class ReferenceBaraat(Baraat):
    def assign_rates(self, now: float) -> None:
        assert self.topology is not None
        if not self.active_flows:
            return
        links = self.topology.links
        reference_exclusive_full_rate(
            self.active_flows,
            priority_key=self._priority,
            capacity_of=lambda path: min(links[l].capacity for l in path),
        )


# -- the oracle ------------------------------------------------------------------


def _copy(fs: FlowState) -> FlowState:
    return FlowState(flow=fs.flow, remaining=fs.remaining, rate=fs.rate,
                     path=fs.path, status=fs.status)


def _outcome(flows: list[FlowState]) -> dict[int, tuple[FlowStatus, float]]:
    return {fs.flow.flow_id: (fs.status, fs.rate) for fs in flows}


class Checked:
    """Mixin: before every ``assign_rates``, run the reference on copies
    of the in-flight flows; after it, compare rates and kills."""

    def attach(self, topology, paths) -> None:
        super().attach(topology, paths)
        self.reference = self.make_reference()
        self.reference.attach(topology, paths)
        self.checks = 0
        self.kills = 0

    def assign_rates(self, now: float) -> None:
        flows = list(self.active_flows)
        copies = [_copy(fs) for fs in flows]
        ref = self.reference
        ref.active_flows = list(copies)
        ref.assign_rates(now)
        super().assign_rates(now)
        assert _outcome(flows) == _outcome(copies), now
        assert sorted(fs.flow.flow_id for fs in self.active_flows) == sorted(
            fs.flow.flow_id for fs in ref.active_flows
        )
        # the bottleneck cache holds in-flight flows only
        assert set(self._bottleneck) <= set(self.active_flows)
        self.checks += len(flows)
        self.kills += len(flows) - len(self.active_flows)


class CheckedPDQ(Checked, PDQ):
    def make_reference(self) -> PDQ:
        return ReferencePDQ(self.early_termination, self.flow_list_limit)


class CheckedBaraat(Checked, Baraat):
    def make_reference(self) -> Baraat:
        ref = ReferenceBaraat(self.stop_missed_flows)
        ref._task_serial = self._task_serial  # the same task order
        return ref


TOPO = FatTree(k=4)
_SWITCHES = set(TOPO.switches)
CORE = [l.index for l in TOPO.links if l.src in _SWITCHES and l.dst in _SWITCHES]


@st.composite
def workloads(draw):
    hosts = list(TOPO.hosts)[: draw(st.integers(4, 16))]
    config = WorkloadConfig(
        num_tasks=draw(st.integers(2, 12)),
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
    return generate_workload(config, hosts), faults


@settings(max_examples=100, deadline=None)
@given(workloads(), st.booleans(), st.sampled_from([None, 1, 3]))
def test_pdq_matches_full_scan(case, early_termination, flow_list_limit):
    tasks, faults = case
    sched = CheckedPDQ(early_termination, flow_list_limit)
    Engine(TOPO, tasks, sched, faults=faults).run()
    assert sched.checks > 0


@settings(max_examples=60, deadline=None)
@given(workloads(), st.booleans())
def test_baraat_matches_full_scan(case, stop_missed_flows):
    tasks, faults = case
    sched = CheckedBaraat(stop_missed_flows)
    Engine(TOPO, tasks, sched, faults=faults).run()
    assert sched.checks > 0


def _loaded_run(sched) -> None:
    tasks = generate_workload(
        WorkloadConfig(num_tasks=16, arrival_rate=1000.0, mean_deadline=0.015,
                       mean_flow_size=300_000.0, mean_flows_per_task=4.0,
                       seed=5),
        list(TOPO.hosts)[:8],
    )
    faults = [LinkFault(CORE[2], 0.003, 0.012), LinkFault(CORE[9], 0.005, 0.02)]
    Engine(TOPO, tasks, sched, faults=faults).run()


def test_oracle_is_not_vacuous():
    """On a loaded run with outages the oracle compares hundreds of rates
    and sees Early Termination kill flows."""
    pdq, limited, baraat = CheckedPDQ(), CheckedPDQ(flow_list_limit=1), CheckedBaraat()
    for sched in (pdq, limited, baraat):
        _loaded_run(sched)
        assert sched.checks > 300
    assert pdq.kills > 0 and limited.kills > 0
    assert baraat.kills == 0  # Baraat never kills inside assign_rates


def test_whole_run_matches_reference_scheduler():
    """Runs driven by the reference and by the shared allocator end with
    the same per-flow outcomes, bit for bit."""
    for new, ref in ((PDQ(flow_list_limit=3), ReferencePDQ(flow_list_limit=3)),
                     (PDQ(early_termination=False),
                      ReferencePDQ(early_termination=False)),
                     (Baraat(), ReferenceBaraat())):
        got, want = [], []
        for sched, out in ((new, got), (ref, want)):
            tasks = generate_workload(
                WorkloadConfig(num_tasks=16, arrival_rate=1000.0,
                               mean_deadline=0.015, mean_flow_size=300_000.0,
                               mean_flows_per_task=4.0, seed=9),
                list(TOPO.hosts)[:8],
            )
            result = Engine(TOPO, tasks, sched).run()
            out.extend((fs.flow.flow_id, fs.status, fs.completed_at,
                        fs.bytes_sent) for fs in result.flow_states)
        assert got == want
