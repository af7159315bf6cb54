"""Scheduler registry and the shared base-class helpers."""

import pytest

from repro.sched.base import edf_sjf_key, exclusive_full_rate
from repro.sched.registry import PAPER_ORDER, SCHEDULERS, make_scheduler
from repro.sim.state import FlowState
from repro.util.errors import ConfigurationError
from repro.workload.flow import Flow


def test_registry_has_paper_six_plus_extensions():
    assert set(SCHEDULERS) == {
        "Fair Sharing", "D3", "PDQ", "Baraat", "Varys", "TAPS", "D2TCP"
    }
    # the paper's legend order contains exactly the evaluated six
    assert set(PAPER_ORDER) == set(SCHEDULERS) - {"D2TCP"}


def test_extended_order_superset():
    from repro.sched.registry import EXTENDED_ORDER

    assert set(EXTENDED_ORDER) == set(SCHEDULERS)
    assert len(EXTENDED_ORDER) == len(SCHEDULERS)


def test_make_scheduler_fresh_instances():
    a, b = make_scheduler("PDQ"), make_scheduler("PDQ")
    assert a is not b
    assert a.name == "PDQ"


def test_make_scheduler_names_match():
    for name in SCHEDULERS:
        assert make_scheduler(name).name == name


def test_unknown_scheduler_raises():
    with pytest.raises(ConfigurationError):
        make_scheduler("MegaSched")


def _fs(fid, deadline, remaining, path=(0,)):
    f = Flow(flow_id=fid, task_id=0, src="a", dst="b",
             size=max(remaining, 1.0), release=0.0, deadline=deadline)
    st = FlowState(flow=f)
    st.remaining = remaining
    st.path = path
    return st


class TestEdfSjfKey:
    def test_deadline_dominates(self):
        early = _fs(0, deadline=1.0, remaining=100.0)
        late = _fs(1, deadline=2.0, remaining=1.0)
        assert edf_sjf_key(early) < edf_sjf_key(late)

    def test_sjf_breaks_deadline_ties(self):
        small = _fs(5, deadline=1.0, remaining=1.0)
        big = _fs(2, deadline=1.0, remaining=9.0)
        assert edf_sjf_key(small) < edf_sjf_key(big)

    def test_id_breaks_full_ties(self):
        a = _fs(1, deadline=1.0, remaining=1.0)
        b = _fs(2, deadline=1.0, remaining=1.0)
        assert edf_sjf_key(a) < edf_sjf_key(b)


class TestExclusiveFullRate:
    def test_winner_takes_all_links(self):
        flows = [_fs(0, 1.0, 1.0, path=(0, 1)), _fs(1, 2.0, 1.0, path=(1, 2))]
        exclusive_full_rate(sorted(flows, key=edf_sjf_key), {fs: 1.0 for fs in flows})
        assert flows[0].rate == 1.0
        assert flows[1].rate == 0.0  # shares link 1 with the winner

    def test_disjoint_paths_both_run(self):
        flows = [_fs(0, 1.0, 1.0, path=(0,)), _fs(1, 2.0, 1.0, path=(1,))]
        exclusive_full_rate(sorted(flows, key=edf_sjf_key), {fs: 3.0 for fs in flows})
        assert flows[0].rate == flows[1].rate == 3.0

    def test_priority_order_respected(self):
        # both want link 0; the more critical (earlier deadline) wins
        flows = [_fs(0, 9.0, 1.0, path=(0,)), _fs(1, 1.0, 1.0, path=(0,))]
        exclusive_full_rate(sorted(flows, key=edf_sjf_key), {fs: 1.0 for fs in flows})
        assert flows[0].rate == 0.0
        assert flows[1].rate == 1.0
