"""Production TAPS against the reference allocator, case by case.

:class:`~tests.reference_taps.ReferenceTaps` runs the same controller with
Alg. 2 evaluated the obvious way (full union, complement and first fit per
candidate).  Hypothesis drives both over the sender-calendar campaign's
cases — small fat-trees with link faults, batch windows, control latency,
table limits, incremental admission and every priority and preemption
policy — and every case must give byte-identical decision traces, equal
per-flow outcomes and decision counters, and a clean audit.
"""

from dataclasses import astuple, fields

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis.errors import NoSuchExample

from repro.core.controller import TapsScheduler, TapsStats
from repro.sim.engine import Engine
from repro.trace import TraceRecorder, audit_trace
from tests.core.test_sender_calendar import TOPO, cases
from tests.reference_taps import ReferenceTaps

COUNTERS = [f.name for f in fields(TapsStats) if f.name != "profile"]


def _run(cls, case):
    tasks, faults, knobs = case
    recorder = TraceRecorder()
    sched = cls(**knobs)
    result = Engine(TOPO, tasks, sched, faults=faults, trace=recorder).run()
    report = audit_trace(recorder)
    assert report.ok, report.summary()
    return sched, {
        "trace": recorder.dumps(),
        "flows": [astuple(fs) for fs in result.flow_states],
        "tasks": [(ts.task.task_id, ts.outcome) for ts in result.task_states],
        "counters": [getattr(sched.stats, name) for name in COUNTERS],
    }


def _compare(case) -> TapsScheduler:
    """Run ``case`` both ways, assert they agree, return the production
    scheduler."""
    sched, got = _run(TapsScheduler, case)
    _, want = _run(ReferenceTaps, case)
    assert got["trace"] == want["trace"]
    assert got["flows"] == want["flows"]
    assert got["tasks"] == want["tasks"]
    assert got["counters"] == want["counters"]
    return sched


@settings(max_examples=150, deadline=None)
@given(cases())
def test_production_matches_reference(case):
    _compare(case)


def test_campaign_reaches_every_decision_kind():
    """The campaign is not vacuous: among its cases are runs that score
    several candidates per flow, reject a task, preempt one and reallocate
    around a fault — each found by a bounded search and compared like any
    other case."""
    search = settings(max_examples=2000, phases=[Phase.generate],
                      derandomize=True, database=None, deadline=None)
    for kind, reached in (
        ("multi-candidate scoring", lambda s: s.profile.candidates_evaluated),
        ("rejection", lambda s: s.tasks_rejected),
        ("preemption", lambda s: s.tasks_preempted),
        ("fault reallocation", lambda s: s.fault_reroutes),
    ):
        try:
            find(cases(), lambda case: reached(_compare(case).stats) > 0,
                 settings=search)
        except NoSuchExample:
            pytest.fail(f"no {kind} in {search.max_examples} cases")
