"""Golden pins: decision traces and per-flow outcomes, byte for byte.

The engine, the TAPS sender model and the exclusive-link allocator of PDQ
and Baraat are exact rewrites of full-scan loops (see DESIGN.md §5.3 and
§5.4): every event, rate and completion instant must come out
bit-identical, because one extra or missing event splits an integration
step and moves completion times in the last ulp.  These
digests were computed with the full-scan code on the same inputs; a
change that moves any of them changes simulated behaviour and must say so.

Inputs are small on purpose (a k=4 fat-tree, two dozen tasks over eight
hosts, so flows contend), but reach the engine's rare paths: rejections,
preemption, batch flushes, fault reroutes and a fault drop, down-link
zeroing, backstop kills and deadline expiries.
"""

import hashlib
import sys

import pytest

from repro.core.controller import TapsScheduler
from repro.core.reject import PreemptionPolicy
from repro.net.fattree import FatTree
from repro.sched.baraat import Baraat
from repro.sched.pdq import PDQ
from repro.sched.registry import make_scheduler
from repro.sim.engine import Engine
from repro.sim.faults import LinkFault
from repro.trace import TraceRecorder, audit_trace
from repro.workload.generator import WorkloadConfig, generate_workload

# Python 3.12 made sum() of floats compensated; task sizes and completion
# ratios (both in the trace) are sums, so their last bits move with it.
pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="digests were computed with the uncompensated float sum() of 3.11",
)

TOPO = FatTree(k=4)
HOSTS = list(TOPO.hosts)[:8]
_SWITCHES = set(TOPO.switches)
CORE = [
    l.index for l in TOPO.links if l.src in _SWITCHES and l.dst in _SWITCHES
]
# core-link outages, plus a host cut off for good and another briefly
FAULTS = [
    LinkFault(CORE[3], 0.004, 0.015),
    LinkFault(CORE[10], 0.006, 0.030),
    LinkFault(CORE[17], 0.010, float("inf")),
    LinkFault(CORE[25], 0.012, 0.020),
    *(LinkFault(l.index, 0.012, float("inf"))
      for l in TOPO.links if l.dst == HOSTS[1]),
    *(LinkFault(l.index, 0.005, 0.009)
      for l in TOPO.links if l.src == HOSTS[2]),
]


def _tasks():
    return generate_workload(
        WorkloadConfig(
            num_tasks=24, arrival_rate=1000.0, mean_deadline=0.015,
            mean_flow_size=300_000.0, mean_flows_per_task=4.0, seed=3,
        ),
        HOSTS,
    )


def _flow_digest(result) -> str:
    h = hashlib.sha256()
    for fs in result.flow_states:
        h.update(
            f"{fs.flow.flow_id}:{fs.status.value}:{fs.completed_at!r}:"
            f"{fs.bytes_sent!r}:{fs.remaining!r}\n".encode()
        )
    for ts in result.task_states:
        h.update(f"{ts.task.task_id}:{ts.accepted}:{ts.outcome.value}\n".encode())
    return h.hexdigest()


_BATCHED = dict(batch_window=0.002, control_latency=0.0005)
TAPS_CASES = {
    "plain": (dict(), False),
    "prospective-faults": (dict(preemption=PreemptionPolicy.PROSPECTIVE), True),
    "batched": (_BATCHED, False),
    "batched-faults": (_BATCHED, True),
    "incremental-faults": (
        dict(batch_window=0.002, reallocate_inflight=False,
             preemption=PreemptionPolicy.PROSPECTIVE, flow_table_limit=6),
        True,
    ),
}


def taps_trace(case: str) -> TraceRecorder:
    kwargs, faulty = TAPS_CASES[case]
    recorder = TraceRecorder()
    Engine(TOPO, _tasks(), TapsScheduler(**kwargs),
           faults=FAULTS if faulty else None, trace=recorder).run()
    return recorder


def taps_trace_digest(case: str) -> str:
    return hashlib.sha256(taps_trace(case).dumps().encode()).hexdigest()


# non-default knobs of the exclusive-link schedulers
VARIANTS = {
    "PDQ flow_list_limit=2": lambda: PDQ(flow_list_limit=2),
    "PDQ early_termination=False": lambda: PDQ(early_termination=False),
    "Baraat stop_missed_flows=False": lambda: Baraat(stop_missed_flows=False),
}


def baseline_flow_digest(name: str, faulty: bool) -> str:
    scheduler = VARIANTS[name]() if name in VARIANTS else make_scheduler(name)
    result = Engine(TOPO, _tasks(), scheduler,
                    faults=FAULTS if faulty else None).run()
    return _flow_digest(result)


# The two batched cases run with control latency: the controller stamps
# its admission events with the time it emits them, while their plans start
# one round-trip later, so the trace's times never decrease.
TAPS_TRACE_SHA256 = {
    "batched": "681d6052572fe950cfa6d5c2ecfe0242d24f32c4981dd9eb31c66663c7ced82d",
    "batched-faults": "52b23937643eb6dcbefda939a778fa13784e4c31e3cb3f3fb46c94693d566574",
    "incremental-faults": "26fb914f3e76427799ebbb51ee2875fa20691617a68e7289c2b4f9f08f902c2b",
    "plain": "8be1eddefcdd05e5b87a63473da9058eee9488ad45870c7fd182c058a3ac0cef",
    "prospective-faults": "69643bb2f7513f08e919417cee30e999125d50102cef38a9a58f51af17fc0ce0",
}

BASELINE_FLOWS_SHA256 = {
    ("PDQ", False): "ec030aec1756d929c1818e4568a2d04c0bd03d592a598bc38fd9420bfe77a921",
    ("PDQ", True): "c091033a7f7a52c26ad3c72655b8d0a07d6ca8b837b2a38248b9dd706b2ce405",
    ("D3", False): "bfb64064b847423926433db9921e901a50cb4888d3acb670cf26881aaa5a0416",
    ("D3", True): "eb12320bd3ab8b433e19cc5e019b42addf9dbfcf51913a683afb33d2f3ae9945",
    ("D2TCP", False): "95f7a234eedcbabbab11bf1ca80da385da7a1421cfd2caff912e2a0d3ebb4cfd",
    ("D2TCP", True): "2ba4e13ebf49258314caecb1a28808eee42191c617a17dec3b199969bb3bd87f",
    ("Fair Sharing", False): "d748e0adf2c5d83899cf766a69147c7d3d06589d164744ccc18caf16c21950b0",
    ("Fair Sharing", True): "fc14d4ee85cce0e9648a8b7c6b1b7848615a5ef22c9c3ce962915d2b7472bc26",
    ("Baraat", False): "9c9e063eeffd8fb8d5f3a279cefde72ba4f958fa20a345a1b4cd1eb98bc92d90",
    ("Baraat", True): "ef64f0d13e1f90a66055f9c35ff77ffb140511b7ecec1248e5f65f8b5ee34bcb",
    ("Varys", False): "87dba9fbb45eb5c2a52e8156b4f7dd543853e23abef96936d98e4d040b4fcc6c",
    ("Varys", True): "0549df66231d9b523fb7454b821aedeb58d5e0d7cd3ecc14f8435167fbf9ac9b",
    ("PDQ flow_list_limit=2", False): "2e90bd7312bcf3556930d129711cd41a9edc284281e3a5573a7d11b778d53282",
    ("PDQ flow_list_limit=2", True): "5676d7c289fd51ba3874c4faf22f0f774ec7b77a82bd88d10b88e9a904ad9a65",
    ("PDQ early_termination=False", False): "574e694ea4ecf8010f1111929b5374b941407b972e15a46b56f701e40bae05e8",
    ("PDQ early_termination=False", True): "a0be993c7bb43055bd075ed25a5f1f63e0f05c3c44d006a2cee41d10179b7c7c",
    ("Baraat stop_missed_flows=False", False): "b793731d56c91630ab80881285e476b36546d7c7606660836cde90f82fe6f86e",
    ("Baraat stop_missed_flows=False", True): "ef0d6bd5f1c765ab656f66fd530211e254061115bc7c5c3d13e651c194c8b7ee",
}


@pytest.mark.parametrize("case", sorted(TAPS_CASES))
def test_taps_trace_matches_golden(case):
    assert taps_trace_digest(case) == TAPS_TRACE_SHA256[case]


@pytest.mark.parametrize("case", sorted(TAPS_CASES))
def test_taps_golden_trace_audits_clean(case):
    report = audit_trace(taps_trace(case))
    assert report.ok, report.summary()


@pytest.mark.parametrize("name,faulty", sorted(BASELINE_FLOWS_SHA256))
def test_baseline_outcomes_match_golden(name, faulty):
    assert baseline_flow_digest(name, faulty) == BASELINE_FLOWS_SHA256[
        (name, faulty)
    ]
