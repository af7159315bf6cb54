"""The host-speed probe that every timing of the benchmark is scaled by.

The benchmark's host is a 2-vCPU VM on a shared machine.  Its CPU speed
swings by up to 2x in stretches from under a second to minutes, and that
slowdown is all user time: CPU time does not leave it out.  The probe is
a fixed piece of pure-Python work drawn from the standard library (string
matching, rational arithmetic, JSON, regular expressions, a heap), whose
interpreter-heavy mix slows down with the host much as the simulation
does.  It shares no code with the program, so a change to the program
never moves it.

A timing ``t`` taken next to probes that took ``p`` of CPU is reported
as ``t * PROBE_REF_S / p``: the CPU seconds it would have taken on a host
where the probe takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import difflib
import fractions
import heapq
import json
import random
import re
import statistics
import time

PROBE_REF_S = 0.010
"""The probe's CPU time on the reference host (it took 7–11 ms on an
uncontended core of a 2 GHz Xeon Sapphire Rapids KVM guest)."""

PROBES_PER_BATCH = 4


def host_probe() -> int:
    """The fixed probe workload; returns a checksum so nothing is skipped."""
    rng = random.Random(12345)
    words = [
        "".join(rng.choice("abcdefghij") for _ in range(rng.randint(2, 8)))
        for _ in range(600)
    ]
    a, b = " ".join(words[:300]), " ".join(words[150:450])
    matched = round(difflib.SequenceMatcher(None, a, b).ratio() * 1000)
    total = sum(
        (fractions.Fraction(i, i + 7) for i in range(1, 300)),
        fractions.Fraction(0),
    )
    doc = [{"id": i, "name": w, "tags": [w[:2], w[-2:]], "x": i * 0.5}
           for i, w in enumerate(words)]
    decoded = json.loads(json.dumps(doc))
    pattern = re.compile(r"(a|b)+c?d*")
    hits = sum(1 for w in words if pattern.match(w))
    statistics.median(rng.random() for _ in range(3000))
    heap: list = []
    for i in range(3000):
        heapq.heappush(heap, (rng.random(), i))
    while heap:
        heapq.heappop(heap)
    return matched + total.denominator % 97 + len(decoded) + hits


def probe_batch(n: int = PROBES_PER_BATCH) -> list[float]:
    """The CPU seconds of ``n`` probes in a row."""
    times = []
    for _ in range(n):
        t0 = time.thread_time()
        host_probe()
        times.append(time.thread_time() - t0)
    return times


def scaled(cpu_s: float, probe_s: float) -> float:
    """``cpu_s`` taken next to a probe of ``probe_s``, on the reference host."""
    return cpu_s * PROBE_REF_S / probe_s
