"""TAPS reproduction benchmark: one command, three workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload taps-steady --seed 7 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer timing;
``--trace 1`` makes the separate layer-timed run and reports the
per-layer metrics (see ``perfbench/README.md``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, prefixed
``perfbench:``, carries the run's diagnostics (outcome digest, admission
window size and trend in CPU time and in flows planned, wall/CPU ratio).  The exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_PREFIX = ".perfbench-"
"""Per-run scratch directory for trace files, created in the checkout's
root and removed when the run ends."""

SETUP_REPEATS = 3
MIN_REPS = 3
"""Repetitions of the input that every run makes, whatever ``--seconds``
says: the medians over repetitions need a few."""
MAX_REPS = 40

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_cpu_s": "s",
    "admit_p50_ms": "ms",
    "admit_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "task_completion_ratio": "ratio",
    "app_throughput": "ratio",
    "trace_mb": "MB",
    "trace_post_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "trace.bytes":
        return "bytes"
    if name.endswith(("_rate", "_ratio", "_share", "_overhead")):
        return "ratio"
    if name.endswith("_mean") or name == "workload.flows":
        return "flows"
    return "count"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="wall-clock budget of the measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 = layer-timed run, per-layer metrics")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def set_up(workload, seed: int, layer_cpu: dict) -> SimpleNamespace:
    """Build the topology, warm its paths and generate the input,
    ``SETUP_REPEATS`` times; returns the last inputs.  ``layer_cpu``
    receives the least CPU seconds of each part and of the whole."""
    from workloads import (
        audit_episodes, build_network, generate_episodes, warm_paths,
    )

    parts: dict[str, list[float]] = {
        "net.topology_cpu_s": [], "net.paths_warm_cpu_s": [],
        "workload.generate_cpu_s": [], "setup": [],
    }
    inputs = None
    for _ in range(SETUP_REPEATS):
        t0 = time.thread_time()
        topo, hosts = build_network()
        t1 = time.thread_time()
        paths = warm_paths(topo, hosts)
        t2 = time.thread_time()
        episodes = generate_episodes(workload, seed, topo, hosts)
        audit = [] if workload.traced else audit_episodes(
            workload, seed, topo, hosts
        )
        t3 = time.thread_time()
        parts["net.topology_cpu_s"].append(t1 - t0)
        parts["net.paths_warm_cpu_s"].append(t2 - t1)
        parts["workload.generate_cpu_s"].append(t3 - t2)
        parts["setup"].append(t3 - t0)
        if inputs is not None and (episodes, audit) != (
            inputs.episodes, inputs.audit_episodes
        ):
            raise RuntimeError("input generation is not deterministic")
        inputs = SimpleNamespace(
            topology=topo, paths=paths, episodes=episodes, audit_episodes=audit,
        )
    for name, values in parts.items():
        layer_cpu[name] = min(values)
    layer_cpu["net.path_pairs"] = paths.cache_info()["pairs"]
    layer_cpu["workload.flows"] = sum(
        len(t.flows) for e in inputs.episodes for t in e.tasks
    )
    return inputs


def repeat(step, seconds: float, at_least: int = 1) -> list:
    """Call ``step()`` ``at_least`` times, then again while one more call
    is expected to end within ``seconds`` of wall time from the start
    (capped at ``MAX_REPS``)."""
    start = time.perf_counter()
    results = [step() for _ in range(at_least)]
    while len(results) < MAX_REPS:
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            break
        results.append(step())
    return results


def consistency_failures(reps) -> list[str]:
    """Repetitions of one input must decide identically."""
    first = reps[0]
    return [
        f"repetition {i} diverged from repetition 0"
        for i, r in enumerate(reps[1:], 1)
        if (r.digest, r.exact, r.counters, r.trace_bytes)
        != (first.digest, first.exact, first.counters, first.trace_bytes)
    ]


def end_to_end(workload, inputs, seconds: float, setup_s: float, out: Path,
               first_batch: list[float]):
    """The end-to-end metrics; returns (values, diagnostics, timed
    repetitions, other checked runs).

    Every repetition simulates the input once and puts each recorded trace
    through one write/load/audit cycle; on an untraced workload those are
    the audit input's traces, cycled before each repetition.  A batch of
    host-speed probes runs after each repetition (``first_batch`` ran
    before the first), and every time is scaled by the probes around it
    (see ``probe``): a repetition's by the median of the batches on either
    side and of the probes inside it, an audit cycle's like the repetition
    it precedes.  ``setup_s`` arrives unscaled and is scaled by the median
    of every probe in the run, the steadiest reading of the host's speed.
    Each metric is the median over the repetitions.
    """
    from measure import (
        audit_pass, p90, post_cycle, scaled_post, scaled_run_cpu, simulate,
        steady_window, window_trend,
    )
    from probe import probe_batch, scaled

    audit = None if workload.traced else audit_pass(workload, inputs, out)
    batches = [first_batch]

    def step():
        if audit is not None:
            post_cycle(audit, out)
        rep = simulate(workload, inputs, out)
        batches.append(probe_batch())
        rep.probe = statistics.median(batches[-2] + rep.probes + batches[-1])
        return rep

    reps = repeat(step, seconds, MIN_REPS)
    window = steady_window(reps)
    work = steady_window(reps, "work_windows")
    probes = [r.probe for r in reps]
    if audit is None:
        post = [sum(cycles, []) for cycles in zip(*(r.post for r in reps))]
    else:
        # cycle 0 ran in audit_pass and cycle k at the start of step k - 1,
        # just before the simulation of reps[max(k - 1, 0)]
        post, probes = audit.post, [probes[0], *probes]
    all_probes = [t for b in batches for t in b] + [
        t for r in reps for t in r.probes
    ]
    values = {
        "setup_s": scaled(setup_s, statistics.median(all_probes)),
        "run_cpu_s": scaled_run_cpu(reps),
        "admit_p50_ms": statistics.median(window) * 1e3,
        "admit_p90_ms": p90(window) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "task_completion_ratio": reps[0].exact["task_completion_ratio"],
        "app_throughput": reps[0].exact["app_throughput"],
        "trace_mb": (reps[0] if audit is None else audit).trace_bytes / 1e6,
        "trace_post_s": scaled_post(post, probes),
    }
    diag = {
        "admit_window_samples": len(window),
        "admit_warmup": workload.warmup,
        "admit_window_trend": window_trend(window),
        "admit_window_work_trend": window_trend(work) if work else None,
        "run_cpu_median_s": statistics.median(r.run_cpu for r in reps),
        "host.probe_cpu_s": statistics.median(all_probes),
    }
    return values, diag, reps, [] if audit is None else [audit]


def layer_timed(workload, inputs, seconds: float, layer_cpu: dict, out: Path,
                first_batch: list[float]):
    """The per-layer metrics: plain and layer-timed simulations in
    alternation; returns like :func:`end_to_end`.  Layer times are CPU
    seconds as measured, not scaled; ``host.probe_cpu_s`` gives the probe's
    time over the run, to read them by."""
    from layers import Clock, TimedRecorder, core_spans, layer_metrics, layered
    from measure import audit_pass, simulate
    from probe import probe_batch

    audit = None
    if not workload.traced:
        audit_clock = Clock()
        audit = audit_pass(workload, inputs, out,
                           make_recorder=lambda: TimedRecorder(audit_clock))
    plain, timed, samples = [], [], []

    def pair():
        plain.append(simulate(workload, inputs, out))
        clock = Clock()
        sched_cls = layered(workload.scheduler, clock)
        scheds = []

        def make_sched():
            scheds.append(sched_cls())
            return scheds[-1]

        def make_recorder():
            return TimedRecorder(clock) if workload.traced else None

        with core_spans(clock):
            rep = simulate(workload, inputs, out, make_sched=make_sched,
                           make_recorder=make_recorder)
        traced = (clock, rep) if audit is None else (audit_clock, audit)
        samples.append(layer_metrics(clock, scheds, rep, *traced))
        timed.append(rep)

    repeat(pair, seconds)
    values = {
        name: statistics.median(s[name] for s in samples)
        for name in samples[0]
    }
    values.update(layer_cpu)
    values["host.probe_cpu_s"] = statistics.median(first_batch + probe_batch())
    values["bench.layer_timing_overhead"] = (
        values["sim.run_cpu_s"] / statistics.median(r.run_cpu for r in plain)
    )
    # consistency_failures compares every layer-timed run with the plain
    # ones, so layer timing that changed a decision fails the run
    return values, {}, plain + timed, [] if audit is None else [audit]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    from probe import probe_batch
    import measure  # noqa: F401  (the rest of repro loads before set-up)
    import layers  # noqa: F401

    import_cpu = time.process_time()
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    layer_cpu: dict = {"host.import_cpu_s": import_cpu}
    inputs = set_up(workload, args.seed, layer_cpu)
    first_batch = probe_batch()
    setup_s = import_cpu + layer_cpu.pop("setup")

    out = Path(tempfile.mkdtemp(prefix=OUT_PREFIX, dir=ROOT))
    try:
        if args.trace:
            values, diag, reps, extra = layer_timed(
                workload, inputs, args.seconds, layer_cpu, out, first_batch
            )
        else:
            values, diag, reps, extra = end_to_end(
                workload, inputs, args.seconds, setup_s, out, first_batch
            )
    finally:
        shutil.rmtree(out, ignore_errors=True)

    failures = sorted(
        {f for r in reps + extra for f in r.failures}
        | set(consistency_failures(reps))
    )
    failed = sum(1 for r in reps + extra if r.failures)
    wall_cpu_ratio = sum(r.run_wall for r in reps) / sum(r.run_cpu for r in reps)
    if args.trace:
        values["host.wall_cpu_ratio"] = wall_cpu_ratio
        units = {name: per_layer_unit(name) for name in values}
    else:
        units = END_TO_END_UNITS
    diag.update({
        "workload": workload.name,
        "seed": args.seed,
        "reps": len(reps),
        "outcome_digest": reps[0].digest,
        "host.wall_cpu_ratio": wall_cpu_ratio,
        "failures": failures,
    })
    correct = not failures
    print("perfbench: " + json.dumps(diag, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(reps) + len(extra),
        "failed": max(failed, 0 if correct else 1),
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in sorted(units)
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
