"""The benchmark's three workloads and the seeded inputs they run on.

Every workload is an open loop in simulated time: task arrivals are a
Poisson process drawn in advance from the seed, so host speed never paces
the input.  All three use 64 hosts of a k=8 fat-tree with at most 8
candidate paths per endpoint pair.  Each task has exactly 25 flows, so the
total flow count does not vary with the seed (it would add a seed-to-seed
spread of a few percent to every timing, quadratically on the burst).

An input is a list of independent *episodes*, each simulated by its own
engine and scheduler; episode ``k`` of seed ``s`` is generated from seed
``s + k * EPISODE_STRIDE``.  Several small episodes average the seed's
luck on a workload whose cost is superlinear in its size (the burst).

``taps-steady`` and ``pdq-steady`` share one input configuration, so the
same seed gives both the identical task list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.fattree import FatTree
from repro.net.paths import PathService
from repro.sim.faults import LinkFault
from repro.workload.flow import Task
from repro.workload.generator import WorkloadConfig, generate_workload

FAT_TREE_K = 8
HOSTS_USED = 64
MAX_PATHS = 8
EPISODE_STRIDE = 1_000_003

AUDIT_EPISODES = 4
AUDIT_TASKS = 40
"""The audit input of an untraced workload: this many short episodes of
the workload's shape, from sub-seeds no measured episode uses.  Several
short episodes vary less from seed to seed than one long prefix."""

STEADY = dict(
    num_tasks=1000,
    arrival_rate=400.0,
    mean_deadline=0.040,
    mean_flow_size=200_000.0,
    mean_flows_per_task=25.0,
    flows_per_task_dist="constant",
)
"""λ = 400 tasks/s with 40 ms deadlines: ``Ftmp`` levels off at about 50
flows, so per-admission cost is flat after the warm-up.  A seed's CPU
time grows faster than its work (admission cost grows with the in-flight
set), so the input is as long as three simulations of it in one run
allow: 1000 tasks, about 5.5 s of CPU for TAPS and 6 s for PDQ on the
reference host (see ``probe``).  At
600 tasks/s the network runs close to saturation and the in-flight set
still drifted upward late in a 1000-task run (seed 7: block medians of
|Ftmp| from 58 to 110 flows), so the window's admission cost trended."""

BURST = dict(
    num_tasks=20,
    arrival_rate=2200.0,
    mean_deadline=0.38,
    mean_flow_size=300_000.0,
    mean_flows_per_task=25.0,
    flows_per_task_dist="constant",
)
"""The controller perf-test shape: every task arrives within ~9 ms and
stays in flight, so ``Ftmp`` climbs to about 500 flows.  Six independent
bursts make one input: the admission percentiles take, at each position of
the ramp, the median over six bursts.  Twenty tasks a burst keep one
simulation of the input near 3 s of CPU on the reference host, so a run
repeats it several times."""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``warmup`` is the number of admissions skipped before the
    steady-state window of each episode that the admission percentiles
    are taken over; it is fixed by admission index, never by elapsed time.
    ``faults`` is the number of seeded core-link outages per episode;
    ``traced`` records the decision trace and writes, loads and audits it
    after each simulation.
    """

    name: str
    scheduler: str
    config: dict
    warmup: int
    faults: int
    traced: bool
    episodes: int = 1


@dataclass(frozen=True)
class Episode:
    """One independently simulated part of a workload's input."""

    tasks: list[Task]
    faults: list[LinkFault]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("taps-steady", "taps", STEADY, warmup=100, faults=0,
                 traced=False),
        Workload("pdq-steady", "pdq", STEADY, warmup=100, faults=0,
                 traced=False),
        Workload("taps-burst-audit", "taps", BURST, warmup=0, faults=12,
                 traced=True, episodes=6),
    )
}


def build_network() -> tuple[FatTree, list[str]]:
    """The fat-tree and the hosts the workloads draw endpoints from."""
    topo = FatTree(k=FAT_TREE_K)
    return topo, list(topo.hosts)[:HOSTS_USED]


def warm_paths(topo: FatTree, hosts: list[str]) -> PathService:
    """A path service with every ordered host pair already enumerated, so
    lazy path enumeration never lands inside a timed admission."""
    paths = PathService(topo, max_paths=MAX_PATHS)
    for src in hosts:
        for dst in hosts:
            if src != dst:
                paths.candidates(src, dst)
    return paths


def generate_episodes(
    workload: Workload, seed: int, topo: FatTree, hosts: list[str]
) -> list[Episode]:
    """The workload's input for ``seed``."""
    return _episodes(workload, workload.config, seed,
                     range(workload.episodes), topo, hosts)


def audit_episodes(
    workload: Workload, seed: int, topo: FatTree, hosts: list[str]
) -> list[Episode]:
    """The audit input of an untraced workload for ``seed``."""
    first = workload.episodes
    return _episodes(workload, dict(workload.config, num_tasks=AUDIT_TASKS),
                     seed, range(first, first + AUDIT_EPISODES), topo, hosts)


def _episodes(workload, config, seed, ks, topo, hosts) -> list[Episode]:
    episodes = []
    for k in ks:
        sub_seed = seed + k * EPISODE_STRIDE
        tasks = generate_workload(WorkloadConfig(seed=sub_seed, **config), hosts)
        episodes.append(Episode(tasks, generate_faults(workload, sub_seed, topo)))
    return episodes


def generate_faults(workload: Workload, seed: int, topo: FatTree) -> list[LinkFault]:
    """Seeded outages of switch-to-switch links (hosts keep their access
    links, so every endpoint stays reachable).

    Outages start uniformly within the first 70% of the mean deadline and
    last an exponential time with a third of it as mean: the window in
    which the burst's flows are still in flight.
    """
    if not workload.faults:
        return []
    rng = np.random.default_rng([seed, 0xFA17])
    switches = set(topo.switches)
    core = [
        l.index for l in topo.links if l.src in switches and l.dst in switches
    ]
    window = workload.config["mean_deadline"]
    faults = []
    for i in rng.choice(len(core), size=workload.faults, replace=False):
        start = float(rng.uniform(0.0, 0.7 * window))
        length = float(rng.exponential(window / 3))
        faults.append(LinkFault(core[i], start, start + max(length, 1e-4)))
    return faults
