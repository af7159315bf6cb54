"""The reference allocator: Alg. 2 evaluated the obvious way.

Production's :func:`~repro.core.allocation.path_calculation` scores
candidates with a fused pair scan over cached partial folds and cuts
losing candidates short.  :func:`reference_path_calculation` is the
pre-optimisation evaluation it must agree with float for float: for every
candidate, the full union of its links' occupancy, that union's idle
complement, and a first fit over it; the winner's slices come from a
first fit over its union.  :class:`ReferenceTaps` is the TAPS controller
with this allocator in place of production's, so a test or benchmark can
demand byte-identical decision traces from the two.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.allocation import FlowPlan
from repro.core.controller import TapsScheduler
from repro.util.errors import AllocationError
from repro.util.intervals import EPS, IntervalSet, union_all


def _union(ledger, path) -> IntervalSet:
    """``T_ocp`` of ``path``: the union of its links' occupied sets."""
    return union_all(ledger.occupied(link) for link in path)


def reference_path_calculation(
    flows,
    ledger,
    paths,
    capacity: float,
    now: float,
    horizon: float,
    on_unplannable: str = "raise",
    profile=None,
) -> dict[int, FlowPlan]:
    """Alg. 2 with a full union + complement + first fit per candidate.

    Same contract as :func:`~repro.core.allocation.path_calculation`
    (flows pre-sorted, winners committed to ``ledger`` in order,
    ``on_unplannable`` of ``"raise"`` or ``"skip"``); ``profile`` counts
    calls, seconds and candidates evaluated.
    """
    if on_unplannable not in ("raise", "skip"):
        raise ValueError(f"bad on_unplannable {on_unplannable!r}")
    t0 = perf_counter()
    plans: dict[int, FlowPlan] = {}
    for fs in flows:
        f = fs.flow
        duration = fs.remaining / capacity
        release = max(now, f.release)
        candidates = paths.candidates(f.src, f.dst)
        if not candidates:
            raise AllocationError(f"no path for flow {f.flow_id}: {f.src}->{f.dst}")

        if len(candidates) == 1:
            best_path = candidates[0]
        else:
            # line 7–14: keep the path with the earliest completion
            best_path, best_end = None, float("inf")
            for p in candidates:
                if profile is not None:
                    profile.candidates_evaluated += 1
                idle = _union(ledger, p).complement(release, horizon)
                try:
                    end = idle.idle_fit_end(duration, release)
                except ValueError:
                    continue  # this candidate cannot fit (blocked link)
                if end < best_end - EPS:
                    best_end, best_path = end, p
        if best_path is None:
            if on_unplannable == "skip":
                continue
            raise AllocationError(
                f"no candidate path can fit flow {f.flow_id} "
                f"({f.src}->{f.dst}) within horizon {horizon:g}"
            )

        if duration <= EPS:
            slices, completion = IntervalSet(), release
        else:
            try:
                slices = _union(ledger, best_path).occupied_first_fit(
                    duration, release, horizon
                )
            except ValueError:
                if on_unplannable == "skip":
                    continue
                raise AllocationError(
                    f"horizon {horizon:g} too small for flow {f.flow_id}"
                ) from None
            completion = slices.end()
            ledger.commit(best_path, slices)
        plans[f.flow_id] = FlowPlan(
            flow_state=fs, path=best_path, slices=slices, completion=completion
        )
    if profile is not None:
        profile.path_calculation_calls += 1
        profile.path_calculation_seconds += perf_counter() - t0
    return plans


class ReferenceTaps(TapsScheduler):
    """TAPS whose trials allocate with :func:`reference_path_calculation`."""

    def _allocate(self, ftmp, ledger, start, horizon):
        return reference_path_calculation(
            ftmp, ledger, self.paths, self._capacity, start, horizon,
            on_unplannable="skip", profile=self.stats.profile,
        )
