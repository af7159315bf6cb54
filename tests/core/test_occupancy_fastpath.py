"""OccupancyLedger: segment cache, partial folds, trial journal.

The cache and the journal are pure performance machinery — every observable
value must be identical to an uncached, copy-based ledger.  The property
test drives the ledger through arbitrary commit/query/trial/rebuild/clear
sequences against a hand-rolled model (dict of link → IntervalSet with
deep-copy trial snapshots) and checks ``union_for`` and the recombined
``union_parts`` float-for-float after every step; the unit tests pin the
journal's edge semantics and the segment cache's hit counting and eviction.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.core.occupancy import OccupancyLedger
from repro.obs.hotpath import HotPathCounters
from repro.util.intervals import IntervalSet, merge_boundaries, union_all

LINKS = list(range(6))

paths = st.lists(st.sampled_from(LINKS), min_size=1, max_size=4,
                 unique=True).map(tuple)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), paths,
                  st.floats(min_value=0.0, max_value=40.0),
                  st.floats(min_value=0.5, max_value=8.0)),
        st.tuples(st.just("query"), paths),
        st.just(("begin",)),
        st.just(("rollback",)),
        st.just(("commit_trial",)),
        st.just(("clear",)),
        st.just(("rebuild",)),
    ),
    max_size=30,
)


def _model_union(model, path):
    return union_all([model[l] for l in path if l in model])


def _parts_union(ledger, path):
    return merge_boundaries(*ledger.union_parts(path, {}))


@given(ops, st.lists(paths, min_size=1, max_size=4))
@settings(max_examples=150)
def test_cached_ledger_matches_model(sequence, probes):
    """Arbitrary commit/query/trial/rebuild/clear sequences: the ledger's
    unions equal a snapshot-copy reference model at every step."""
    ledger = OccupancyLedger()
    model: dict[int, IntervalSet] = {}
    snapshot: dict[int, IntervalSet] | None = None
    committed: list[tuple[tuple[int, ...], IntervalSet]] = []

    for op in sequence:
        kind = op[0]
        if kind == "commit":
            _, path, start, width = op
            slices = IntervalSet.single(start, start + width)
            ledger.commit(path, slices)
            committed.append((path, slices))
            # the model journals by eager deep copy at begin_trial; the
            # ledger by lazy reference snapshots — results must agree
            for l in path:
                if l in model:
                    model[l] = model[l].union(slices)
                else:
                    model[l] = slices.copy()
        elif kind == "query":
            _, path = op
            assert ledger.union_for(path)._b == _model_union(model, path)._b
            assert _parts_union(ledger, path) == _model_union(model, path)._b
        elif kind == "begin":
            if not ledger.in_trial:
                ledger.begin_trial()
                snapshot = {l: s.copy() for l, s in model.items()}
                committed_mark = len(committed)
        elif kind == "rollback":
            if ledger.in_trial:
                ledger.rollback_trial()
                assert snapshot is not None
                model, snapshot = snapshot, None
                del committed[committed_mark:]
        elif kind == "commit_trial":
            if ledger.in_trial:
                ledger.commit_trial()
                snapshot = None
        elif kind == "clear":
            ledger.clear()
            model, snapshot = {}, None
            committed = []
        elif kind == "rebuild":
            # rebuild = clear + re-commit every plan made so far; aborts
            # any active trial and must fully repopulate the link index
            ledger.rebuild(committed)
            model, snapshot = {}, None
            for path, slices in committed:
                for l in path:
                    if l in model:
                        model[l] = model[l].union(slices)
                    else:
                        model[l] = slices.copy()

    for path in probes:
        assert ledger.union_for(path)._b == _model_union(model, path)._b
        assert ledger.union_for(path)._b == _model_union(model, path)._b
        # repeat the probe so the segment cache serves one from store
        assert _parts_union(ledger, path) == _model_union(model, path)._b
        assert _parts_union(ledger, path) == _model_union(model, path)._b


@given(ops, paths)
@settings(max_examples=100)
def test_union_parts_recombines_to_union_for(sequence, path):
    """merge(shared, interior) from union_parts equals union_for, for any
    ledger state and any path length."""
    ledger = OccupancyLedger()
    for op in sequence:
        if op[0] == "commit":
            _, p, start, width = op
            ledger.commit(p, IntervalSet.single(start, start + width))
    shared, inter = ledger.union_parts(path, {})
    assert merge_boundaries(shared, inter) == ledger.union_for(path)._b


# -- trial journal ---------------------------------------------------------


def test_double_begin_trial_raises():
    ledger = OccupancyLedger()
    ledger.begin_trial()
    with pytest.raises(RuntimeError):
        ledger.begin_trial()


def test_rollback_without_trial_raises():
    with pytest.raises(RuntimeError):
        OccupancyLedger().rollback_trial()


def test_commit_trial_without_trial_raises():
    with pytest.raises(RuntimeError):
        OccupancyLedger().commit_trial()


def test_rollback_restores_new_and_existing_links():
    ledger = OccupancyLedger()
    ledger.commit((0, 1), IntervalSet.single(0, 2))
    ledger.begin_trial()
    ledger.commit((1, 2), IntervalSet.single(5, 7))  # 1 existed, 2 is new
    ledger.rollback_trial()
    assert ledger.occupied(0).intervals() == [(0, 2)]
    assert ledger.occupied(1).intervals() == [(0, 2)]
    assert not ledger.occupied(2)
    assert not ledger.in_trial


def test_commit_trial_keeps_changes():
    ledger = OccupancyLedger()
    ledger.begin_trial()
    ledger.commit((0,), IntervalSet.single(1, 2))
    ledger.commit_trial()
    assert ledger.occupied(0).intervals() == [(1, 2)]


def test_rollback_evicts_stale_cached_unions():
    ledger = OccupancyLedger()
    path = (0, 1, 2, 3)  # interior segment (1, 2)
    ledger.commit((1, 2), IntervalSet.single(0, 2))
    ledger.union_parts(path, {})
    assert ledger.cache_info()["entries"] == 1
    ledger.begin_trial()
    ledger.commit((2,), IntervalSet.single(5, 6))
    assert ledger.union_parts(path, {})[1] == [0.0, 2.0, 5.0, 6.0]
    ledger.rollback_trial()
    # the segment cached during the trial must not survive the rollback
    assert ledger.union_parts(path, {})[1] == [0.0, 2.0]


def test_clear_aborts_active_trial():
    ledger = OccupancyLedger()
    ledger.begin_trial()
    ledger.clear()
    assert not ledger.in_trial
    ledger.begin_trial()  # does not raise: clear dropped the journal


def test_rollback_counts_in_profile():
    profile = HotPathCounters()
    ledger = OccupancyLedger(profile=profile)
    ledger.begin_trial()
    ledger.commit((0,), IntervalSet.single(0, 1))
    ledger.rollback_trial()
    assert profile.trials_rolled_back == 1


# -- segment cache hits and eviction ---------------------------------------


def test_cache_hit_counted_and_value_correct():
    profile = HotPathCounters()
    ledger = OccupancyLedger(profile=profile)
    path = (0, 1, 2, 3)
    ledger.commit((1,), IntervalSet.single(0, 1))
    ledger.union_parts(path, {})  # miss: folded and stored
    hits_before = profile.union_cache_hits
    _, got = ledger.union_parts(path, {})
    assert profile.union_cache_hits == hits_before + 1
    assert got == [0.0, 1.0]


def test_commit_evicts_only_touched_paths():
    ledger = OccupancyLedger()
    a, b = (0, 1, 2, 3), (4, 5, 6, 7)  # interior segments (1, 2) and (5, 6)
    ledger.commit((1,), IntervalSet.single(0, 1))
    ledger.commit((5,), IntervalSet.single(0, 1))
    ledger.union_parts(a, {})
    ledger.union_parts(b, {})
    assert ledger.cache_info()["entries"] == 2
    ledger.commit((2,), IntervalSet.single(3, 4))  # dirties only segment (1, 2)
    assert ledger.cache_info()["entries"] == 1
    assert ledger.union_parts(a, {})[1] == [0.0, 1.0, 3.0, 4.0]
    assert ledger.union_parts(b, {})[1] == [0.0, 1.0]


def test_interior_segment_cached_on_first_query():
    """union_parts on a 6-link path caches the (agg↔core) interior segment
    on its first query."""
    ledger = OccupancyLedger()
    path = (0, 1, 2, 3, 4, 5)
    ledger.commit((2,), IntervalSet.single(0, 1))
    profile = HotPathCounters()
    ledger._profile = profile
    shared, inter = ledger.union_parts(path, {})
    assert inter == [0.0, 1.0]
    assert (2, 3) in ledger._unions  # interior = path[2:-2]
    _, again = ledger.union_parts(path, {})
    assert again == [0.0, 1.0]
    assert profile.union_cache_hits >= 1
