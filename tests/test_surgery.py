"""Tests for insertions, collapses, path-neighborhood modifications, and the
randomized reconstruction walk."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdt_ising.rng import stream
from cdt_ising.surgery import (
    INSERT_COUNT,
    Insertion,
    ReconstructionResult,
    _collapse_run,
    _slots,
    _thaw,
    apply_modification,
    collapse_horizontal_edge,
    collapse_run,
    embed,
    enumerate_plans,
    insert_pairs,
    insertion_sites,
    modified_indices,
    path_neighborhood,
    randomized_reconstruction,
    reconstruction_probability_bound,
    reconstruction_success_probability,
)
from cdt_ising.branching import sample_spine_forest
from cdt_ising.triangulation import (
    Triangulation,
    enumerate_triangulations,
    forest_to_triangulation,
    rotate_level,
)
from test_triangulation import out_degree_lists


def vertex_degree_map(t):
    out = {}
    for n in range(len(t.level_sizes)):
        for p in range(t.level_sizes[n]):
            d = t.vertex_degree(n, p)
            out[(n, p)] = (d.up or 0) + (d.down or 0) + 2
    return out


FIXTURE = forest_to_triangulation(((2,), (5, 1), (1,) * 6))
FIX_PATH = path_neighborhood(FIXTURE, [(0, 0), (1, 0)])
FIX_PLAN = {1: ((5,) * 10, (1,) * 10)}
FIX_MOD = apply_modification(FIXTURE, FIX_PATH, FIX_PLAN, threshold=8, count=10)
CHAIN = forest_to_triangulation(((1,),) * 4)
CHAIN_PATH = ((0, 0), (1, 0), (2, 0), (3, 0))


def test_insertion_sites_product_count():
    t = forest_to_triangulation(((2,), (1, 2), (1, 1, 1)))
    for pos in range(t.level_sizes[1]):
        d = t.vertex_degree(1, pos)
        sites = insertion_sites(t, 1, pos)
        assert len(sites) == d.up * d.down
    with pytest.raises(ValueError):
        insertion_sites(t, 0, 0)


def test_insertion_validates_ordering():
    with pytest.raises(ValueError):
        Insertion(1, 0, ((2, 0), (1, 1)))


def test_elementary_insert_f_plus_two():
    t = forest_to_triangulation(((1,), (1,)))
    site = insertion_sites(t, 1, 0)[0]
    res = insert_pairs(t, Insertion(1, 0, ((site.up_slot, site.down_slot),)))
    t2 = res.triangulation
    assert t2.triangle_count == t.triangle_count + 2
    assert t2.level_sizes[1] == t.level_sizes[1] + 1


def test_insert_neighbor_degrees_grow_by_at_most_one():
    t = forest_to_triangulation(((2,), (2, 1), (1, 1, 1)))
    before = vertex_degree_map(t)
    for site in insertion_sites(t, 1, 0):
        t2 = insert_pairs(t, Insertion(1, 0, ((site.up_slot, site.down_slot),))).triangulation
        after = vertex_degree_map(t2)
        # up neighbor lives at level 2, unaffected by the level-1 renumbering
        un = site.up_neighbor
        assert after[un] == before[un] + 1
        # level-0 down neighbor is the root
        dn = site.down_neighbor
        assert after[dn] == before[dn] + 1


def test_roundtrip_all_enumerated():
    failures = 0
    for t, _ in enumerate_triangulations(2, 4):
        for pos in range(t.level_sizes[1]):
            for site in insertion_sites(t, 1, pos):
                res = insert_pairs(t, Insertion(1, pos, ((site.up_slot, site.down_slot),)))
                if collapse_run(res.triangulation, *res.new_horizontal_run) != t:
                    failures += 1
    assert failures == 0


def test_roundtrip_level_two_enumerated():
    # at a vertex whose parent's fan wraps onto it, the parent's own fan-start
    # edge is the last down slot; ordering it first broke these round trips
    sites = 0
    for t, _ in enumerate_triangulations(3, 3):
        for pos in range(t.level_sizes[2]):
            for site in insertion_sites(t, 2, pos):
                res = insert_pairs(t, Insertion(2, pos, ((site.up_slot, site.down_slot),)))
                assert collapse_run(res.triangulation, *res.new_horizontal_run) == t
                sites += 1
    assert sites == 3891


def test_tenfold_insert_and_undo():
    t = forest_to_triangulation(((2,), (4, 1), (1,) * 5))
    d = t.vertex_degree(1, 0)
    pairs = tuple(zip(sorted([0, 1, 1, 2, 3, 3, 4, 4, 4, 4]), sorted([0, 0, 0, 1, 1, 1, 1, 1, 1, 1])))
    res = insert_pairs(t, Insertion(1, 0, pairs))
    assert res.triangulation.triangle_count == t.triangle_count + 20
    assert collapse_run(res.triangulation, *res.new_horizontal_run) == t


def internal_vertex(data, t):
    level = data.draw(st.integers(1, t.top_level - 1))
    return level, data.draw(st.integers(0, t.level_sizes[level] - 1))


@settings(max_examples=200, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_insert_then_collapse_restores_arbitrary_triangulation(lists, data):
    t = forest_to_triangulation(lists)
    assume(t.top_level >= 2)
    level, pos = internal_vertex(data, t)
    d = t.vertex_degree(level, pos)
    k = data.draw(st.integers(1, 3))
    ups = sorted(data.draw(st.lists(st.integers(0, d.up - 1), min_size=k, max_size=k)))
    downs = sorted(data.draw(st.lists(st.integers(0, d.down - 1), min_size=k, max_size=k)))
    res = insert_pairs(t, Insertion(level, pos, tuple(zip(ups, downs))))
    assert res.triangulation.triangle_count == t.triangle_count + 2 * k
    assert collapse_run(res.triangulation, *res.new_horizontal_run) == t


@settings(max_examples=200, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_collapse_run_matches_single_edge_collapses(lists, data):
    t = forest_to_triangulation(lists)
    assume(t.top_level >= 2)
    level, _ = internal_vertex(data, t)
    k = t.level_sizes[level]
    assume(k >= 2)
    count = data.draw(st.integers(1, min(3, k - 1)))
    # the last two starts run through the wrap edge (k-1, 0)
    for start in {data.draw(st.integers(0, k - 1)), k - count, k - 1}:
        # reference: relabel so the run starts at 0, then collapse its first
        # edge count times
        ref = rotate_level(t, level, -start)
        for _ in range(count):
            ref = collapse_horizontal_edge(ref, level, 0)
        assert collapse_run(t, level, start, count).canonical_key == ref.canonical_key


def test_collapse_decreases_f_by_two():
    t = forest_to_triangulation(((3,), (1, 2, 0), (2, 1, 1)))
    for pos in range(t.level_sizes[1]):
        c = collapse_horizontal_edge(t, 1, pos)
        assert c.triangle_count == t.triangle_count - 2
        assert c.level_sizes[1] == t.level_sizes[1] - 1


def test_collapse_guards():
    t = forest_to_triangulation(((1,), (1,)))
    with pytest.raises(ValueError):
        collapse_horizontal_edge(t, 1, 0)  # self-loop level
    with pytest.raises(ValueError):
        collapse_horizontal_edge(t, 2, 0)  # top level
    t2 = forest_to_triangulation(((2,), (1, 1)))
    with pytest.raises(ValueError):
        collapse_horizontal_edge(t2, 1, 5)
    with pytest.raises(ValueError):
        collapse_run(t2, 1, 0, 2)  # needs k >= count+1


@pytest.mark.parametrize("call", [
    lambda t: insertion_sites(t, 1, 5),
    lambda t: collapse_run(t, 5, 0, 1),
    lambda t: collapse_run(t, 1, 7, 1),
    lambda t: collapse_run(t, 1, -3, 1),
], ids=["insertion_sites", "collapse_run", "collapse_run_start_past_level", "collapse_run_negative_start"])
def test_surgery_rejects_missing_vertex_or_level(call):
    t = forest_to_triangulation(((2,), (1, 2), (1, 1, 1)))
    with pytest.raises(ValueError):
        call(t)


def test_collapse_then_reinsert_closure():
    # collapsing a plain edge and re-inserting at the boundary slots restores
    # the original triangulation
    for i in range(60):
        t = forest_to_triangulation(sample_spine_forest(stream(91, i), 4))
        lvl = 1 if t.level_sizes[1] >= 2 else (2 if t.level_sizes[2] >= 2 else None)
        if lvl is None or lvl >= t.top_level:
            continue
        v = t.vertex_degree(lvl, 0)
        c = collapse_horizontal_edge(t, lvl, 0)
        back = insert_pairs(c, Insertion(lvl, 0, ((v.up - 1, v.down - 1),))).triangulation
        assert back.canonical_key == t.canonical_key


def test_path_neighborhood_requires_geodesic():
    t = forest_to_triangulation(((2,), (1, 1)))
    with pytest.raises(ValueError):
        path_neighborhood(t, [(0, 0), (1, 0), (1, 1)])


def test_embedding_unique_and_checks_degrees():
    t = forest_to_triangulation(((1,), (1,), (1,)))
    pn = path_neighborhood(t, [(0, 0), (1, 0), (2, 0)])
    assert embed(pn, t) == ((0, 0), (1, 0), (2, 0))
    other = forest_to_triangulation(((1,), (1,), (2,)))
    assert embed(pn, other) is None  # top split differs


def test_embedding_into_larger_host():
    # extending the triangulation above the path keeps the embedding alive
    t = forest_to_triangulation(((1,), (1,), (1,)))
    pn = path_neighborhood(t, [(0, 0), (1, 0)])
    host = forest_to_triangulation(((1,), (1,), (2,)))
    assert embed(pn, host) == ((0, 0), (1, 0))


def test_encoding_injective_within_host():
    # distinct locally geodesic paths never share an encoding
    for i in range(20):
        t = forest_to_triangulation(sample_spine_forest(stream(92, i), 4))
        seen = {}
        # depth-first over self-avoiding geodesic paths up to length 3
        adj = t.neighbors
        stack = [[0]]
        while stack:
            flat_path = stack.pop()
            path = [t.vertex_at(f) for f in flat_path]
            try:
                pn = path_neighborhood(t, path)
            except ValueError:
                continue
            key = (pn.splits, pn.entries, pn.exits)
            assert seen.setdefault(key, tuple(path)) == tuple(path)
            assert embed(pn, t) == tuple(path)
            if len(flat_path) <= 3:
                for u in adj[flat_path[-1]]:
                    if u not in flat_path:
                        stack.append(flat_path + [u])


def test_encoding_count_bound():
    # the (split, entry, exit) encoding never exceeds d^3 options per vertex
    t = FIXTURE
    pn = FIX_PATH
    degrees = pn.degrees()
    bound = 1
    for d in degrees:
        bound *= d**3
    # count the possible encodings of this degree sequence realized in t
    assert bound >= 1  # structural; each coordinate ranges over at most d values
    for j, (up, down) in enumerate(pn.splits):
        d = degrees[j]
        assert (up or 0) <= d and (down or 0) <= d
        for slot in (pn.entries[j], pn.exits[j]):
            if slot is not None:
                assert slot[1] < d


def test_apply_modification_empty_when_below_threshold():
    t = forest_to_triangulation(((1,), (1,), (1,)))
    pn = path_neighborhood(t, [(0, 0), (1, 0)])
    assert apply_modification(t, pn, {}, threshold=100, count=10) == t
    with pytest.raises(ValueError):
        apply_modification(t, pn, {1: ((0,), (0,))}, threshold=100, count=1)


def test_apply_modification_f_increase_and_measure_inequality():
    assert FIX_MOD.triangle_count == FIXTURE.triangle_count + 20
    mu = math.log(2.0)
    n = FIX_PATH.length
    lhs = math.exp(-mu * FIX_MOD.triangle_count)
    rhs = math.exp(-20.0 * n * mu) * math.exp(-mu * FIXTURE.triangle_count)
    assert lhs >= rhs * (1.0 - 1e-12)


def test_apply_modification_two_vertices():
    t = forest_to_triangulation(((3,), (2, 2, 2), (1, 1, 1, 1, 1, 1)))
    pn = path_neighborhood(t, [(0, 0), (1, 0), (2, 1)])
    eligible = modified_indices(pn, threshold=5)
    assert eligible == [1, 2]
    plans = {}
    for j in eligible:
        lvl, pos = pn.path[j]
        d = t.vertex_degree(lvl, pos)
        plans[j] = ((d.up - 1,) * 2, (d.down - 1,) * 2)
    out = apply_modification(t, pn, plans, threshold=5, count=2)
    assert out.triangle_count == t.triangle_count + 2 * 2 * 2


def test_reconstruction_trivial_success():
    t = FIXTURE
    r = randomized_reconstruction(t, t, [(0, 0)], stream(93, 0))
    assert r.success and r.contractions == ()


def test_reconstruction_frequency_beats_bound():
    attempts = 20000
    wins = 0
    for i in range(attempts):
        r = randomized_reconstruction(FIX_MOD, FIXTURE, FIX_PATH.path, stream(94, i))
        wins += r.success
    freq = wins / attempts
    bound = reconstruction_probability_bound(FIX_PATH.degrees())
    se = math.sqrt(max(freq * (1 - freq), 1e-12) / attempts)
    assert freq >= bound - 3 * se
    assert freq > 0
    exact = reconstruction_success_probability(FIX_MOD, FIXTURE, FIX_PATH.path)
    assert abs(freq - exact) <= 4 * math.sqrt(exact * (1 - exact) / attempts)


@pytest.mark.parametrize("t_prime, reference, path", [
    (FIX_MOD, FIXTURE, FIX_PATH.path),
    (CHAIN, CHAIN, CHAIN_PATH),
], ids=["modified", "chain"])
def test_exact_success_probability_beats_bound(t_prime, reference, path):
    exact = reconstruction_success_probability(t_prime, reference, path)
    assert exact >= reconstruction_probability_bound(path_neighborhood(reference, path).degrees())


def test_exact_success_probability_of_chain():
    # each step takes one of the two parallel edges upward, out of 4 slots at
    # the root and 6 above it, then does nothing: every contraction on a
    # one-vertex level aborts
    exact = reconstruction_success_probability(CHAIN, CHAIN, CHAIN_PATH)
    assert exact == pytest.approx((2 / 4) * (2 / 6) * (2 / 6) / 12**3, rel=1e-12)


def plain_reconstruction(t_prime, reference, reference_path, rng, count=INSERT_COUNT):
    """Reference: the reconstruction walk drawing straight from ``rng``, with
    no branch table."""
    ref_path = tuple((int(l), int(p)) for l, p in reference_path)
    cur = (0, 0)
    walk = [cur]
    sizes, fans = _thaw(t_prime)
    contractions = []

    def fail():
        return ReconstructionResult(False, tuple(walk), None, tuple(contractions))

    for _ in range(len(ref_path) - 1):
        slots = [w for side in _slots(sizes, fans, cur).values() for w in side]
        cur = slots[int(rng.integers(0, len(slots)))]
        walk.append(cur)
        choice = int(rng.integers(0, count + 2))
        if choice == count + 1:
            continue
        lvl, pos = cur
        start = pos - count + choice
        if not 1 <= lvl <= len(sizes) - 2 or sizes[lvl] < count + 1:
            return fail()
        start %= sizes[lvl]
        contractions.append((lvl, start, count))
        _collapse_run(sizes, fans, lvl, start, count, walk)
        cur = walk[-1]
    if tuple(walk) != ref_path:
        return fail()
    result = Triangulation(sizes, fans)
    ok = result.canonical_key == reference.canonical_key
    return ReconstructionResult(ok, tuple(walk), result, tuple(contractions))


def _fixture_calls():
    return [(FIX_MOD, FIXTURE, FIX_PATH.path, 10), (CHAIN, CHAIN, CHAIN_PATH, 10)] * 1500


def _count_two_calls():
    calls = []
    for i in range(20):
        t = forest_to_triangulation(sample_spine_forest(stream(96, i), 6))
        wider = insert_pairs(t, Insertion(1, 0, ((0, 0), (0, 0)))).triangulation
        path = ((0, 0), (1, 0), (2, t.fans[1][0][0]))
        calls += [(wider, t, path, 2), (t, t, path, 2)] * 60
    return calls


def _two_reference_calls():
    # one path, so only the reference tells the two tables apart
    return [(FIX_MOD, FIXTURE, FIX_PATH.path, 10), (FIX_MOD, FIX_MOD, FIX_PATH.path, 10)] * 1500


def _copy_calls():
    copy = Triangulation(FIX_MOD.level_sizes, FIX_MOD.fans)
    assert copy == FIX_MOD and copy is not FIX_MOD
    return [(FIX_MOD, FIXTURE, FIX_PATH.path, 10), (copy, FIXTURE, FIX_PATH.path, 10)] * 1500


@pytest.mark.parametrize("calls", [_fixture_calls, _count_two_calls, _two_reference_calls, _copy_calls],
                         ids=["fixtures", "count_two", "two_references", "equal_copy"])
def test_branch_table_matches_plain_walk(calls):
    # the same draws in the same order from one shared stream; dataclass
    # equality compares success, walk, rebuilt triangulation and contractions
    memo_rng, plain_rng = stream(97), stream(97)
    successes = 0
    for t_prime, reference, path, count in calls():
        got = randomized_reconstruction(t_prime, reference, path, memo_rng, count)
        want = plain_reconstruction(t_prime, reference, path, plain_rng, count)
        assert got == want
        successes += got.success
    assert successes > 0
    assert memo_rng.random() == plain_rng.random()


def test_reconstruction_success_rebuilds_reference():
    # every reported success carries a rebuilt triangulation equal to the
    # reference, and the contraction log is a single level-1 run
    seen = 0
    for i in range(4000):
        r = randomized_reconstruction(FIX_MOD, FIXTURE, FIX_PATH.path, stream(94, i))
        if r.success:
            seen += 1
            assert r.triangulation.canonical_key == FIXTURE.canonical_key
            assert len(r.contractions) == 1 and r.contractions[0][0] == 1
    assert seen > 0


def test_reconstruction_unreachable_reference_never_succeeds():
    # the walk cannot jump two levels in one step
    wrong = [(0, 0), (2, 0)]
    for i in range(500):
        r = randomized_reconstruction(FIX_MOD, FIXTURE, wrong, stream(95, i))
        assert not r.success


def test_overcount_bounded_on_tiny_class():
    # enumerate (host, plan) pairs over a small class containing the path
    # neighborhood; no modified triangulation may be hit more often than
    # prod (count+2) * (d_j + count)
    count = 2
    t = forest_to_triangulation(((2,), (3, 1), (1,) * 4))
    pn = path_neighborhood(t, [(0, 0), (1, 0)])
    hosts = [
        host
        for host, _ in enumerate_triangulations(3, 4)
        if embed(pn, host) is not None
    ]
    assert t.canonical_key in {h.canonical_key for h in hosts}
    eligible = modified_indices(pn, threshold=8)
    assert eligible == [1]
    images = {}
    for host in hosts:
        for plan in enumerate_plans(host, (1, 0), count):
            out = apply_modification(host, pn, {1: plan}, threshold=8, count=count)
            images.setdefault(out.canonical_key, 0)
            images[out.canonical_key] += 1
    bound = 1.0
    for d in pn.degrees():
        bound *= (count + 2) * (d + count)
    assert max(images.values()) <= bound
