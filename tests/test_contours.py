"""Tests for contour enumeration, the contour series, spin inversion, and the
survivor statistic.  The enumeration oracle below is built independently:
dual adjacency from triangle edge matching, plain simple-cycle DFS, and a
cut-based separation filter instead of seam-crossing arithmetic.  A second
reference, the unpruned copy-per-push search, pins the exact output of
``enumerate_contours``, order included.  Both read triangles and their dual
off a walk of the fans, not off the graph tables under test."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdt_ising.branching import sample_spine_forest
from cdt_ising.contours import (
    Contour,
    below_vertices,
    enumerate_contours,
    flip_inside,
    peierls_series,
    survivors_statistic,
)
from cdt_ising.ising import SpinState, energy, gibbs_exact
from cdt_ising.percolation import exact_reach_probability
from cdt_ising.rng import stream
from cdt_ising.triangulation import (
    Triangulation,
    enumerate_triangulations,
    forest_to_triangulation,
    rotate_level,
)

from test_triangulation import fan_edge_pairs, fan_walk_triangles, out_degree_lists, relabelled


# -- independent oracle -------------------------------------------------------


def fan_walk_dual(t: Triangulation) -> list[list[tuple[int, int, int]]]:
    """Reference dual adjacency over the fan-walk triangles, matched by shared
    edge, each row in the order ``Triangulation.dual`` documents: the
    triangle before, then the one after (for a strip's first triangle, the
    other way round), then the one across the horizontal edge.  Crossing a
    strip's first diagonal from its last triangle to its first is a seam
    step of +1."""
    strips = fan_walk_triangles(t)
    sides: dict[int, list[int]] = {}
    for g, tri in enumerate(tri for strip in strips for tri in strip):
        for e in tri:
            sides.setdefault(e, []).append(g)
    adjacency = []
    for strip in strips:
        wrap = strip[0][0]
        for before, after, h in strip:
            g = len(adjacency)
            row = []
            for e in (before, after, h):
                if len(sides[e]) == 2:
                    nbr = sum(sides[e]) - g
                    row.append((e, nbr, (e == after) - (e == before) if e == wrap else 0))
            if before == wrap:
                row[:2] = row[1::-1]
            adjacency.append(row)
    return adjacency


def winding(t: Triangulation, c: Contour) -> int:
    """Signed seam crossings of a contour, read off the reference dual."""
    adjacency = fan_walk_dual(t)
    return sum(
        step
        for g, e in zip(c.triangles, c.crossed)
        for f, _, step in adjacency[g]
        if f == e
    )


def oracle_separating_cycle_counts(t: Triangulation, n_max: int) -> dict[int, int]:
    """Count simple dual cycles (by length) whose crossed edges disconnect the
    root from the top level.  Adjacency is rebuilt by matching the fan-walk
    triangles' three edges; cycles come from a plain min-vertex DFS; the
    winding filter is the separation property itself."""
    tris = [tri for strip in fan_walk_triangles(t) for tri in strip]
    edge_sides: dict[int, list[int]] = {}
    for vid, tri in enumerate(tris):
        for e in tri:
            edge_sides.setdefault(e, []).append(vid)
    links = []
    for e, sides in edge_sides.items():
        if len(sides) == 2:
            links.append((sides[0], sides[1], e))
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(len(tris))}
    for eid, (a, b, _) in enumerate(links):
        adj[a].append((eid, b))
        adj[b].append((eid, a))

    # all simple cycles up to n_max, deduplicated by edge set
    cycles: set[frozenset[int]] = set()
    for s in range(len(tris)):
        stack = [(s, [s], [])]
        while stack:
            node, path, epath = stack.pop()
            for eid, nbr in adj[node]:
                if eid in epath:
                    continue
                if nbr == s and len(epath) >= 1:
                    cycles.add(frozenset(epath + [eid]))
                    continue
                if nbr in path or nbr < s:
                    continue
                if len(epath) + 2 > n_max:
                    continue
                stack.append((nbr, path + [nbr], epath + [eid]))

    # separation filter: removing the crossed edges disconnects root from top
    counts: Counter = Counter()
    for cyc in cycles:
        removed = {links[eid][2] for eid in cyc}
        if len(removed) != len(cyc):
            continue  # not a set of distinct primal edges (cannot happen)
        if _separates(t, removed):
            counts[len(cyc)] += 1
    return dict(counts)


def _separates(t: Triangulation, removed: set) -> bool:
    """True when deleting the ``removed`` edges of the fan walk's edge list
    leaves no path from the root to the top level."""
    adjacency = [[] for _ in range(t.vertex_count)]
    for e, (a, b) in enumerate(fan_edge_pairs(t)):
        if e not in removed:
            adjacency[a].append(b)
            adjacency[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for other in adjacency[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return not any(v >= t.level_offsets[t.top_level] for v in seen)


def reference_canonical_cycle(tris, edges, winding):
    """The lexicographically minimal rotation, tried rotation by rotation."""
    if winding < 0:
        n = len(tris)
        tris = [tris[0]] + [tris[n - i] for i in range(1, n)]
        edges = list(reversed(edges))
    seq = list(zip(tris, edges))
    n = len(seq)
    best = min(range(n), key=lambda r: [seq[(r + i) % n] for i in range(n)])
    rot = [seq[(best + i) % n] for i in range(n)]
    return tuple(t for t, _ in rot), tuple(e for _, e in rot)


def reference_contours(t: Triangulation, n_max: int | None = None) -> tuple[Contour, ...]:
    """The unpruned search over the reference dual: per strip, a stack DFS
    that copies the path on every push and cuts a branch only when closing
    needs more than ``n_max`` edges (two from the goal's neighbours, three
    from anywhere else)."""
    adjacency = fan_walk_dual(t)
    if n_max is None:
        n_max = len(adjacency)
    found: dict[tuple, Contour] = {}
    first = 0
    for strip in fan_walk_triangles(t):
        wrap_idx = strip[0][0]  # the strip's first diagonal
        start, goal = first, first + len(strip) - 1
        first += len(strip)
        stack = [(start, [start], [], 0)]
        while stack:
            node, path, epath, seam = stack.pop()
            if node == goal:
                if epath and abs(seam + 1) == 1:
                    key = reference_canonical_cycle(path[:], epath + [wrap_idx], seam + 1)
                    found.setdefault(key, Contour(*key))
                continue
            for eidx, nbr, step in adjacency[node]:
                if eidx == wrap_idx or eidx in epath or nbr in path:
                    continue
                need = 2 if nbr == goal else 3
                if len(epath) + need > n_max:
                    continue
                stack.append((nbr, path + [nbr], epath + [eidx], seam + step))
    return tuple(found.values())


def fifteen_spin_triangulations(seed: int, count: int) -> list[Triangulation]:
    """Distinct 15-spin samples at depths 3, 4, 5 in turn, as the small-exact
    benchmark draws its instances."""
    out: list[Triangulation] = []
    seen = set()
    for j in range(100_000):
        forest = sample_spine_forest(stream(seed, j), (3, 4, 5)[j % 3])
        if sum(forest.level_sizes[:-1]) != 15:
            continue
        t = forest_to_triangulation(forest)
        if (t.level_sizes, t.fans) not in seen:
            seen.add((t.level_sizes, t.fans))
            out.append(t)
            if len(out) == count:
                return out
    raise RuntimeError("too few 15-spin samples")


def small_random_triangulation(seed: int, levels: int, max_triangles: int) -> Triangulation:
    for i in range(5000):
        t = forest_to_triangulation(sample_spine_forest(stream(seed, i), levels))
        if t.triangle_count <= max_triangles:
            return t
    raise RuntimeError("no small sample found")


# -- enumeration --------------------------------------------------------------


def test_minimal_chain_contours():
    t = forest_to_triangulation(((1,), (1,)))
    cs = enumerate_contours(t)
    assert cs.counts == {2: 2}  # one two-step contour per strip
    for c in cs.contours:
        assert winding(t, c) == 1
        assert len(set(c.triangles)) == len(c.triangles)


# (triangles, crossed edges) of every contour of demo 04's instance, in
# search order
DEMO_04_CONTOURS = (
    ((0, 4, 5, 11, 12, 13, 6, 7, 1, 2), (1, 14, 4, 21, 22, 5, 16, 2, 11, 9)),
    ((0, 4, 5, 11, 12, 13, 8, 9, 3, 7, 1, 2), (1, 14, 4, 21, 22, 17, 18, 3, 12, 2, 11, 9)),
    ((0, 4, 5, 6, 13, 8, 9, 3, 7, 1, 2), (1, 14, 15, 5, 17, 18, 3, 12, 2, 11, 9)),
    ((0, 4, 5, 6, 7, 1, 2), (1, 14, 15, 16, 2, 11, 9)),
    ((0, 4, 3, 9, 10, 11, 5, 6, 7, 1, 2), (1, 13, 3, 19, 20, 4, 15, 16, 2, 11, 9)),
    ((0, 4, 3, 9, 10, 11, 12, 13, 6, 7, 1, 2), (1, 13, 3, 19, 20, 21, 22, 5, 16, 2, 11, 9)),
    ((0, 1, 2), (10, 11, 9)),
    ((3, 9, 10, 11, 5, 6, 7), (3, 19, 20, 4, 15, 16, 12)),
    ((0, 1, 7, 3, 9, 10, 11, 5, 4), (10, 2, 12, 3, 19, 20, 4, 14, 1)),
    ((3, 9, 10, 11, 12, 13, 6, 7), (3, 19, 20, 21, 22, 5, 16, 12)),
    ((0, 1, 7, 3, 9, 10, 11, 12, 13, 6, 5, 4), (10, 2, 12, 3, 19, 20, 21, 22, 5, 15, 14, 1)),
    ((0, 1, 7, 3, 4), (10, 2, 12, 13, 1)),
    ((3, 4, 5, 11, 12, 13, 6, 7), (13, 14, 4, 21, 22, 5, 16, 12)),
    ((3, 4, 5, 6, 7), (13, 14, 15, 16, 12)),
    ((0, 1, 7, 6, 13, 8, 9, 3, 4), (10, 2, 16, 5, 17, 18, 3, 13, 1)),
    ((0, 1, 7, 6, 5, 11, 12, 13, 8, 9, 3, 4), (10, 2, 16, 15, 4, 21, 22, 17, 18, 3, 13, 1)),
    ((3, 4, 5, 11, 12, 13, 8, 9), (13, 14, 4, 21, 22, 17, 18, 3)),
    ((3, 4, 5, 6, 13, 8, 9), (13, 14, 15, 5, 17, 18, 3)),
    ((5, 6, 13, 8, 9, 10, 11), (15, 5, 17, 18, 19, 20, 4)),
    ((0, 1, 7, 6, 13, 8, 9, 10, 11, 5, 4), (10, 2, 16, 5, 17, 18, 19, 20, 4, 14, 1)),
    ((8, 9, 10, 11, 12, 13), (18, 19, 20, 21, 22, 17)),
)


def test_demo_instance_contours_pinned():
    t = forest_to_triangulation(((2,), (1, 2), (1, 1, 1)))
    cs = enumerate_contours(t)
    assert tuple((c.triangles, c.crossed) for c in cs.contours) == DEMO_04_CONTOURS
    assert all(winding(t, c) == 1 for c in cs.contours)


def test_no_contour_shorter_than_two():
    for i in range(20):
        t = forest_to_triangulation(sample_spine_forest(stream(41, i), 3))
        if t.triangle_count > 36:
            continue
        cs = enumerate_contours(t)
        assert all(n >= 2 for n in cs.counts)


def test_counts_match_independent_oracle():
    for seed in (101, 202, 303):
        t = small_random_triangulation(seed, 4, 22)
        ours = enumerate_contours(t, n_max=12).counts
        theirs = oracle_separating_cycle_counts(t, 12)
        assert ours == theirs, (seed, ours, theirs)


def test_contours_separate_root_from_top():
    t = small_random_triangulation(7, 4, 24)
    for c in enumerate_contours(t, n_max=10).contours:
        assert _separates(t, set(c.crossed))
        below = below_vertices(t, c)
        assert (0, 0) in below
        assert all(lvl < t.top_level for lvl, _ in below)


@pytest.mark.parametrize("levels, width_cap", [(2, 4), (3, 3)])
def test_exhaustive_search_equals_unpruned_reference(levels, width_cap):
    for t, _ in enumerate_triangulations(levels, width_cap):
        assert enumerate_contours(t).contours == reference_contours(t), t


@pytest.mark.parametrize("n_max", [6, 10, 14])
def test_bounded_search_equals_unpruned_reference(n_max):
    for t in fifteen_spin_triangulations(17, 20):
        assert enumerate_contours(t, n_max).contours == reference_contours(t, n_max), t


@pytest.mark.parametrize("levels, width_cap", [(2, 4), (3, 3)])
def test_contour_counts_do_not_depend_on_the_labelling(levels, width_cap):
    # the seam follows the anchor chain, so relabelling a level moves it
    # with the triangulation; on diagonal 0 it would cut another seam
    for t, _ in enumerate_triangulations(levels, width_cap):
        counts = enumerate_contours(t).counts
        for level in range(1, t.top_level + 1):
            for shift in range(1, t.level_sizes[level]):
                assert enumerate_contours(rotate_level(t, level, shift)).counts == counts


def test_contour_counts_on_relabelled_samples():
    # every level rotated, and a pair inserted halfway up
    for t in fifteen_spin_triangulations(19, 12):
        counts = enumerate_contours(t, 10).counts
        rotated, inserted = relabelled(t)
        assert enumerate_contours(rotated, 10).counts == counts
        assert enumerate_contours(inserted, 10).counts == enumerate_contours(
            inserted.canonical(), 10).counts


def test_relabelled_contours_match_independent_oracle():
    # level 1 starts its out-degrees at position 1; on diagonal 0 the seam
    # gave {3: 2, 5: 2}
    t = Triangulation((1, 2, 1), (((1, 0, 1),), ((0, 0), (0,))))
    expected = {3: 2, 4: 1, 6: 1}
    assert oracle_separating_cycle_counts(t, t.triangle_count) == expected
    assert enumerate_contours(t).counts == expected == enumerate_contours(t.canonical()).counts


@settings(max_examples=60, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_shorter_cap_is_a_length_filter(lists, data):
    while len(lists) > 1 and sum(map(sum, lists)) > 16:
        lists = lists[:-1]
    t = forest_to_triangulation(lists)
    m = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(0, m - 1))
    longer = enumerate_contours(t, m).contours
    assert enumerate_contours(t, k).contours == tuple(c for c in longer if c.length <= k)


@pytest.mark.parametrize("n_max", [2.5, -3, "4"])
def test_bounded_search_rejects_bad_length_cap(n_max):
    with pytest.raises(ValueError):
        enumerate_contours(forest_to_triangulation(((1,), (1,))), n_max)


def test_bounded_search_takes_numpy_integers():
    t = forest_to_triangulation(((2,), (1, 1)))
    assert enumerate_contours(t, np.int64(6)).contours == enumerate_contours(t, 6).contours
    assert enumerate_contours(t, 0).contours == ()


def test_exhaustive_guard():
    big = forest_to_triangulation(((4,), (2, 2, 2, 2), (2, 2, 2, 2, 2, 2, 2, 2)))
    assert big.triangle_count > 40
    with pytest.raises(ValueError):
        enumerate_contours(big)
    with pytest.raises(ValueError):
        enumerate_contours(big, n_max=15)


# -- series -------------------------------------------------------------------


def test_series_empty():
    s = peierls_series({}, 1.0)
    assert s.total == 0.0
    assert s.tail_below_one_from == 0


def test_series_single_term():
    s = peierls_series({2: 1}, 1.0)
    assert abs(s.total - math.exp(-4.0)) < 1e-15


def test_series_monotonicity():
    counts = {2: 3, 4: 10, 6: 40}
    s = peierls_series(counts, 0.7)
    partials = [row[2] for row in s.rows]
    assert partials == sorted(partials)
    hotter = peierls_series(counts, 0.4)
    for (_, _, a), (_, _, b) in zip(s.rows, hotter.rows):
        assert a <= b


def test_series_trigger_level():
    s = peierls_series({2: 100, 3: 1}, 1.0)
    # total = 100 e^-4 + e^-6 > 1; tail from 3 is e^-6 < 1
    assert s.total > 1.0
    assert s.tail_below_one_from == 3


def test_series_tail_never_below_one():
    # 5 e^-0.4 > 1 at the only length, so the tail first drops below 1 past it
    s = peierls_series({2: 5}, 0.1)
    assert s.total > 1.0
    assert s.tail_below_one_from == 3


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -0.5])
def test_series_rejects_bad_beta(beta):
    with pytest.raises(ValueError, match="beta"):
        peierls_series({2: 1}, beta)


def test_series_rejects_negative_counts():
    with pytest.raises(ValueError, match="counts"):
        peierls_series({2: 3, 4: -2}, 1.0)
    assert peierls_series({2: 0}, 0.0).rows == ((2, 0, 0.0),)


@pytest.mark.parametrize(
    "counts", [{2: 1.5}, {3.7: 1}, {2: "3"}, {"2": 3}, {2: None}, {0: 1}, {-2: 1}]
)
def test_series_rejects_non_integer_lengths_and_counts(counts):
    # was truncated: {2: 1.5, 3.7: 1} read as {2: 1, 3: 1}
    with pytest.raises(ValueError, match="contour (lengths|counts)"):
        peierls_series(counts, 1.0)


def test_series_takes_numpy_integers():
    s = peierls_series({np.int64(2): np.uint8(3)}, 0.5)
    assert s == peierls_series({2: 3}, 0.5)
    assert type(s.rows[0][0]) is int and type(s.rows[0][1]) is int


def theorem_instances():
    """Every instance of (2, 4) and (3, 3), and each rotation by one of a
    level of two or more vertices."""
    for levels, width_cap in [(2, 4), (3, 3)]:
        for t, _ in enumerate_triangulations(levels, width_cap):
            yield t
            yield from (rotate_level(t, level, 1) for level, size in enumerate(t.level_sizes) if size > 1)


def test_peierls_series_bounds_the_minus_root_marginal():
    # the paper's Peierls bound on a finite instance with a frozen minus top:
    # P-(root +) <= sum_n C_n exp(-2 beta n)
    checks = 0
    for inst in theorem_instances():
        counts = enumerate_contours(inst).counts
        for beta in [0.05, 0.3, 1.0, 2.0]:
            lhs = gibbs_exact(inst, beta, "minus").root_plus()
            rhs = peierls_series(counts, beta).total
            assert lhs <= rhs + 1e-12, (inst.level_sizes, inst.fans, beta, lhs - rhs)
            checks += 1
    assert checks == 7204


def test_disagreement_percolation_bounds_the_root_marginal_gap():
    # the paper's disagreement-percolation bound on a finite instance with a
    # frozen top: a disagreement between the plus and minus measures at the
    # root needs an open path from the root to level top - 1, each vertex
    # open with probability tanh(beta d_v), so
    # P+(root +) - P-(root +) <= P(the root's open cluster reaches top - 1)
    checks = 0
    for inst in theorem_instances():
        for beta in [0.05, 0.3, 1.0, 2.0]:
            lhs = gibbs_exact(inst, beta, "plus").root_plus() - gibbs_exact(inst, beta, "minus").root_plus()
            rhs = exact_reach_probability(inst, beta, inst.top_level - 1)
            assert lhs <= rhs + 1e-12, (inst.level_sizes, inst.fans, beta, lhs - rhs)
            checks += 1
    assert checks == 7204


# -- spin inversion -----------------------------------------------------------


def test_flip_inside_involution_and_energy():
    t = forest_to_triangulation(((2,), (1, 1)))
    beta = 0.6
    cs = enumerate_contours(t)
    for c in cs.contours:
        # all spins and boundary +1: every crossed edge agrees, the flip
        # breaks exactly those, so the energy rises by 2 per crossed edge
        st = SpinState.constant(t, 1, "plus", beta)
        flipped = flip_inside(t, st, c)
        assert energy(t, flipped) - energy(t, st) == 2 * c.length
        again = flip_inside(t, flipped, c)
        assert np.array_equal(again.spins, st.spins)

        # plus below / minus above: every crossed edge disagrees, the flip
        # heals exactly those, so the energy drops by 2 per crossed edge
        below = below_vertices(t, c)
        sigma = SpinState.constant(t, -1, "minus", beta)
        for lvl, pos in below:
            sigma.spins[t.flat_index(lvl, pos)] = 1
        healed = flip_inside(t, sigma, c)
        assert energy(t, healed) - energy(t, sigma) == -2 * c.length


def test_flip_inside_matches_gibbs_ratio():
    for degs in (((1,), (1,)), ((2,), (1, 1)), ((2,), (2, 1))):
        t = forest_to_triangulation(degs)
        for beta in (0.3, 1.0):
            g = gibbs_exact(t, beta, "minus")
            n_free = g.n_free
            minus = -np.ones(n_free, dtype=np.int8)
            for c in enumerate_contours(t).contours:
                below = below_vertices(t, c)
                sigma = minus.copy()
                for lvl, pos in below:
                    sigma[t.flat_index(lvl, pos)] = 1
                ratio = g.prob_of(sigma) / g.prob_of(minus)
                expected = math.exp(-2.0 * beta * c.length)
                assert abs(ratio - expected) <= 1e-12 * expected


@settings(max_examples=100, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_flip_inside_properties(lists, data):
    # drop top levels until the triangulation is small enough to enumerate
    while len(lists) > 1 and sum(map(sum, lists)) > 12:
        lists = lists[:-1]
    t = forest_to_triangulation(lists)
    contours = enumerate_contours(t, n_max=8).contours
    assume(contours)
    c = data.draw(st.sampled_from(contours))
    n_free = sum(t.level_sizes[:-1])
    spins = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n_free, max_size=n_free))
    state = SpinState(np.array(spins, dtype=np.int8), np.ones(t.level_sizes[-1], dtype=np.int8), 0.5)
    flipped = flip_inside(t, state, c)
    assert np.array_equal(flip_inside(t, flipped, c).spins, state.spins)
    changed = set(np.flatnonzero(flipped.spins != state.spins).tolist())
    assert changed == {t.flat_index(lvl, pos) for lvl, pos in below_vertices(t, c)}
    plus = SpinState.constant(t, 1, "plus", 0.5)
    assert energy(t, flip_inside(t, plus, c)) - energy(t, plus) == 2 * c.length


@settings(max_examples=100, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_flip_inside_costs_twice_the_length_on_rotated_instances(lists, data):
    while len(lists) > 1 and sum(map(sum, lists)) > 12:
        lists = lists[:-1]
    t = forest_to_triangulation(lists)
    for level in range(1, t.top_level + 1):
        t = rotate_level(t, level, data.draw(st.integers(0, t.level_sizes[level] - 1)))
    contours = enumerate_contours(t, n_max=8).contours
    assume(contours)
    c = data.draw(st.sampled_from(contours))
    plus = SpinState.constant(t, 1, "plus", 0.5)
    assert energy(t, flip_inside(t, plus, c)) - energy(t, plus) == 2 * c.length


def test_inversion_map_injective():
    # recovering sigma from (flipped, contour) works: the map is injective
    t = forest_to_triangulation(((1,), (1,)))
    beta = 0.5
    cs = enumerate_contours(t).contours
    seen = {}
    rng = stream(55)
    for trial in range(20):
        spins = (2 * rng.integers(0, 2, size=2) - 1).astype(np.int8)
        st = SpinState(spins, np.array([-1], dtype=np.int8), beta)
        for c in cs:
            flipped = flip_inside(t, st, c)
            key = (tuple(flipped.spins.tolist()), c.triangles)
            recovered = flip_inside(t, flipped, c)
            assert np.array_equal(recovered.spins, spins)


@pytest.mark.parametrize("spins", [
    [1] * 9, [1] * 4, [1, 0, -1, 1, 1], [1, 3, -1, 1, 1], [1.5, 1, -1, 1, 1], ["1"] * 5,
], ids=["too_many", "too_few", "zero", "three", "float", "str"])
def test_flip_inside_checks_the_spins(spins):
    # it returned 9 spins for a 9-spin state and negated 0s and 3s
    t = forest_to_triangulation(((2,), (1, 1), (2, 1)))
    assert t.level_offsets[t.top_level] == 5
    c = enumerate_contours(t).contours[0]
    state = SpinState(np.array(spins), np.ones(t.level_sizes[-1], dtype=np.int8), 0.5)
    with pytest.raises(ValueError, match="free spins"):
        flip_inside(t, state, c)


@pytest.mark.parametrize("boundary, beta, message", [
    ([7] * 9, 0.5, "boundary spins"), ([1, 1], "hot", "beta"),
], ids=["boundary", "beta"])
def test_flip_inside_checks_the_boundary_and_beta(boundary, beta, message):
    # both came back in the flipped state; they are read as glauber_sweep reads them
    t = forest_to_triangulation(((2,), (1, 1)))
    assert t.level_sizes[t.top_level] == 2
    c = enumerate_contours(t).contours[0]
    state = SpinState(np.ones(t.level_offsets[t.top_level], dtype=np.int8), boundary, beta)
    with pytest.raises(ValueError, match=message):
        flip_inside(t, state, c)


# -- survivor statistic -------------------------------------------------------


def test_survivors_read_any_forest_form():
    # out-degree lists raised AttributeError; they now read as the codec reads them
    sf = sample_spine_forest(stream(63, 0), 6)
    forest = sf.to_forest()
    for r_level, n in ((1, 1), (3, 2), (4, 0)):
        want = survivors_statistic(forest, r_level, n)
        assert survivors_statistic(sf, r_level, n) == want
        assert survivors_statistic(forest.out_degrees, r_level, n) == want
    assert survivors_statistic(((1,), (2,), (1, 1)), 1, 1) == 1
    for garbage in (None, 5, "abc", ((1,), (1, 1)), ((1,), (-1,))):
        with pytest.raises(ValueError):
            survivors_statistic(garbage, 1, 0)


def test_survivors_zero_window():
    sf = sample_spine_forest(stream(61, 0), 6)
    forest = sf.to_forest()
    for r in range(1, 6):
        assert survivors_statistic(forest, r, 0) == forest.level_sizes[r]


def test_survivors_single_chain():
    from cdt_ising.branching import LevelForest

    forest = LevelForest(((1,),) * 8)
    for r in range(2, 6):
        for n in range(0, min(r, 8 - r) + 1):
            assert survivors_statistic(forest, r, n) == 1


def test_survivors_domain():
    sf = sample_spine_forest(stream(62, 0), 6)
    forest = sf.to_forest()
    with pytest.raises(ValueError):
        survivors_statistic(forest, 1, 2)
    with pytest.raises(ValueError):
        survivors_statistic(forest, 5, 3)
    # the first three raised TypeError from inside
    for r_level, n in ((1.5, 0), (3, 1.0), ("3", 1), (3, -1)):
        with pytest.raises(ValueError):
            survivors_statistic(forest, r_level, n)


def test_survivors_survival_rate_bound():
    # mean of S/k_{R-n} across samples is at least the unconditioned survival
    # probability 1/(2n+1); the spine subtree only biases it upward
    r_level, n = 4, 2
    ratios = []
    for i in range(4000):
        sf = sample_spine_forest(stream(63, i), r_level + n)
        forest = sf.to_forest()
        s = survivors_statistic(forest, r_level, n)
        ratios.append(s / forest.level_sizes[r_level - n])
    mean = float(np.mean(ratios))
    se = float(np.std(ratios, ddof=1) / math.sqrt(len(ratios)))
    assert mean >= (1.0 / (2 * n + 1)) * (1.0 - 3.0 * se)


def test_survivors_block_contour_implication():
    # when more than n subtrees span the window, no contour of length <= n
    # crosses the seam at that height
    r_level, n = 3, 2
    checked = 0
    for i in range(300):
        sf = sample_spine_forest(stream(64, i), r_level + n)
        forest = sf.to_forest()
        s = survivors_statistic(forest, r_level, n)
        if s <= n:
            continue
        checked += 1
        t = forest_to_triangulation(sf)
        cs = enumerate_contours(t, n_max=n)
        for c in cs.contours:
            # crossing the seam "at height r": using the strip-r seam edge
            assert fan_walk_triangles(t)[r_level][0][0] not in c.crossed
    assert checked > 0
