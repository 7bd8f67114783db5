"""Tests for contour enumeration, the contour series, spin inversion, and the
survivor statistic.  The enumeration oracle below is built independently:
dual adjacency from triangle edge matching, plain simple-cycle DFS, and a
cut-based separation filter instead of seam-crossing arithmetic."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdt_ising.branching import sample_spine_forest
from cdt_ising.contours import (
    below_vertices,
    enumerate_contours,
    flip_inside,
    peierls_series,
    survivors_statistic,
)
from cdt_ising.ising import SpinState, energy, gibbs_exact
from cdt_ising.rng import stream
from cdt_ising.triangulation import Triangulation, forest_to_triangulation

from test_triangulation import out_degree_lists


# -- independent oracle -------------------------------------------------------


def oracle_separating_cycle_counts(t: Triangulation, n_max: int) -> dict[int, int]:
    """Count simple dual cycles (by length) whose crossed edges disconnect the
    root from the top level.  Adjacency is rebuilt by matching each triangle's
    three edge keys; cycles come from a plain min-vertex DFS; the winding
    filter is the separation property itself."""
    tris = [(n, tri) for n in range(t.top_level) for tri in t.triangles(n)]
    edge_sides: dict[tuple, list[int]] = {}
    for vid, (n, tri) in enumerate(tris):
        size = len(t.triangles(n))
        left = ("d", n, tri.index)  # fan edge before the triangle
        right = ("d", n, (tri.index + 1) % size)  # fan edge after it
        for key in (left, right, tri.horizontal):
            edge_sides.setdefault(key, []).append(vid)
    dual_edges = []
    for key, sides in edge_sides.items():
        if len(sides) == 2:
            dual_edges.append((sides[0], sides[1], key))
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(len(tris))}
    for eid, (a, b, _) in enumerate(dual_edges):
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
        removed = {dual_edges[eid][2] for eid in cyc}
        if len(removed) != len(cyc):
            continue  # not a set of distinct primal edges (cannot happen)
        if _separates(t, removed):
            counts[len(cyc)] += 1
    return dict(counts)


def _separates(t: Triangulation, removed: set) -> bool:
    root = 0
    seen = {root}
    stack = [root]
    top_flat = set(range(t.level_offsets[t.top_level], t.vertex_count))
    while stack:
        v = stack.pop()
        for key, other in t.primal_adjacency[v]:
            if key in removed or other in seen:
                continue
            seen.add(other)
            stack.append(other)
    return not (seen & top_flat)


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
        assert c.winding == 1
        assert len(set(c.triangles)) == len(c.triangles)


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


# -- survivor statistic -------------------------------------------------------


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
            assert ("d", r_level, 0) not in c.crossed
    assert checked > 0
