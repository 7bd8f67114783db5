"""Tests for degree-dependent site percolation and locally geodesic paths."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_triangulation import csr_rows, out_degree_lists

from cdt_ising import branching, percolation
from cdt_ising.branching import sample_spine_forest
from cdt_ising.ising import conditional_spin_prob
from cdt_ising.percolation import (
    OpenSet,
    _neighbours,
    _pass_layout,
    _pass_tables,
    _ranks,
    _search,
    annealed_reach_curve,
    annealed_reach_probability,
    count_salg_paths,
    exact_reach_probability,
    is_locally_geodesic,
    max_open_reach,
    open_probability,
    open_set_from_uniforms,
    reach_hits,
    sample_open_set,
    shortcut_to_locally_geodesic,
)
from cdt_ising.rng import TrialKeys, stream
from cdt_ising.triangulation import Triangulation, enumerate_triangulations, forest_to_triangulation


def count_self_avoiding_paths(t, length: int) -> int:
    """Brute-force oracle: all self-avoiding vertex paths from the root."""
    adj = [set() for _ in range(t.vertex_count)]
    for v, nbrs in enumerate(csr_rows(*t.primal_adjacency)):
        for other, _ in nbrs:
            if other != v:
                adj[v].add(other)
    count = 0
    stack = [([0], {0})]
    while stack:
        path, members = stack.pop()
        if len(path) - 1 == length:
            count += 1
            continue
        for u in adj[path[-1]]:
            if u not in members:
                stack.append((path + [u], members | {u}))
    return count


CHAIN4 = forest_to_triangulation(((1,), (1,), (1,)))


def test_open_probability_values():
    assert open_probability(4, 0.0) == 0.0
    assert abs(open_probability(4, 0.1) - math.tanh(0.4)) < 1e-15
    assert abs(open_probability(4, 0.1) - 0.379949) < 1e-6
    with pytest.raises(ValueError):
        open_probability(0, 0.1)
    with pytest.raises(ValueError):
        open_probability(3, -0.1)


def test_open_probability_equals_conditional_tv():
    for d in range(3, 11):
        for beta in (0.1, 0.5):
            tv = conditional_spin_prob(d, beta) - conditional_spin_prob(-d, beta)
            assert abs(open_probability(d, beta) - tv) < 1e-12


def test_sample_open_set_beta_zero_all_closed():
    t = CHAIN4
    opens = sample_open_set(t, 0.0, stream(71, 0))
    assert not opens.marks.any()


def test_sample_open_set_frequency():
    # all marked degrees equal 4 or 6 on the chain; compare frequencies
    t = CHAIN4
    degs = t.mark_degrees
    beta = 0.12
    rng = stream(72)
    hits = np.zeros(len(degs))
    trials = 20000
    for _ in range(trials):
        hits += sample_open_set(t, beta, rng).marks
    for v, d in enumerate(degs):
        assert abs(hits[v] / trials - math.tanh(beta * d)) < 0.015


def test_sample_open_set_deterministic():
    t = CHAIN4
    a = sample_open_set(t, 0.3, stream(73, 5))
    b = sample_open_set(t, 0.3, stream(73, 5))
    assert np.array_equal(a.marks, b.marks)


def test_max_open_reach_extremes():
    t = CHAIN4
    n_marked = sum(t.level_sizes[:-1])
    all_open = OpenSet(1.0, np.ones(n_marked, dtype=bool))
    res = max_open_reach(t, all_open)
    assert res.reach == t.top_level - 1  # marks stop below the top level
    assert res.path is not None and res.path[0] == (0, 0)
    all_closed = OpenSet(0.0, np.zeros(n_marked, dtype=bool))
    res = max_open_reach(t, all_closed)
    assert res.reach == 0 and res.path is None


def test_max_open_reach_certificate_is_open_path():
    for i in range(50):
        rng = stream(74, i)
        t = forest_to_triangulation(sample_spine_forest(rng, 6))
        opens = sample_open_set(t, 0.25, rng)
        res = max_open_reach(t, opens)
        if res.path is None:
            continue
        flats = [t.flat_index(l, p) for l, p in res.path]
        assert len(set(flats)) == len(flats)  # self-avoiding
        assert all(opens.marks[f] for f in flats)
        assert res.path[-1][0] == res.reach


def test_max_open_reach_monotone_in_marks():
    rng = stream(75, 0)
    t = forest_to_triangulation(sample_spine_forest(rng, 6))
    opens = sample_open_set(t, 0.2, rng)
    base = max_open_reach(t, opens).reach
    closed = np.flatnonzero(~opens.marks)
    for v in closed[:5]:
        more = opens.marks.copy()
        more[v] = True
        assert max_open_reach(t, OpenSet(opens.beta, more)).reach >= base


def brute_force_reach_probability(t, beta, level):
    """Sum over all 2^n open sets of the marked vertices: the probability of
    each open set on which ``max_open_reach`` reaches ``level``."""
    p = np.tanh(beta * t.mark_degrees)
    wins = []
    for bits in itertools.product((False, True), repeat=len(p)):
        marks = np.array(bits)
        if max_open_reach(t, OpenSet(beta, marks)).reach >= level:
            wins.append(math.prod(np.where(marks, p, 1.0 - p).tolist()))
    return math.fsum(wins)


def test_exact_reach_equals_brute_force():
    # every 8th instance of (3, 3), up to 7 marks, and sampled ones up to 10
    instances = [t for t, _ in enumerate_triangulations(3, 3)][::8]
    for i in range(60):
        t = forest_to_triangulation(sample_spine_forest(stream(77, i), 4))
        if len(t.mark_degrees) <= 10:
            instances.append(t)
    assert len(instances) == 67
    for t in instances:
        for beta in [0.0, 0.05, 0.3, 1.0]:
            for level in range(t.top_level):
                want = brute_force_reach_probability(t, beta, level)
                got = exact_reach_probability(t, beta, level)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (t.level_sizes, beta, level)


def test_exact_reach_matches_sampled_open_sets():
    # 17 marks on six levels; each level's hit frequency within 4 sigma
    t = forest_to_triangulation(sample_spine_forest(stream(77, 4), 6))
    assert len(t.mark_degrees) == 17
    beta, trials = 0.15, 4000
    rng = stream(78)
    reach = [max_open_reach(t, sample_open_set(t, beta, rng)).reach for _ in range(trials)]
    for level in range(1, t.top_level):
        exact = exact_reach_probability(t, beta, level)
        assert 0.0 < exact < 1.0
        freq = sum(r >= level for r in reach) / trials
        assert abs(freq - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials), (level, freq, exact)


@pytest.mark.parametrize("call", [
    lambda: exact_reach_probability(CHAIN4, 0.3, 3),
    lambda: exact_reach_probability(CHAIN4, 0.3, -1),
    lambda: exact_reach_probability(CHAIN4, 0.3, 1.0),
    lambda: exact_reach_probability(CHAIN4, -0.3, 1),
    lambda: exact_reach_probability(CHAIN4, math.nan, 1),
    lambda: exact_reach_probability(forest_to_triangulation(((1,),) * 21), 0.3, 1),
], ids=["level-top", "level-negative", "level-float", "beta-negative", "beta-nan", "marks-past-cap"])
def test_exact_reach_refuses_bad_arguments(call):
    with pytest.raises(ValueError):
        call()


def test_annealed_reach_beta_zero():
    est = annealed_reach_probability(5, 0.0, 200, seed=76)
    assert est.estimate == 0.0 and est.stderr == 0.0


def test_annealed_reach_decreasing_in_levels():
    e5 = annealed_reach_probability(5, 0.1, 2000, seed=77)
    e10 = annealed_reach_probability(10, 0.1, 2000, seed=78)
    # monotone within noise
    assert e10.estimate <= e5.estimate + 3 * math.sqrt(e5.stderr**2 + e10.stderr**2)


def test_annealed_reach_curve_monotone_in_beta():
    curve = annealed_reach_curve(6, [0.02, 0.05, 0.1, 0.2], 400, seed=79)
    estimates = [e.estimate for e in curve]
    assert estimates == sorted(estimates)  # exact under shared-uniform coupling


def test_single_beta_equals_coupled_curve():
    betas = [0.02, 0.05, 0.1, 0.2, 0.4]
    for levels in (5, 10):
        curve = annealed_reach_curve(levels, betas, 60, seed=81)
        for beta, est in zip(betas, curve):
            assert annealed_reach_probability(levels, beta, 60, seed=81) == est


def full_build_verdicts(out_degrees, uniforms, betas, levels) -> list[bool]:
    """Reference for the rank search: the open cluster on the whole
    triangulation of the forest, marked from the same uniforms."""
    t = forest_to_triangulation(out_degrees)
    return [max_open_reach(t, open_set_from_uniforms(t, b, uniforms)).reach >= levels for b in betas]


def pass_build(forests, uniforms):
    """``reach_hits``'s build over one pass of ``forests`` (out-degree lists
    of levels 0..H-1, one H for all), each with its array of ``uniforms``:
    each forest's level starts, the tables of ``_pass_tables`` and the
    marks, fills included."""
    offs, pads, fills = _pass_layout([(1, *map(sum, lists)) for lists in forests])
    counts = np.concatenate([pads[0], *(x for lists, pad in zip(forests, pads[1:]) for x in (*lists, pad))])
    marks = np.concatenate([x for u, fill in zip(uniforms, fills) for x in (u, fill)])
    return (offs, *_pass_tables(counts, offs), marks)


def rank_verdicts(out_degrees, uniforms, betas, levels) -> list[bool]:
    """Per beta, whether the root's open cluster reaches ``levels``, from one
    rank search over a pass of this forest alone: the j-th smallest beta
    reaches iff j >= the rank."""
    if levels == 0:  # the root is on level 0, open or not
        return [True] * len(betas)
    ascending = sorted(betas)
    (off,), first, parent, arriving, deg, marks = pass_build([out_degrees], [uniforms])
    rank = _search(off, levels, first, parent, arriving, _ranks(marks, np.array(ascending), deg), len(betas))
    return [ascending.index(b) >= rank for b in betas]


@pytest.mark.parametrize(
    "levels, betas, trials",
    [
        (5, [1.0], 120),
        (10, [0.02, 0.05, 0.1, 0.2], 200),  # criterion 7b's grid
        (30, [0.05, 0.2, 1.0], 40),
    ],
)
def test_lazy_reach_matches_full_build(levels, betas, trials):
    # each trial draws as reach_hits does: the forest, then one uniform batch
    hits = [0] * len(betas)
    for i in range(trials):
        rng = stream(84, i)
        forest = sample_spine_forest(rng, levels + 1)
        uniforms = rng.random(sum(forest.level_sizes[:-1]))
        got = rank_verdicts(forest.out_degrees, uniforms, betas, levels)
        assert got == full_build_verdicts(forest.out_degrees, uniforms, betas, levels), i
        hits = [h + g for h, g in zip(hits, got)]
    assert reach_hits(levels, betas, 84, 0, trials) == hits


@settings(max_examples=150, deadline=None)
@given(lists=out_degree_lists(), seed=st.integers(0, 2**32 - 1))
@example(lists=((1,), (1,), (1,)), seed=0)  # one-vertex levels
@example(lists=((3,), (0, 0, 3), (2, 0, 0)), seed=1)  # zero runs, fans wrapping onto 0
@example(lists=((2,), (0, 2), (1, 0)), seed=2)
def test_lazy_reach_matches_full_build_on_any_forest(lists, seed):
    # every horizon below the top: a path to level L first crosses level L
    # from below, so the cluster cut at L decides reach >= L
    uniforms = np.random.default_rng(seed).random(sum(len(d) for d in lists))
    betas = [0.1, 0.2, 0.35, 1.0]
    for levels in range(len(lists)):
        assert rank_verdicts(lists, uniforms, betas, levels) == full_build_verdicts(
            lists, uniforms, betas, levels
        )


@settings(max_examples=150, deadline=None)
@given(lists=out_degree_lists())
@example(lists=((1,), (1,), (1,)))
@example(lists=((3,), (0, 0, 3), (2, 0, 0)))
@example(lists=((2,), (0, 2), (1, 0)))
def test_lazy_neighbours_match_triangulation(lists):
    # a pass of this forest alone: its tables are the forest's own, unshifted
    t = forest_to_triangulation(lists)
    (off,), first, parent, arriving, deg, _ = pass_build([lists], [np.zeros(len(t.mark_degrees))])
    nbrs = csr_rows(*t.neighbors)
    assert tuple(off) == t.level_offsets
    for n in range(t.top_level):
        for p in range(t.level_sizes[n]):
            want = {t.vertex_at(u) for u in nbrs[t.flat_index(n, p)]}
            got = _neighbours(t.flat_index(n, p), off, first, parent, arriving)
            assert {t.vertex_at(w) for w in got} == want
    assert deg[: len(t.mark_degrees)].tolist() == t.mark_degrees.tolist()


@settings(max_examples=150, deadline=None)
@given(
    lists=out_degree_lists(),
    seed=st.integers(0, 2**32 - 1),
    betas=st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.35, 1.0, 50.0]), min_size=1, max_size=6),
)
@example(lists=((3,), (0, 0, 3), (2, 0, 0)), seed=1, betas=[0.35, 0.0, 50.0, 0.35, 0.1])
@example(lists=((1,), (1,), (1,)), seed=0, betas=[50.0, 50.0, 0.0])
def test_rank_search_matches_full_build_on_any_beta_grid(lists, seed, betas):
    # unsorted and repeated betas, beta = 0 (every vertex closed) and
    # beta = 50 (tanh is 1.0, every vertex open)
    uniforms = np.random.default_rng(seed).random(sum(len(d) for d in lists))
    for levels in range(len(lists)):
        assert rank_verdicts(lists, uniforms, betas, levels) == full_build_verdicts(
            lists, uniforms, betas, levels
        )


@st.composite
def reach_passes(draw):
    """1-5 forests cut to one depth, as a pass of ``reach_hits`` holds them,
    each with its uniforms; a forest's root may be closed at every beta."""
    forests = draw(st.lists(out_degree_lists(), min_size=1, max_size=5))
    depth = min(map(len, forests))
    closed = draw(st.lists(st.booleans(), min_size=len(forests), max_size=len(forests)))
    return [f[:depth] for f in forests], closed, draw(st.integers(0, 2**32 - 1))


PASS_BETAS = np.array([0.1, 0.2, 0.35, 1.0])


@settings(max_examples=150, deadline=None)
@given(reach_pass=reach_passes())
# the first forest's last level ends in a zero run, whose fans wrap onto its
# position 0, with another forest right after it
@example(reach_pass=([((3,), (0, 0, 3), (2, 0, 0)), ((1,), (2,), (1, 1))], [False, False], 1))
@example(reach_pass=([((2,), (0, 2)), ((3,), (1, 0, 0)), ((1,), (1,))], [False, True, False], 2))
@example(reach_pass=([((1,), (1,), (1,))] * 2, [True, False], 0))
def test_pass_tables_equal_each_forest_alone(reach_pass):
    # each forest's slice of the pass is the triangulation of that forest,
    # shifted by the forest's base
    forests, closed, seed = reach_pass
    rng = np.random.default_rng(seed)
    uniforms = [rng.random(sum(map(len, lists))) for lists in forests]
    for u, shut in zip(uniforms, closed):
        if shut:
            u[0] = 1.0  # at or above tanh(beta * d) at every beta
    offs, first, parent, arriving, deg, marks = pass_build(forests, uniforms)
    for off, lists in zip(offs, forests):
        t = forest_to_triangulation(lists)
        base, n = off[0], len(t.mark_degrees)
        assert off == [base + o for o in t.level_offsets]
        assert deg[base : base + n].tolist() == t.mark_degrees.tolist()
        for f, row in enumerate(csr_rows(*t.neighbors)[:n]):
            got = _neighbours(base + f, off, first, parent, arriving)
            assert {t.vertex_at(w - base) for w in got} == {t.vertex_at(u) for u in row}
    for levels in range(1, len(forests[0])):
        rank = _ranks(marks, PASS_BETAS, deg)  # the search marks what it meets
        got = [_search(off, levels, first, parent, arriving, rank, len(PASS_BETAS)) for off in offs]
        want = [full_build_verdicts(lists, u, PASS_BETAS, levels) for lists, u in zip(forests, uniforms)]
        assert [[j >= r for j in range(len(PASS_BETAS))] for r in got] == want
        assert all(r == len(PASS_BETAS) for r, shut in zip(got, closed) if shut)


def test_reach_hits_on_an_unsorted_grid_equals_each_beta_alone():
    betas = [0.2, 0.0, 50.0, 0.05, 0.2]
    hits = reach_hits(8, betas, 87, 3, 80)
    assert hits == [reach_hits(8, [b], 87, 3, 80)[0] for b in betas]
    assert hits[1] == 0 and hits[2] == 80


def test_reach_hits_does_not_depend_on_the_block_size(monkeypatch):
    # a row of one double: every tree outgrows it and is grown from its
    # key; rows of 2^17, one to a pass, hold every trial
    args = (12, [0.05, 0.2, 1.0], 86, 0, 40)
    want = reach_hits(*args)
    for block in (1, 2**17):
        monkeypatch.setattr(branching, "_first_block", lambda levels: block)
        assert reach_hits(*args) == want, block


@pytest.mark.parametrize("levels", [3, 10])
def test_root_mark_past_the_row_equals_full_build(monkeypatch, levels):
    # each trial's row ends exactly where its forest does, so its root mark
    # and every other mark come from past the row
    betas = [0.05, 0.2, 50.0]  # the root is open at beta = 50
    for i in range(6):
        rng = stream(88, i)
        forest = sample_spine_forest(rng, levels + 1)
        end = 2 * (levels + 1) + sum(forest.level_sizes[:-1])  # spine pairs and counts
        uniforms = rng.random(sum(forest.level_sizes[:-1]))
        want = full_build_verdicts(forest.out_degrees, uniforms, betas, levels)
        monkeypatch.setattr(branching, "_first_block", lambda levels: end)
        assert reach_hits(levels, betas, 88, i, 1) == [int(v) for v in want], i


@pytest.mark.parametrize("levels, start, count", [(3, 5, 90), (12, 2**32 - 7, 30), (40, 0, 9)])
def test_reach_hits_is_the_sum_over_any_split(levels, start, count):
    betas = [0.3, 0.05, 0.1]
    want = reach_hits(levels, betas, 2**64 + 3, start, count)
    rng = np.random.default_rng(levels)
    for _ in range(3):
        cuts = sorted(rng.choice(np.arange(1, count), size=3, replace=False).tolist())
        bounds = [start, *(start + c for c in cuts), start + count]
        parts = [reach_hits(levels, betas, 2**64 + 3, a, b - a) for a, b in zip(bounds, bounds[1:])]
        assert [sum(col) for col in zip(*parts)] == want, bounds


def test_trials_past_their_rows_are_grown_or_extended(monkeypatch):
    args = (10, [0.02, 0.05, 0.1, 0.2], 1009, 0, 300)
    past, skips = [], []
    grow, rekey = branching._grow, TrialKeys.keyed
    monkeypatch.setattr(branching, "_grow", lambda *a: past.append(a) or grow(*a))
    monkeypatch.setattr(
        TrialKeys, "keyed", lambda self, key, skip=0: skips.append(skip) or rekey(self, key, skip)
    )
    got = reach_hits(*args)
    # about 4% of forests outgrow their rows; some open roots' marks do
    assert 0 < len(past) < 30
    assert 0 < sum(s == branching._first_block(11) for s in skips) < 300
    past.clear()
    monkeypatch.setattr(branching, "_first_block", lambda levels: 2**17)
    assert reach_hits(*args) == got and not past


FIVE_MARKS = forest_to_triangulation(((2,), (1, 1), (1, 1)))  # levels 0..2 hold 5 vertices


@pytest.mark.parametrize(
    "call",
    [
        lambda: reach_hits(2.5, [0.1], 1, 0, 5),
        lambda: reach_hits(-1, [0.1], 1, 0, 5),
        lambda: reach_hits(5, [0.1], 1.5, 0, 5),
        lambda: reach_hits(5, [0.1], -1, 0, 5),
        lambda: reach_hits(5, [0.1], 1, 0.5, 5),
        lambda: reach_hits(5, [0.1], 1, -1, 5),
        lambda: reach_hits(5, [0.1], 1, 0, 2.5),
        lambda: reach_hits(5, [0.1], 1, 0, -2),
        lambda: reach_hits(5, [], 1, 0, 5),
        lambda: reach_hits(5, "0.1", 1, 0, 5),
        lambda: reach_hits(5, [0.1, None], 1, 0, 5),
        lambda: reach_hits(5, 0.1, 1, 0, 5),
        lambda: annealed_reach_probability(2.5, 0.1, 5, 1),
        lambda: annealed_reach_probability(5, 0.1, 2.5, 1),
        lambda: annealed_reach_probability(5, 0.1, 0, 1),
        lambda: annealed_reach_probability(5, 0.1, 5, 1.5),
        lambda: annealed_reach_curve(3, [], 3, 1),
        lambda: annealed_reach_curve(3, [0.1, "0.2"], 3, 1),
        lambda: annealed_reach_curve("3", [0.1], 3, 1),
        lambda: annealed_reach_curve(3, [0.1], 2.5, 1),
        lambda: annealed_reach_curve(3, [0.1], 3, -1),
        lambda: max_open_reach(FIVE_MARKS, OpenSet(0.5, np.ones(40, dtype=bool))),
        lambda: max_open_reach(FIVE_MARKS, OpenSet(0.5, np.ones(1, dtype=bool))),
        lambda: max_open_reach(FIVE_MARKS, OpenSet(0.5, np.ones(0, dtype=bool))),
        lambda: max_open_reach(FIVE_MARKS, OpenSet(0.5, np.full(5, 0.5))),
        lambda: max_open_reach(FIVE_MARKS, OpenSet(0.5, [True] * 5)),
        lambda: max_open_reach(FIVE_MARKS, OpenSet(0.5, np.ones(5, dtype=int))),
        lambda: open_set_from_uniforms(FIVE_MARKS, 0.5, [0.5] * 4),
        lambda: open_set_from_uniforms(FIVE_MARKS, 0.5, np.full((5, 1), 0.5)),
        lambda: open_set_from_uniforms(FIVE_MARKS, 0.5, np.zeros(5, dtype=int)),
        lambda: open_set_from_uniforms(FIVE_MARKS, 0.5, ["0.5"] * 5),
        lambda: count_salg_paths(FIVE_MARKS, 2.5),
        lambda: count_salg_paths(FIVE_MARKS, "2"),
    ],
    ids=[
        "hits-levels-float", "hits-levels-negative", "hits-seed-float", "hits-seed-negative",
        "hits-start-float", "hits-start-negative", "hits-count-float", "hits-count-negative",
        "hits-no-beta", "hits-betas-string", "hits-beta-none", "hits-betas-number",
        "probability-levels-float", "probability-trials-float",
        "probability-trials-zero", "probability-seed-float", "curve-no-beta", "curve-beta-string",
        "curve-levels-string", "curve-trials-float", "curve-seed-negative",
        "reach-marks-too-many", "reach-marks-too-few", "reach-marks-none",
        "reach-marks-float", "reach-marks-list", "reach-marks-int",
        "uniforms-too-few", "uniforms-column", "uniforms-int", "uniforms-strings",
        "salg-length-float", "salg-length-string",
    ],
)
def test_reach_entry_points_reject_bad_counts(call):
    with pytest.raises(ValueError):
        call()


def test_reach_hits_reads_any_iterable_grid_once():
    want = reach_hits(5, [0.1, 0.3], 1, 0, 20)
    assert reach_hits(5, (b for b in (0.1, 0.3)), 1, 0, 20) == want
    assert reach_hits(5, np.array([0.1, 0.3]), 1, 0, 20) == want
    assert reach_hits(5, {0.1}, 1, 0, 20) == want[:1]
    curve = annealed_reach_curve(5, (b for b in (0.1, 0.3)), 20, 1)
    assert [(e.beta, e.reach_count) for e in curve] == list(zip((0.1, 0.3), want))


def test_reach_entry_points_take_numpy_integers():
    i = np.int64
    assert reach_hits(i(6), [0.2], i(88), i(2), i(30)) == reach_hits(6, [0.2], 88, 2, 30)
    assert annealed_reach_probability(i(6), 0.2, i(30), i(88)).levels == 6


def test_reach_hits_pinned_at_criterion_7b():
    # the counts of the full-triangulation trial loop this search replaced
    assert reach_hits(10, [0.02, 0.05, 0.1, 0.2], 1009, 0, 2000) == [0, 27, 665, 1494]


@pytest.mark.parametrize(
    "levels, betas, trials, want",
    [
        (10, [0.05], 4800, [56]),
        (30, [0.05], 600, [0]),
        (30, [0.2], 600, [467]),
        (10, [0.02, 0.05, 0.1, 0.2], 2800, [0, 29, 858, 2087]),
    ],
)
def test_reach_hits_pinned_at_the_bench_cells(levels, betas, trials, want):
    # the four (levels, betas) cells of the reach benchmark, each with 200
    # ops' worth of its trials at one seed (the bench derives a seed per op),
    # so that a moved draw fails here and not only in the bench's digest; at
    # (30, 0.05) a root's cluster is never seen to reach
    assert reach_hits(levels, betas, 1, 0, trials) == want


def test_annealed_reach_builds_no_triangulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the annealed reach hot path built a triangulation")

    monkeypatch.setattr(percolation, "forest_to_triangulation", refuse, raising=False)
    monkeypatch.setattr(Triangulation, "__init__", refuse)
    monkeypatch.setattr(Triangulation, "neighbors", property(refuse))
    monkeypatch.setattr(Triangulation, "mark_degrees", property(refuse))
    est = annealed_reach_probability(30, 0.2, 20, seed=85)
    assert est.trials == 20


def test_open_set_from_uniforms_couples():
    t = CHAIN4
    u = stream(80, 0).random(sum(t.level_sizes[:-1]))
    small = open_set_from_uniforms(t, 0.05, u)
    large = open_set_from_uniforms(t, 0.5, u)
    assert not (small.marks & ~large.marks).any()
    # a sequence of floats reads as the array it lists
    assert open_set_from_uniforms(t, 0.05, u.tolist()).marks.tolist() == small.marks.tolist()


@pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf])
def test_percolation_entry_points_reject_bad_beta(beta):
    # beta must be finite and >= 0, as in the Ising code
    t = CHAIN4
    u = stream(81, 0).random(len(t.mark_degrees))
    for call in (
        lambda: open_probability(3, beta),
        lambda: sample_open_set(t, beta, stream(81, 1)),
        lambda: open_set_from_uniforms(t, beta, u),
        lambda: reach_hits(5, [beta], 1, 0, 5),
        lambda: annealed_reach_probability(5, beta, 50, 1),
        lambda: annealed_reach_curve(5, [0.1, beta], 50, 1),
        lambda: annealed_reach_curve(5, [beta, 0.1], 50, 1),
    ):
        with pytest.raises(ValueError, match="beta"):
            call()


def test_is_locally_geodesic_single_edge():
    t = CHAIN4
    assert is_locally_geodesic(t, [(0, 0), (1, 0)])


def test_is_locally_geodesic_rejects_detour():
    # (root, (1,0), (2,0)) on the chain: root and (2,0) are not adjacent,
    # so that path is geodesic; build a fan where a chord exists
    t = forest_to_triangulation(((2,), (1, 1)))
    # (1,0) and (1,1) are horizontal neighbors, both adjacent to root
    path = [(0, 0), (1, 0), (1, 1)]
    assert not is_locally_geodesic(t, path)


def test_is_locally_geodesic_rejects_nonpath():
    t = CHAIN4
    with pytest.raises(ValueError):
        is_locally_geodesic(t, [(0, 0), (2, 0)])


def test_locally_geodesic_two_path_neighbors():
    # along a geodesic path every vertex touches at most two path vertices
    for i in range(30):
        t = forest_to_triangulation(sample_spine_forest(stream(81, i), 5))
        adj = [set() for _ in range(t.vertex_count)]
        for v, nbrs in enumerate(csr_rows(*t.primal_adjacency)):
            for other, _ in nbrs:
                if other != v:
                    adj[v].add(other)
        # greedy geodesic path: climb the fan-start chain (always an edge)
        path = [(0, 0)]
        for n in range(t.top_level):
            path.append((n + 1, t.fans[n][path[-1][1]][0]))
        if not is_locally_geodesic(t, path):
            continue
        flats = [t.flat_index(l, p) for l, p in path]
        for f in flats:
            assert len(adj[f] & set(flats)) <= 2


def test_count_salg_paths_base():
    assert count_salg_paths(CHAIN4, 0) == 1
    with pytest.raises(ValueError):
        count_salg_paths(CHAIN4, 13)


def test_count_salg_paths_bounded_by_self_avoiding():
    for i in range(20):
        t = forest_to_triangulation(sample_spine_forest(stream(82, i), 4))
        for length in (1, 2, 3):
            assert count_salg_paths(t, length) <= count_self_avoiding_paths(t, length)


def test_shortcut_produces_locally_geodesic():
    found = 0
    for i in range(80):
        rng = stream(83, i)
        t = forest_to_triangulation(sample_spine_forest(rng, 6))
        opens = sample_open_set(t, 0.3, rng)
        res = max_open_reach(t, opens)
        if res.path is None or len(res.path) < 3:
            continue
        found += 1
        short = shortcut_to_locally_geodesic(t, res.path)
        assert is_locally_geodesic(t, short)
        assert len(short) <= len(res.path)
        assert short[0] == (0, 0) and short[-1] == res.path[-1]
        members = set(res.path)
        assert all(v in members for v in short)  # openness carries over
    assert found > 5


def test_shortcut_takes_a_chord():
    # the root sees both level-1 vertices, so the step through (1, 0) is a detour
    t = forest_to_triangulation(((2,), (1, 2)))
    assert shortcut_to_locally_geodesic(t, [(0, 0), (1, 0), (1, 1)]) == [(0, 0), (1, 1)]
