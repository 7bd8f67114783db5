"""Tests for the critical branching core: exact laws and samplers."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cdt_ising import branching
from cdt_ising.branching import (
    FiniteTree,
    LevelForest,
    SpineForest,
    _first_block,
    _geometric_half,
    _pass_degrees,
    _spine_passes,
    level_size_pmf,
    offspring_gf,
    offspring_pmf,
    psi_n,
    sample_spine_forest,
    size_biased_pmf,
)
from cdt_ising.cli import _level_size_chunk
from cdt_ising.percolation import open_probability
from cdt_ising.rng import TrialKeys, stream


def psi_n_series_coefficients(n: int, k_max: int) -> list[Fraction]:
    """Independent oracle: power-series coefficients of (n-(n-1)s)/(n+1-ns)
    by exact long division with rationals."""
    num = [Fraction(n), Fraction(-(n - 1))]
    den = [Fraction(n + 1), Fraction(-n)]
    coeffs = []
    rem = list(num) + [Fraction(0)] * k_max
    for k in range(k_max + 1):
        c = rem[k] / den[0]
        coeffs.append(c)
        rem[k + 1] -= c * den[1]
    return coeffs


def test_offspring_pmf_values():
    assert offspring_pmf(0) == 0.5
    assert offspring_pmf(1) == 0.25
    assert abs(sum(offspring_pmf(k) for k in range(61)) - 1.0) < 1e-12


def test_offspring_pmf_mean_is_one():
    mean = sum(k * offspring_pmf(k) for k in range(200))
    assert abs(mean - 1.0) < 1e-12


def test_offspring_pmf_rejects_negative():
    with pytest.raises(ValueError):
        offspring_pmf(-1)


@pytest.mark.parametrize("value", [2.5, "3", None])
@pytest.mark.parametrize("call", [
    lambda x: offspring_pmf(x),
    lambda x: size_biased_pmf(x),
    lambda x: psi_n(x, 0.3),
    lambda x: level_size_pmf(x, 2),
    lambda x: level_size_pmf(2, x),
    lambda x: open_probability(x, 0.1),
], ids=["offspring_pmf", "size_biased_pmf", "psi_n", "level_size_pmf_n", "level_size_pmf_k",
        "open_probability"])
def test_integer_arguments_refuse_other_values(call, value):
    # 2.5 gave a wrong number with no error, "3" and None a TypeError
    with pytest.raises(ValueError, match="must be an integer"):
        call(value)


def test_offspring_gf_matches_series():
    for s in (0.0, 0.3, 0.9, 1.0):
        series = sum(offspring_pmf(k) * s**k for k in range(400))
        assert abs(offspring_gf(s) - series) < 1e-12


def test_psi_n_examples():
    assert abs(psi_n(3, 0.0) - 0.75) < 1e-15
    assert psi_n(5, 1.0) == 1.0
    # direct series at n=1: sum_k (1/2)^(k+1) (1/2)^k = 2/3
    series = sum(offspring_pmf(k) * 0.5**k for k in range(200))
    assert abs(series - 2.0 / 3.0) < 1e-13
    assert abs(psi_n(1, 0.5) - 2.0 / 3.0) < 1e-15


def test_psi_n_two_generation_composition():
    # brute-force two-generation transform: sum_k p_k * (sum_j p_j s^j)^k
    s = 0.4
    inner = sum(offspring_pmf(j) * s**j for j in range(200))
    outer = sum(offspring_pmf(k) * inner**k for k in range(400))
    assert abs(psi_n(2, s) - outer) < 1e-12


def test_psi_n_domain():
    with pytest.raises(ValueError):
        psi_n(1, -0.1)
    with pytest.raises(ValueError):
        psi_n(1, 1.1)
    with pytest.raises(ValueError):
        psi_n(0, 0.5)
    # offspring_gf is psi_n at n = 1 and reads s through the same check:
    # 3.0 gave -1.0, 2.0 a ZeroDivisionError and "a" a TypeError
    for s in (-0.1, 1.1, 2.0, 3.0, math.nan, math.inf, "a", None, 0.5j):
        for call in (lambda s: psi_n(2, s), offspring_gf):
            with pytest.raises(ValueError, match="in \\[0, 1\\]"):
                call(s)


def test_psi_n_semigroup():
    grid = [0.0, 0.17, 0.5, 0.83, 1.0]
    for n in range(1, 11):
        for m in range(1, 11):
            for s in grid:
                assert abs(psi_n(n + m, s) - psi_n(n, psi_n(m, s))) < 1e-12


def test_level_size_pmf_small_values():
    # oracle: coefficients of s * psi_n'(s) are k * [s^k] psi_n(s)
    assert abs(level_size_pmf(1, 1) - 0.25) < 1e-15
    assert abs(level_size_pmf(1, 2) - 0.25) < 1e-15


def test_level_size_pmf_matches_series_coefficients():
    for n in range(1, 11):
        coeffs = psi_n_series_coefficients(n, 50)
        for k in range(1, 51):
            expected = float(k * coeffs[k])
            assert abs(level_size_pmf(n, k) - expected) < 1e-12, (n, k)


def test_level_size_pmf_normalizes():
    total = sum(level_size_pmf(5, k) for k in range(1, 401))
    assert abs(total - 1.0) < 1e-10


def test_level_size_pmf_rejects_zero():
    with pytest.raises(ValueError):
        level_size_pmf(3, 0)


def test_size_biased_pmf():
    assert size_biased_pmf(1) == 0.25
    assert size_biased_pmf(2) == 0.25
    assert abs(sum(size_biased_pmf(k) for k in range(1, 61)) - 1.0) < 1e-12
    for k in range(1, 40):
        assert size_biased_pmf(k) == k * offspring_pmf(k)
    with pytest.raises(ValueError):
        size_biased_pmf(0)


def test_finite_tree_validation():
    FiniteTree((2, 0, 0), (0, 1, 1))
    with pytest.raises(ValueError):
        FiniteTree((2, 0, 0), (0, 1, 2))  # bad height
    with pytest.raises(ValueError):
        FiniteTree((2, 0), (0, 1))  # truncated encoding


def test_spine_forest_structure():
    for i in range(100):
        sf = sample_spine_forest(stream(2, i), 4)
        sizes = sf.level_sizes
        assert sizes[0] == 1
        assert len(sf.spine_positions) == 5
        for n in range(5):
            assert 0 <= sf.spine_positions[n] < sizes[n]
        # flattened forest is valid and matches the spine child counts
        forest = sf.to_forest()
        assert forest.level_sizes == sizes
        for n in range(4):
            assert forest.out_degrees[n][sf.spine_positions[n]] == sf.spine_child_count(n)


def test_spine_forest_single_spine_child_case():
    # whenever both side-tree lists are empty the spine vertex has one child
    found = False
    for i in range(200):
        sf = sample_spine_forest(stream(3, i), 1)
        if sf.spine_child_count(0) == 1:
            assert sf.level_sizes[1] >= 1
            assert sf.to_forest().out_degrees[0] == (1,)
            found = True
    assert found


def test_spine_forest_level_size_law():
    # goodness of fit against the conditioned level-size law at n = 3
    trials = 20000
    counts = Counter()
    for i in range(trials):
        sf = sample_spine_forest(stream(4, i), 3)
        counts[sf.level_sizes[3]] += 1
    tv = 0.5 * sum(
        abs(counts.get(k, 0) / trials - level_size_pmf(3, k)) for k in range(1, 200)
    )
    assert tv < 0.03


def test_spine_child_position_uniform_given_child_count():
    # P(spine child is the j-th of k children) = 1/k, pooled over levels
    counts: dict[int, Counter] = {k: Counter() for k in (1, 2, 3, 4)}
    for i in range(5000):
        sf = sample_spine_forest(stream(31, i), 4)
        for n in range(4):
            p = sf.spine_positions[n]
            k = sf.spine_child_count(n)
            if k in counts:
                first = sum(sf.out_degrees[n][:p])
                counts[k][sf.spine_positions[n + 1] - first] += 1
    for k, c in counts.items():
        total = sum(c.values())
        assert set(c) <= set(range(k))
        for j in range(k):
            se = (1 / k * (1 - 1 / k) / total) ** 0.5
            assert abs(c[j] / total - 1 / k) <= 4 * se + 1e-12


def test_non_spine_out_degrees_are_geometric():
    # P(0) = 1/2 and mean 1 (variance 2) for every vertex off the spine
    degs = []
    for i in range(400):
        sf = sample_spine_forest(stream(32, i), 8)
        for n, lst in enumerate(sf.out_degrees):
            p = sf.spine_positions[n]
            degs.extend(lst[:p] + lst[p + 1:])
    degs = np.array(degs)
    m = len(degs)
    assert m > 10000
    assert abs(np.mean(degs == 0) - 0.5) < 4 * (0.25 / m) ** 0.5
    assert abs(degs.mean() - 1.0) < 4 * (2.0 / m) ** 0.5


def test_spine_forest_level_20_size_law():
    # TV to the conditioned law at n = 20, against E[TV] + a McDiarmid
    # margin at false-alarm probability 1e-4
    n_level, trials = 20, 10000
    counts = Counter(
        sample_spine_forest(stream(33, i), n_level).level_sizes[n_level] for i in range(trials)
    )
    pmf = {k: level_size_pmf(n_level, k) for k in range(1, max(counts) + 2000)}
    tv = 0.5 * sum(abs(counts.get(k, 0) / trials - p) for k, p in pmf.items())
    expected = 0.5 * sum((p * (1 - p) / trials) ** 0.5 for p in pmf.values())
    assert tv < expected + (np.log(1e4) / (2 * trials)) ** 0.5


def test_side_trees_cover_the_forest():
    for i in range(60):
        for levels in (1, 2, 7, 15):
            sf = sample_spine_forest(stream(34, i), levels)
            trees = sum(t.node_count for side in (sf.left, sf.right) for lst in side for t in lst)
            assert levels + 1 + trees == sum(sf.level_sizes)
            for n in range(levels):
                assert len(sf.left[n]) + 1 + len(sf.right[n]) == sf.spine_child_count(n)
                assert all(t.max_height <= levels - n - 1 for t in sf.left[n] + sf.right[n])


@pytest.mark.parametrize("lists", [((2.5,),), ((1.0,),), (("1",),), ((2,), (1, 0.0))])
def test_level_forest_rejects_non_integer_degrees(lists):
    with pytest.raises(ValueError, match="must be integers"):
        LevelForest(lists)


def test_level_forest_takes_numpy_integers():
    forest = LevelForest((np.array([2]), np.array([1, 0], dtype=np.int8)))
    assert forest.out_degrees == ((2,), (1, 0))
    assert all(type(d) is int for lst in forest.out_degrees for d in lst)
    assert forest.level_sizes == (1, 2, 1)


def test_level_forest_rejects_bad_input():
    with pytest.raises(ValueError):
        LevelForest(((2,), (0, 0)))  # empty level above
    with pytest.raises(ValueError):
        LevelForest(((1, 1),))  # two roots
    with pytest.raises(ValueError):
        LevelForest(((1,), (2, 1)))  # wrong list length


def reference_spine_forest(rng, levels: int) -> SpineForest:
    """The per-level sampler the block sampler replaced: per level, the spine
    pair ``rng.geometric(0.5, size=2)`` and one batch for the whole level."""
    out = []
    spine = [0]
    k = 1
    for _ in range(levels):
        p = spine[-1]
        left, right = (rng.geometric(0.5, size=2) - 1).tolist()
        degs = (rng.geometric(0.5, size=k) - 1).tolist()
        degs[p] = left + 1 + right
        spine.append(sum(degs[:p]) + left)
        out.append(tuple(degs))
        k = sum(degs)
    return SpineForest(levels, tuple(out), tuple(spine))


def test_geometric_half_equals_numpy_geometric():
    # numpy's Geom(1/2) takes one double per variate; if a numpy release
    # changes its algorithm, the block sampler's trees change and this fails
    got = _geometric_half(stream(35).random(10**6))
    assert np.array_equal(got, stream(35).geometric(0.5, size=10**6) - 1)


@pytest.mark.parametrize(
    "u, want",
    [(0.0, 0), (2**-53, 0), (0.5, 0), (0.5 + 2**-53, 1), (0.75, 1), (1 - 2**-53, 52)],
)
def test_geometric_half_edge_uniforms(u, want):
    # numpy's search: X = the first x with u <= 1 - 2^-x, run on the double
    x, total = 1, 0.5
    while u > total:
        x, total = x + 1, total + 0.5**(x + 1)
    assert _geometric_half(np.array([u])).tolist() == [x - 1] == [want]


def test_block_sampler_equals_per_level_reference():
    outgrown = 0
    for levels in (1, 2, 5, 11, 21, 31, 60):
        for i in range(40):
            a, b = stream(36, levels, i), stream(36, levels, i)
            forest = sample_spine_forest(a, levels)
            assert forest == reference_spine_forest(b, levels), (levels, i)
            # the generator is left where the per-level calls leave it
            assert np.array_equal(a.random(3), b.random(3))
        # the trial driver's trees through the sampler's degree rule, every
        # pass at once, between pads of 0-2 entries that no tree holds
        trials = iter(range(40))
        for walks in _spine_passes(TrialKeys(36), range(40), levels):
            pads = [np.full(j % 3, -1 - j) for j in range(len(walks) + 1)]
            got = _pass_degrees([(g, sizes, spine) for sizes, spine, _, _, g, _ in walks], pads)
            want = [*pads[0]]
            for (sizes, spine, _, _, _, end), pad in zip(walks, pads[1:]):
                forest = sample_spine_forest(stream(36, next(trials)), levels)
                want += [d for lst in forest.out_degrees for d in lst] + [*pad]
                assert (tuple(sizes), tuple(spine)) == (forest.level_sizes, forest.spine_positions)
                outgrown += end > _first_block(levels)  # grown past its row
            assert got.tolist() == want, levels
        assert next(trials, None) is None
    assert outgrown > 0


@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("levels", [1, 12])
def test_spine_passes_equal_per_trial_samples(monkeypatch, block, levels):
    # two passes at depth 12 with the default row; a one-double row makes
    # every tree outgrow it and be grown from its key
    if block is not None:
        monkeypatch.setattr(branching, "_first_block", lambda levels: block)
    trials = range(7, 257)
    hist = Counter()
    walks = [w for ws in _spine_passes(TrialKeys(61), trials, levels) for w in ws]
    assert len(walks) == len(trials)
    for i, (sizes, spine, key, u, g, end) in zip(trials, walks):
        forest = sample_spine_forest(stream(61, i), levels)
        assert (tuple(sizes), tuple(spine)) == (forest.level_sizes, forest.spine_positions)
        assert end <= len(u) and np.array_equal(u, stream(61, i).random(len(u)))
        hist.update(enumerate(forest.level_sizes))
    assert _level_size_chunk(61, levels, trials.start, len(trials)) == hist


@pytest.mark.parametrize("levels", [2.5, 1.0, "3", None, 0, -1])
def test_sample_spine_forest_rejects_bad_levels(levels):
    with pytest.raises(ValueError, match="levels"):
        sample_spine_forest(stream(37), levels)


def test_sample_spine_forest_takes_numpy_integers():
    assert sample_spine_forest(stream(38), np.int64(4)) == sample_spine_forest(stream(38), 4)
