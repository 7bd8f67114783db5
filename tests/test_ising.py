"""Tests for energies, the exact Gibbs distribution, and Glauber dynamics."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdt_ising import ising
from cdt_ising.ising import (
    MAX_EXACT_SPINS,
    RootEstimate,
    SpinState,
    _heat_bath_table,
    boundary_vector,
    conditional_spin_prob,
    energy,
    gibbs_exact,
    glauber_sweep,
    root_plus_probability,
)
from cdt_ising.branching import sample_spine_forest
from cdt_ising.rng import stream
from cdt_ising.triangulation import (
    Triangulation,
    enumerate_triangulations,
    forest_to_triangulation,
)

from test_acceptance import GLAUBER_T
from test_triangulation import csr_rows, out_degree_lists


CHAIN = forest_to_triangulation(((1,), (1,)))  # spins on levels 0..1, boundary above
WIDE = forest_to_triangulation(((2,), (1, 2)))  # 3 free spins


def test_all_plus_energy_is_minus_edge_count():
    for t in (CHAIN, WIDE):
        st = SpinState.constant(t, 1, "plus", 1.0)
        et = t.free_graph
        assert energy(t, st) == -(len(et.ia) + et.n_loops + len(et.bv))


def test_single_flip_energy_change():
    # flipping one spin from all-plus raises the energy by twice its non-loop
    # incident edge count (loops contribute a constant)
    t = WIDE
    st = SpinState.constant(t, 1, "plus", 1.0)
    base = energy(t, st)
    # vertex (1, 0): internal with distinct horizontal neighbors
    d = t.vertex_degree(1, 0)
    flipped = st.copy()
    flipped.spins[t.flat_index(1, 0)] = -1
    assert energy(t, flipped) - base == 2 * d.total


def test_energy_rejects_bad_state():
    st = SpinState.constant(CHAIN, 1, "plus", 1.0)
    with pytest.raises(ValueError):
        energy(CHAIN, SpinState(st.spins[:1], st.boundary, 1.0))
    bad = st.copy()
    bad.spins[0] = 0
    with pytest.raises(ValueError):
        energy(CHAIN, bad)
    # a boundary shorter or longer than the top level
    wide_st = SpinState.constant(WIDE, 1, "plus", 1.0)  # boundary of length 3
    for boundary in (wide_st.boundary[:2], np.ones(4, dtype=np.int8)):
        with pytest.raises(ValueError):
            energy(WIDE, SpinState(wide_st.spins, boundary, 1.0))
    # a state of a larger triangulation
    with pytest.raises(ValueError):
        glauber_sweep(CHAIN, wide_st, stream(30))


def test_boundary_vector_forms():
    assert (boundary_vector(CHAIN, "plus") == [1]).all()
    assert (boundary_vector(CHAIN, "minus") == [-1]).all()
    assert (boundary_vector(CHAIN, [-1]) == [-1]).all()
    with pytest.raises(ValueError):
        boundary_vector(CHAIN, [1, 1])
    with pytest.raises(ValueError):
        boundary_vector(CHAIN, "up")


# WIDE has 3 free spins and 3 boundary spins, so each of these fits either;
# the int8 arrays miss the short path of the +-1 check by one value
NOT_PM1 = [[1.5, -1, 1], ["1", "-1", "1"], ["1", 1, 1], [255, 1, 1], [1, None, -1],
           *(np.array([1, -1, x], dtype=np.int8) for x in (0, 2, 127, -128))]
NOT_PM1_IDS = ["float", "str", "mixed", "255", "None",
               "int8_0", "int8_2", "int8_127", "int8_-128"]


@pytest.mark.parametrize("values", NOT_PM1, ids=NOT_PM1_IDS)
def test_every_entry_point_rejects_values_that_are_not_pm1(values):
    ok = SpinState.constant(WIDE, 1, "plus", 0.5)
    g = gibbs_exact(WIDE, 0.5, "plus")
    for call in (
        lambda: boundary_vector(WIDE, values),
        lambda: SpinState.constant(WIDE, 1, values, 0.5),
        lambda: energy(WIDE, SpinState(values, ok.boundary, 0.5)),
        lambda: energy(WIDE, SpinState(ok.spins, values, 0.5)),
        lambda: glauber_sweep(WIDE, SpinState(values, ok.boundary, 0.5), stream(50)),
        lambda: glauber_sweep(WIDE, SpinState(ok.spins, values, 0.5), stream(50)),
        lambda: gibbs_exact(WIDE, 0.5, values),
        lambda: g.prob_of(values),
        lambda: root_plus_probability(WIDE, 0.5, values, sweeps=32, replicas=1, seed=9),
    ):
        with pytest.raises(ValueError, match=r"\+-1"):
            call()


def strided_int8(values):
    """An int8 view of every other entry of a twice-as-long array."""
    a = np.zeros(2 * len(values), dtype=np.int8)
    view = a[::2]
    view[:] = values
    return view


def read_only_int8(values):
    a = np.array(values, dtype=np.int8)
    a.flags.writeable = False
    return a


PM1_FORMS = {
    "int8": lambda x: np.array(x, dtype=np.int8),
    "int64": lambda x: np.array(x, dtype=np.int64),
    "float": lambda x: np.array(x, dtype=float),
    "list": list,
    "strided_int8": strided_int8,
    "read_only_int8": read_only_int8,
}


def test_pm1_check_accepts_lists_and_floats():
    spins, boundary = [1, -1, -1], [1, -1, 1]
    ref = SpinState(np.array(spins, dtype=np.int8), np.array(boundary, dtype=np.int8), 0.5)
    g = gibbs_exact(WIDE, 0.5, ref.boundary)
    swept = glauber_sweep(WIDE, ref, stream(51)).spins.tolist()
    est = root_plus_probability(WIDE, 0.5, ref.boundary, sweeps=32, replicas=1, seed=9)
    for form in (lambda x: [float(v) for v in x], *PM1_FORMS.values()):
        state = SpinState(form(spins), form(boundary), 0.5)
        assert boundary_vector(WIDE, form(boundary)).tolist() == boundary
        assert energy(WIDE, state) == energy(WIDE, ref)
        assert glauber_sweep(WIDE, state, stream(51)).spins.tolist() == swept
        assert g.prob_of(form(spins)) == g.prob_of(ref.spins)
        assert np.array_equal(gibbs_exact(WIDE, 0.5, form(boundary)).probs, g.probs)
        assert root_plus_probability(WIDE, 0.5, form(boundary), sweeps=32, replicas=1,
                                     seed=9) == est


def test_gibbs_uniform_at_beta_zero():
    g = gibbs_exact(WIDE, 0.0, "minus")
    assert np.allclose(g.probs, 1.0 / len(g.probs))


def test_gibbs_size_guard():
    # levels (1, 5, 20, 1): 26 free spins, above the exact-enumeration cap
    t = forest_to_triangulation(((5,), (4, 4, 4, 4, 4), (1,) + (0,) * 19))
    with pytest.raises(ValueError):
        gibbs_exact(t, 0.5, "plus")


def test_spin_flip_symmetry():
    for t in (CHAIN, WIDE):
        for beta in (0.3, 1.0):
            gp = gibbs_exact(t, beta, "plus")
            gm = gibbs_exact(t, beta, "minus")
            assert abs((1.0 - gp.root_plus()) - gm.root_plus()) < 1e-14


def test_minus_boundary_pulls_root_down():
    g = gibbs_exact(CHAIN, 1.0, "minus")
    assert g.root_plus() < 0.5


def test_gibbs_prob_of_and_marginals_consistent():
    g = gibbs_exact(WIDE, 0.7, "minus")
    total = 0.0
    root_plus = 0.0
    n = g.n_free
    for c in range(2**n):
        spins = np.array([1 if (c >> v) & 1 else -1 for v in range(n)], dtype=np.int8)
        total += g.prob_of(spins)
        if spins[0] > 0:
            root_plus += g.prob_of(spins)
    assert abs(total - 1.0) < 1e-12
    assert abs(root_plus - g.root_plus()) < 1e-12


@pytest.mark.parametrize("spins", [np.zeros(3), [5, 5, 5], [1, -1, 0.5], [1, np.nan, -1]])
def test_prob_of_rejects_spins_that_are_not_pm1(spins):
    # read as s > 0, each of these would alias a +-1 configuration
    g = gibbs_exact(WIDE, 0.7, "minus")
    with pytest.raises(ValueError):
        g.prob_of(spins)
    assert g.prob_of([1.0, -1.0, 1.0]) == g.prob_of(np.array([1, -1, 1], dtype=np.int8))


@pytest.mark.parametrize("level, pos", [(1, 5), (1, 2)])
def test_marginal_rejects_missing_vertex(level, pos):
    # (1, 2) would be the flat id of (2, 0), and (1, 5) one of a boundary vertex
    g = gibbs_exact(forest_to_triangulation(((2,), (1, 2), (1, 1, 1))), 0.5, "plus")
    with pytest.raises(ValueError):
        g.marginal_plus(level, pos)


@pytest.mark.parametrize("bc", ["plus", "minus", (1, -1, 1)])
def test_marginal_of_boundary_vertex_is_its_fixed_spin(bc):
    t = forest_to_triangulation(((2,), (1, 2), (1, 1, 1)))
    g = gibbs_exact(t, 0.5, bc)
    assert [g.marginal_plus(3, p) for p in range(3)] == [float(s > 0) for s in g.boundary]


@settings(max_examples=50, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_gibbs_exact_matches_energy_under_mixed_boundary(lists, data):
    # drop top levels until at most 12 spins are free
    while len(lists) > 1 and 1 + sum(map(sum, lists[:-1])) > 12:
        lists = lists[:-1]
    t = forest_to_triangulation(lists)
    k_top = t.level_sizes[-1]
    bc = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=k_top, max_size=k_top))
    beta = data.draw(st.floats(0.0, 2.0))
    g = gibbs_exact(t, beta, bc)
    n = g.n_free
    index = np.arange(2**n)
    # reference: every edge summed directly, the boundary read through bv/bpos
    et = t.free_graph
    s = 2 * ((index[:, None] >> np.arange(n)) & 1) - 1
    interior = (s[:, et.ia] * s[:, et.ib]).sum(axis=1)
    boundary = (s[:, et.bv] * g.boundary[et.bpos]).sum(axis=1)
    assert np.array_equal(g.energies, -et.n_loops - interior - boundary)
    for c in range(2**n):
        spins = np.array([1 if (c >> v) & 1 else -1 for v in range(n)], dtype=np.int8)
        assert g.energies[c] == energy(t, SpinState(spins, g.boundary, beta))
    for v in range(n):
        level, pos = t.vertex_at(v)
        expected = g.probs[(index >> v) & 1 == 1].sum()
        assert abs(g.marginal_plus(level, pos) - expected) < 1e-12


def reference_gibbs(t, beta, boundary):
    """Energies and probabilities from the full (n, 2^n) spin table that
    doubling replaced: row v is spin v, +1 where bit v of the index is set,
    and H takes one int64 pass per field entry and per interior edge."""
    fg = t.free_graph
    n = fg.n_free
    spins = np.empty((n, 1 << n), dtype=np.int8)
    for v in range(n):
        spins[v].reshape(-1, 2, 1 << v)[:] = np.array([[-1], [1]], dtype=np.int8)
    field = np.array(reference_field(t, boundary), dtype=np.int64)
    h = np.full(1 << n, -fg.n_loops, dtype=np.int64)
    for v in np.flatnonzero(field):
        h -= field[v] * spins[v]
    for a, b in zip(fg.ia.tolist(), fg.ib.tolist()):
        h -= spins[a] * spins[b]
    energies = h.astype(np.float64)
    logw = -beta * energies
    logw -= logw.max()
    w = np.exp(logw)
    return energies, w / w.sum()


def mixed_boundary(t):
    return np.where(np.arange(t.level_sizes[-1]) % 3 == 1, -1, 1).astype(np.int8)


def assert_gibbs_equals_reference(t):
    for bc in ("plus", "minus", mixed_boundary(t)):
        g = gibbs_exact(t, 0.7, bc)
        energies, probs = reference_gibbs(t, 0.7, g.boundary)
        assert g.energies.tobytes() == energies.tobytes()
        assert g.probs.tobytes() == probs.tobytes()


@pytest.mark.parametrize("levels, width_cap", [(2, 4), (3, 3)])
def test_doubling_equals_the_spin_table_on_every_small_instance(levels, width_cap):
    for t, _ in enumerate_triangulations(levels, width_cap):
        assert_gibbs_equals_reference(t)


@pytest.mark.parametrize("n", range(16, MAX_EXACT_SPINS + 1))
def test_doubling_equals_the_spin_table_at_16_to_22_spins(n):
    for j in range(10_000):
        forest = sample_spine_forest(stream(54, n, j), 4 + j % 4)
        if sum(forest.level_sizes[:-1]) == n:
            break
    t = forest_to_triangulation(forest)
    assert t.free_graph.n_free == n
    assert_gibbs_equals_reference(t)


def test_conditional_spin_prob():
    assert conditional_spin_prob(0, 1.3) == 0.5
    assert conditional_spin_prob(5, 0.0) == 0.5
    for d in range(3, 11):
        for beta in (0.1, 0.5):
            tv = conditional_spin_prob(d, beta) - conditional_spin_prob(-d, beta)
            assert abs(tv - math.tanh(beta * d)) < 1e-12


def test_heat_bath_at_exp_overflow():
    # exp(-2*beta*S) overflows; the exact float limit is p = 0
    assert conditional_spin_prob(-400, 1.0) == 0.0
    assert conditional_spin_prob(400, 1.0) == 1.0
    state = glauber_sweep(WIDE, SpinState.constant(WIDE, -1, "minus", 200.0), stream(35))
    assert (state.spins == -1).all()
    est = root_plus_probability(WIDE, 200.0, "minus", sweeps=64, replicas=1, seed=36)
    assert est.estimate == 0.0


def test_glauber_deterministic_under_frozen_stream():
    st = SpinState.random(WIDE, stream(31, 0), "minus", 0.6)
    a = glauber_sweep(WIDE, st, stream(32, 0))
    b = glauber_sweep(WIDE, st, stream(32, 0))
    assert np.array_equal(a.spins, b.spins)


def test_glauber_beta_zero_uniform():
    rng = stream(33)
    st = SpinState.constant(WIDE, 1, "minus", 0.0)
    total = np.zeros(3)
    sweeps = 20000
    for _ in range(sweeps):
        st = glauber_sweep(WIDE, st, rng)
        total += st.spins
    assert np.abs(total / sweeps).max() < 0.05


def test_glauber_matches_exact_marginals():
    beta = 0.8
    g = gibbs_exact(WIDE, beta, "minus")
    exact = np.array([g.marginal_plus(0, 0), g.marginal_plus(1, 0), g.marginal_plus(1, 1)])
    rng = stream(34)
    st = SpinState.random(WIDE, rng, "minus", beta)
    for _ in range(500):
        st = glauber_sweep(WIDE, st, rng)
    counts = np.zeros(3)
    sweeps = 100000
    for _ in range(sweeps):
        st = glauber_sweep(WIDE, st, rng)
        counts += st.spins > 0
    assert np.abs(counts / sweeps - exact).max() < 0.02


def test_glauber_detailed_balance_exact():
    # pi(s) P(s -> s') == pi(s') P(s' -> s) for every single-flip pair, where
    # P uses the heat-bath acceptance of the flipped site
    t = WIDE
    beta = 0.9
    g = gibbs_exact(t, beta, "minus")
    et_bc = g.boundary
    n = g.n_free
    et = t.free_graph
    nbrs = csr_rows(*et.neighbors)
    for c in range(2**n):
        spins = np.array([1 if (c >> v) & 1 else -1 for v in range(n)], dtype=np.int8)
        for v in range(n):
            s_sum = sum(int(spins[j]) for j in nbrs[v]) + sum(
                int(et_bc[p]) for a, p in zip(et.bv, et.bpos) if a == v
            )
            p_plus = conditional_spin_prob(s_sum, beta)
            flipped = spins.copy()
            flipped[v] = -flipped[v]
            p_to_flip = p_plus if flipped[v] > 0 else 1.0 - p_plus
            p_back = p_plus if spins[v] > 0 else 1.0 - p_plus
            lhs = g.prob_of(spins) * p_to_flip
            rhs = g.prob_of(flipped) * p_back
            assert abs(lhs - rhs) < 1e-12


def test_root_plus_probability_beta_zero():
    est = root_plus_probability(CHAIN, 0.0, "minus", sweeps=4000, replicas=2, seed=7)
    assert abs(est.estimate - 0.5) < max(4 * est.stderr, 0.02)


def test_root_plus_probability_matches_exact():
    beta = 0.7
    g = gibbs_exact(WIDE, beta, "minus")
    est = root_plus_probability(WIDE, beta, "minus", sweeps=20000, replicas=2, seed=8)
    assert abs(est.estimate - g.root_plus()) < 3 * est.stderr + 1e-3


def test_root_plus_probability_rejects_no_replicas():
    with pytest.raises(ValueError):
        root_plus_probability(WIDE, 0.5, "minus", sweeps=64, replicas=0, seed=9, burn_in=0)


def test_root_plus_probability_rejects_negative_burn_in():
    with pytest.raises(ValueError):
        root_plus_probability(WIDE, 0.5, "minus", sweeps=64, replicas=1, seed=9, burn_in=-1)


@pytest.mark.parametrize("seed", [1.5, -1, "3"])
def test_root_plus_probability_rejects_bad_seeds(seed):
    # 1.5 raised numpy's TypeError, -1 numpy's own message, "3" a TypeError
    with pytest.raises(ValueError, match="seed"):
        root_plus_probability(WIDE, 0.5, "minus", sweeps=64, replicas=1, seed=seed)


def test_root_plus_probability_deterministic():
    a = root_plus_probability(CHAIN, 0.5, "minus", sweeps=1000, replicas=2, seed=9)
    b = root_plus_probability(CHAIN, 0.5, "minus", sweeps=1000, replicas=2, seed=9)
    assert a == b


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_ising_entry_points_reject_non_finite_beta(beta):
    with pytest.raises(ValueError):
        glauber_sweep(WIDE, SpinState.constant(WIDE, 1, "minus", beta), stream(37))
    with pytest.raises(ValueError):
        root_plus_probability(WIDE, beta, "minus", sweeps=64, replicas=1, seed=9)
    with pytest.raises(ValueError):
        gibbs_exact(WIDE, beta, "minus")


BETA_ENTRY_POINTS = pytest.mark.parametrize("entry_point", [
    lambda beta: glauber_sweep(WIDE, SpinState.constant(WIDE, 1, "minus", beta), stream(37)),
    lambda beta: root_plus_probability(WIDE, beta, "minus", sweeps=64, replicas=1, seed=9),
    lambda beta: gibbs_exact(WIDE, beta, "minus"),
], ids=["glauber_sweep", "root_plus_probability", "gibbs_exact"])


@BETA_ENTRY_POINTS
def test_ising_entry_points_reject_negative_beta(entry_point):
    # beta >= 0 (the ferromagnet) is the rule of every entry point
    with pytest.raises(ValueError, match=">= 0"):
        entry_point(-0.5)
    entry_point(-0.0)  # equal to 0


@BETA_ENTRY_POINTS
@pytest.mark.parametrize("beta", ["0.5", None], ids=["str", "none"])
def test_ising_entry_points_reject_beta_that_is_not_a_number(entry_point, beta):
    # gibbs_exact parsed beta with float() before checking it, so it took
    # "0.5" and raised TypeError on None
    with pytest.raises(ValueError, match="beta"):
        entry_point(beta)


def test_root_plus_probability_needs_a_free_root():
    # a triangulation of the root alone: the root is its boundary
    t = Triangulation((1,), ())
    with pytest.raises(ValueError, match="no free spin"):
        root_plus_probability(t, 0.5, "plus", sweeps=4, replicas=1, seed=1, batches=2)
    state = glauber_sweep(t, SpinState.constant(t, 1, "plus", 0.5), stream(1))
    assert state.spins.tolist() == []


def test_root_plus_probability_rejects_no_batches():
    with pytest.raises(ValueError):
        root_plus_probability(WIDE, 0.5, "minus", sweeps=64, replicas=1, seed=9, batches=0)


@pytest.mark.parametrize("counts", [
    {"sweeps": 64.5}, {"replicas": 1.5}, {"burn_in": 1.5}, {"batches": 2.5},
], ids=["sweeps", "replicas", "burn_in", "batches"])
def test_root_plus_probability_rejects_non_integer_counts(counts):
    kwargs = {"sweeps": 64, "replicas": 1, "seed": 9, **counts}
    with pytest.raises(ValueError, match=f"{next(iter(counts))} must be an integer"):
        root_plus_probability(WIDE, 0.5, "minus", **kwargs)


def reference_field(t, boundary) -> list[int]:
    et = t.free_graph
    weights = np.asarray(boundary)[et.bpos]
    return np.bincount(et.bv, weights=weights, minlength=et.n_free).astype(np.int64).tolist()


def reference_sweep(spins, neighbors, field, beta, uniforms, classes) -> None:
    """The per-site exp loop the table kernel replaced, kept as its reference.

    Sites are visited class by class through ``classes``, uniform v driving site v.
    """
    exp = math.exp
    for v in (v for members in classes for v in members):
        s = field[v]
        for j in neighbors[v]:
            s += spins[j]
        try:
            p = 1.0 / (1.0 + exp(-2.0 * beta * s))
        except OverflowError:
            p = 0.0
        spins[v] = 1 if uniforms[v] < p else -1


def table_sweep(spins, neighbors, field, table, uniforms, order) -> None:
    """The per-site table loop the compiled sweep replaced, kept as its reference.

    ``field`` holds each boundary field plus the offset w of ``table``, so
    ``table[field[v] + sum of the neighbors' spins]`` is the site's p(+1).
    """
    for v in order:
        s = field[v]
        for j in neighbors[v]:
            s += spins[j]
        spins[v] = 1 if uniforms[v] < table[s] else -1


def visit_order(fg) -> list[int]:
    """The free vertices class by class, each class in flat order."""
    return [v for members in fg.colour_classes for v in members]


def reference_root_plus(t, beta, bc, sweeps, replicas, seed, burn_in, batches, init):
    et = t.free_graph
    bc_vec = boundary_vector(t, bc)
    field = reference_field(t, bc_vec)
    batch_size = sweeps // batches
    all_means = []
    for r in range(replicas):
        rng = stream(seed, r)
        if init == "aligned":
            spins = [1 if bc_vec.sum() >= 0 else -1] * et.n_free
        else:
            spins = [1 if x else -1 for x in rng.integers(0, 2, size=et.n_free)]
        for _ in range(burn_in):
            reference_sweep(spins, csr_rows(*et.neighbors), field, beta, rng.random(et.n_free),
                            et.colour_classes)
        for _ in range(batches):
            acc = 0
            for _ in range(batch_size):
                reference_sweep(spins, csr_rows(*et.neighbors), field, beta, rng.random(et.n_free),
                                et.colour_classes)
                acc += spins[0] > 0
            all_means.append(acc / batch_size)
    means = np.array(all_means)
    stderr = float(means.std(ddof=1) / math.sqrt(len(means))) if len(means) > 1 else math.nan
    return RootEstimate(float(means.mean()), stderr, batch_size * batches, replicas, tuple(means))


# 200 reaches the overflow end of the table, where p is exactly 0.0 or 1.0
HEAT_BATH_BETAS = [0.0, 0.05, 0.6, 2.0, 200.0]


@pytest.mark.parametrize("beta", HEAT_BATH_BETAS)
@settings(max_examples=15, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_table_kernel_matches_exp_loop(beta, lists, data):
    t = forest_to_triangulation(lists)
    et = t.free_graph
    bc = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=t.level_sizes[-1],
                            max_size=t.level_sizes[-1]))
    state = SpinState.random(t, stream(40), bc, beta)
    spins = state.spins.tolist()
    field = reference_field(t, state.boundary)
    rng, ref_rng = stream(41), stream(41)
    for _ in range(5):
        state = glauber_sweep(t, state, rng)
        reference_sweep(spins, csr_rows(*et.neighbors), field, beta, ref_rng.random(et.n_free),
                        et.colour_classes)
        assert state.spins.tolist() == spins
    assert rng.random() == ref_rng.random()
    for init in ("aligned", "random"):
        args = (t, beta, bc, 16, 2, 42, 4, 4, init)
        assert root_plus_probability(*args) == reference_root_plus(*args)


@pytest.mark.parametrize("lists", [
    ((3000,), (1,) * 3000),  # the root has 3,001 neighbours
    ((1,), (1,), (2,), (1, 1)),  # one-vertex levels: self-loops, parallel edges
    ((1,), (3,), (1, 0, 2)),  # four edges from one vertex to the level above
], ids=["fan", "one_vertex_levels", "parallel_edges"])
def test_compiled_sweep_matches_the_exp_loop(lists):
    t = forest_to_triangulation(lists)
    et = t.free_graph
    assert max(map(len, csr_rows(*et.neighbors))) >= 2000 or any(
        len(set(nbrs)) < len(nbrs) for nbrs in csr_rows(*et.neighbors))
    for beta, bc in ((0.3, "plus"), (2.0, "minus"), (0.6, mixed_boundary(t))):
        state = SpinState.random(t, stream(52), bc, beta)
        spins = state.spins.tolist()
        field = reference_field(t, state.boundary)
        rng, ref_rng = stream(53), stream(53)
        for _ in range(20):
            state = glauber_sweep(t, state, rng)
            reference_sweep(spins, csr_rows(*et.neighbors), field, beta, ref_rng.random(et.n_free),
                            et.colour_classes)
            assert state.spins.tolist() == spins
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("k, n", [(1, 1), (5, 3), (12, 563)])
def test_batched_uniforms_equal_stacked_draws(k, n):
    batch_rng, rng = stream(44, k), stream(44, k)
    batch = batch_rng.random((k, n))
    assert np.array_equal(batch, np.stack([rng.random(n) for _ in range(k)]))
    assert batch_rng.random() == rng.random()


@pytest.mark.parametrize("beta", HEAT_BATH_BETAS)
@settings(max_examples=10, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_root_plus_probability_equals_a_glauber_sweep_chain(beta, lists, data):
    t = forest_to_triangulation(lists)
    n = t.free_graph.n_free
    bc = boundary_vector(t, data.draw(st.lists(st.sampled_from([-1, 1]),
                                               min_size=t.level_sizes[-1],
                                               max_size=t.level_sizes[-1])))
    init = data.draw(st.sampled_from(["aligned", "random"]))
    est = root_plus_probability(t, beta, bc, sweeps=12, replicas=2, seed=45, burn_in=3,
                                batches=4, init=init)
    means = []
    for r in range(2):
        rng = stream(45, r)
        if init == "aligned":
            state = SpinState.constant(t, 1 if bc.sum() >= 0 else -1, bc, beta)
        else:
            state = SpinState(np.where(rng.integers(0, 2, size=n), 1, -1).astype(np.int8), bc, beta)
        for _ in range(3):
            state = glauber_sweep(t, state, rng)
        for _ in range(4):
            acc = 0
            for _ in range(3):
                state = glauber_sweep(t, state, rng)
                acc += state.spins[0] > 0
            means.append(acc / 3)
    assert est.batch_means == tuple(means)


@pytest.mark.parametrize("block", [1, 9, 30, 1 << 16])
def test_root_plus_probability_independent_of_draw_block(monkeypatch, block):
    # GLAUBER_T has 9 free spins: draws of one sweep, of three (runs of 10 end on
    # a short draw) and of whole runs
    args = (GLAUBER_T, 0.6, "plus", 40, 2, 46, 10, 4, "random")
    expected = reference_root_plus(*args)
    monkeypatch.setattr(ising, "_DRAW_BLOCK", block)
    assert root_plus_probability(*args) == expected


def test_root_plus_probability_reuses_the_cached_class_layout(monkeypatch):
    t = forest_to_triangulation(((2,), (1, 2), (1, 0, 2)))
    seen = []
    init = ising._ClassKernel.__init__

    def spy(self, *args):
        init(self, *args)
        seen.append([nbrs for _, nbrs, _, _ in self.classes])

    monkeypatch.setattr(ising._ClassKernel, "__init__", spy)
    for bc in ("plus", "minus"):
        root_plus_probability(t, 0.5, bc, sweeps=8, replicas=1, seed=9, burn_in=0, batches=2)
    (sweep,) = t.free_graph.sweep_memo.values()
    layout = [nbrs for _, nbrs, _ in sweep.classes]
    assert len(seen) == 2
    assert all(a is b for run in seen for a, b in zip(run, layout, strict=True))


def test_root_plus_probability_counts_past_255_neighbours():
    # the root's fan holds 301 edges; all plus, they overflow a uint8 count
    t = forest_to_triangulation(((300,), (1,) * 300))
    assert len(csr_rows(*t.free_graph.neighbors)[0]) == 301
    args = (t, 2.0, "plus", 8, 1, 47, 2, 2, "aligned")
    est = root_plus_probability(*args)
    assert est == reference_root_plus(*args) and est.estimate == 1.0


@pytest.mark.parametrize("fan", [254, 255])
def test_root_plus_probability_at_the_narrow_count_boundary(fan):
    # the root has fan + 1 free neighbours: 255 is the most a uint8 column
    # sum holds, and at 256 the root's class sums in uint16
    t = forest_to_triangulation(((fan,), (1,) * fan))
    assert len(csr_rows(*t.free_graph.neighbors)[0]) == fan + 1
    layout = ising._Sweep.of(t).classes
    assert max(dtype.itemsize for *_, dtype in layout) == (1 if fan == 254 else 2)
    args = (t, 2.0, "plus", 8, 1, 47, 2, 2, "aligned")
    est = root_plus_probability(*args)
    assert est == reference_root_plus(*args) and est.estimate == 1.0


@settings(max_examples=100, deadline=None)
@given(lists=out_degree_lists())
@example(lists=((1,), (1,), (1,)))  # one vertex on every level
@example(lists=((1,), (2,), (1, 1)))  # a one-vertex level between wider ones
@example(lists=((3,), (1, 1, 1)))
def test_class_neighbors_list_each_vertex_in_visit_order(lists):
    t = forest_to_triangulation(lists)
    fg, sweep = t.free_graph, ising._Sweep.of(t)
    order = visit_order(fg)
    position = {v: i for i, v in enumerate(order)}
    assert sweep.order.tolist() == order
    rows = csr_rows(*fg.neighbors)
    assert len(sweep.classes) == len(fg.colour_classes)
    lo = 0
    for members, (sites, nbrs, _) in zip(fg.colour_classes, sweep.classes):
        assert sites == slice(lo, lo + len(members))
        width = max(len(rows[v]) for v in members)
        assert nbrs.shape == (width, len(members))
        for j, v in enumerate(members):
            column = [position[u] for u in rows[v]]
            assert nbrs[:, j].tolist() == column + [fg.n_free] * (width - len(column))
        lo += len(members)


def bench_scale_triangulation():
    # criterion 8's depth-21 instance, inside lattice-mcmc's free-spin band
    t = forest_to_triangulation(sample_spine_forest(stream(1012, 0), 21))
    assert 535 <= t.free_graph.n_free <= 591
    return t


@pytest.mark.parametrize("init", ["aligned", "random"])
@pytest.mark.parametrize("beta", [0.05, 2.0])
def test_root_plus_probability_equals_the_reference_at_bench_scale(beta, init):
    t = bench_scale_triangulation()
    args = (t, beta, mixed_boundary(t), 8, 2, 48, 2, 4, init)
    assert root_plus_probability(*args) == reference_root_plus(*args)


def test_the_class_layout_is_kept_across_beta_and_boundary():
    t = bench_scale_triangulation()
    root_plus_probability(t, 0.05, "plus", 8, 2, 49, 2, 4, "random")
    (sweep,) = t.free_graph.sweep_memo.values()
    layout = sweep.classes
    args = (t, 2.0, "minus", 8, 2, 49, 2, 4, "random")
    assert root_plus_probability(*args) == reference_root_plus(*args)
    glauber_sweep(t, SpinState.constant(t, 1, "plus", 0.6), stream(49))
    assert t.free_graph.sweep_memo == {"sweep": sweep} and sweep.classes is layout


def test_root_plus_probability_pinned_batch_means():
    # computed by the per-site exp loop in colour order (reference_root_plus);
    # any change of the draw or visit order shows here
    est = root_plus_probability(GLAUBER_T, 0.25, "minus", sweeps=64, replicas=2, seed=1009,
                                burn_in=16, batches=8)
    counts = (1, 1, 1, 1, 7, 4, 0, 1, 0, 3, 5, 3, 1, 1, 1, 3)
    assert est.batch_means == tuple(c / 8 for c in counts)


@pytest.mark.parametrize("beta", HEAT_BATH_BETAS)
@settings(max_examples=10, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_heat_bath_table_covers_every_local_field(beta, lists, data):
    t = forest_to_triangulation(lists)
    et = t.free_graph
    w = et.max_degree
    table = _heat_bath_table(beta, w)
    assert table == tuple(conditional_spin_prob(s, beta) for s in range(-w, w + 1))
    k_top = t.level_sizes[-1]
    drawn = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=k_top, max_size=k_top))
    for bc in ("plus", "minus", drawn):
        field = reference_field(t, boundary_vector(t, bc))
        for v, nbrs in enumerate(csr_rows(*et.neighbors)):
            assert abs(field[v]) + len(nbrs) <= w


def test_heat_bath_table_at_a_vertex_with_several_boundary_edges():
    # the level-1 vertex has four edges into the top level and two to the root
    t = forest_to_triangulation(((1,), (3,)))
    et = t.free_graph
    assert (et.n_free, len(et.bv), et.max_degree) == (2, 4, 6)
    table = _heat_bath_table(200.0, et.max_degree)
    assert table[0] == 0.0 and table[-1] == 1.0
    for bc in ("plus", "minus", (1, -1, 1)):
        state = SpinState.constant(t, -1, bc, 200.0)
        spins = state.spins.tolist()
        field = reference_field(t, state.boundary)
        rng, ref_rng = stream(43), stream(43)
        for _ in range(3):
            state = glauber_sweep(t, state, rng)
            reference_sweep(spins, csr_rows(*et.neighbors), field, 200.0, ref_rng.random(et.n_free),
                            et.colour_classes)
            assert state.spins.tolist() == spins


def test_a_swept_triangulation_pickles_and_sweeps_the_same_chain():
    # the free graph's compiled sweep is left out of a pickle and rebuilt
    t = forest_to_triangulation(((2,), (1, 2), (1, 0, 2)))
    state = SpinState.random(t, stream(55), "minus", 0.6)
    glauber_sweep(t, state, stream(56))
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and not copy.free_graph.sweep_memo
    a, b = glauber_sweep(t, state, stream(57)), glauber_sweep(copy, state, stream(57))
    assert a.spins.tolist() == b.spins.tolist()


def test_glauber_sweep_boundary_field_memo_cannot_go_stale():
    # glauber_sweep keeps the field and table of the last beta and boundary it
    # saw; switching the boundary or beta, changing an array in place or
    # switching to another graph with the same top-level size must each give
    # the chain of a fresh field and table
    other = forest_to_triangulation(((3,), (1, 1, 1)))  # also 3 boundary spins
    beta = 0.6
    rng, ref_rng = stream(48), stream(48)
    spins = {t: SpinState.random(t, stream(49), "plus", beta).spins for t in (GLAUBER_T, other)}
    mixed = np.array([1, -1, 1], dtype=np.int8)

    def sweep_and_check(t, boundary, beta=beta):
        et = t.free_graph
        state = glauber_sweep(t, SpinState(spins[t], boundary, beta), rng)
        expected = spins[t].tolist()
        field = ising._boundary_field(et, boundary.tolist(), et.max_degree)
        table_sweep(expected, csr_rows(*et.neighbors), field, _heat_bath_table(beta, et.max_degree),
                    ref_rng.random(et.n_free).tolist(), visit_order(et))
        assert state.spins.tolist() == expected
        spins[t] = state.spins

    for bc in ("plus", "minus", "plus", mixed, "minus", mixed, mixed):
        sweep_and_check(GLAUBER_T, boundary_vector(GLAUBER_T, bc))
    for _ in range(3):
        sweep_and_check(GLAUBER_T, mixed)
        mixed[0] = -mixed[0]  # the same array, other values
        sweep_and_check(GLAUBER_T, mixed)
    for t in (GLAUBER_T, other, GLAUBER_T, other):
        sweep_and_check(t, mixed)
    for b in (0.2, 0.6, 2.0, 2.0, 0.2):
        sweep_and_check(GLAUBER_T, mixed, b)
    assert rng.random() == ref_rng.random()
    # a boundary or beta that fails the check never enters the memo, so it
    # fails every time
    bad = mixed.copy()
    bad[1] = 0
    for _ in range(2):
        with pytest.raises(ValueError):
            glauber_sweep(GLAUBER_T, SpinState(spins[GLAUBER_T], bad, beta), rng)
        with pytest.raises(ValueError):
            glauber_sweep(GLAUBER_T, SpinState(spins[GLAUBER_T], mixed, math.nan), rng)


@settings(max_examples=40, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_glauber_sweep_equals_the_table_loop_for_every_input_form(lists, data):
    # every form of spins and boundary gives the reference chain bit for bit,
    # as a new writable int8 array that shares no memory with the input
    t = forest_to_triangulation(lists)
    et = t.free_graph
    n, k_top = et.n_free, t.level_sizes[-1]
    beta = data.draw(st.sampled_from(HEAT_BATH_BETAS))
    spins = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    boundary = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=k_top, max_size=k_top))
    spin_form = data.draw(st.sampled_from(sorted(PM1_FORMS)))
    boundary_form = data.draw(st.sampled_from(sorted(PM1_FORMS)))
    field = ising._boundary_field(et, boundary, et.max_degree)
    table = _heat_bath_table(beta, et.max_degree)
    rng, ref_rng = stream(58), stream(58)
    expected = list(spins)
    state = SpinState(PM1_FORMS[spin_form](spins), PM1_FORMS[boundary_form](boundary), beta)
    for _ in range(3):
        before = state.spins
        state = glauber_sweep(t, state, rng)
        table_sweep(expected, csr_rows(*et.neighbors), field, table,
                    ref_rng.random(n).tolist(), visit_order(et))
        assert state.spins.tolist() == expected
        assert type(state.spins) is np.ndarray and state.spins.dtype == np.int8
        assert state.spins.flags.writeable
        assert not np.shares_memory(state.spins, np.asarray(before))
        state = SpinState(PM1_FORMS[spin_form](state.spins.tolist()), state.boundary, beta)
    assert rng.random() == ref_rng.random()


# for WIDE's 3 free and 3 boundary spins: int8 arrays of the wrong shape,
# refused with a shape message rather than a +-1 one
INT8_MISSHAPEN = {
    "short": np.ones(2, dtype=np.int8),
    "long": np.ones(4, dtype=np.int8),
    "2d_row": np.ones((1, 3), dtype=np.int8),
    "2d_column": np.ones((3, 1), dtype=np.int8),
}


@pytest.mark.parametrize("bad", INT8_MISSHAPEN.values(), ids=INT8_MISSHAPEN.keys())
def test_int8_arrays_of_the_wrong_shape_are_refused(bad):
    # a good sweep first puts the all-plus boundary in the setup memo
    ok = SpinState.constant(WIDE, 1, "plus", 0.5)
    g = gibbs_exact(WIDE, 0.5, "plus")
    glauber_sweep(WIDE, ok, stream(59))
    for call in (
        lambda: glauber_sweep(WIDE, SpinState(bad, ok.boundary, 0.5), stream(59)),
        lambda: glauber_sweep(WIDE, SpinState(ok.spins, bad, 0.5), stream(59)),
        lambda: energy(WIDE, SpinState(bad, ok.boundary, 0.5)),
        lambda: energy(WIDE, SpinState(ok.spins, bad, 0.5)),
        lambda: g.prob_of(bad),
        lambda: boundary_vector(WIDE, bad),
    ):
        with pytest.raises(ValueError, match="shape"):
            call()
