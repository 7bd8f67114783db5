"""Tests for energies, the exact Gibbs distribution, and Glauber dynamics."""

import math

import numpy as np
import pytest

from cdt_ising.ising import (
    SpinState,
    boundary_vector,
    conditional_spin_prob,
    edge_count,
    energy,
    gibbs_exact,
    glauber_sweep,
    root_plus_probability,
)
from cdt_ising.rng import stream
from cdt_ising.triangulation import forest_to_triangulation


CHAIN = forest_to_triangulation(((1,), (1,)))  # spins on levels 0..1, boundary above
WIDE = forest_to_triangulation(((2,), (1, 2)))  # 3 free spins


def test_all_plus_energy_is_minus_edge_count():
    for t in (CHAIN, WIDE):
        st = SpinState.constant(t, 1, "plus", 1.0)
        assert energy(t, st) == -edge_count(t)


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


def test_boundary_vector_forms():
    assert (boundary_vector(CHAIN, "plus") == [1]).all()
    assert (boundary_vector(CHAIN, "minus") == [-1]).all()
    assert (boundary_vector(CHAIN, [-1]) == [-1]).all()
    with pytest.raises(ValueError):
        boundary_vector(CHAIN, [1, 1])
    with pytest.raises(ValueError):
        boundary_vector(CHAIN, "up")


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
    n = g.n_free
    for c in range(2**n):
        spins = np.array([1 if (c >> v) & 1 else -1 for v in range(n)], dtype=np.int8)
        total += g.prob_of(spins)
    assert abs(total - 1.0) < 1e-12
    marg = g.event_prob(lambda s: s[0] > 0)
    assert abs(marg - g.root_plus()) < 1e-12


@pytest.mark.parametrize("level, pos", [(1, 5), (1, 2)])
def test_marginal_rejects_missing_vertex(level, pos):
    # (1, 2) would be the flat id of (2, 0), and (1, 5) one of a boundary vertex
    g = gibbs_exact(forest_to_triangulation(((2,), (1, 2), (1, 1, 1))), 0.5, "plus")
    with pytest.raises(ValueError):
        g.marginal_plus(level, pos)


def test_conditional_spin_prob():
    assert conditional_spin_prob(0, 1.3) == 0.5
    assert conditional_spin_prob(5, 0.0) == 0.5
    for d in range(3, 11):
        for beta in (0.1, 0.5):
            tv = conditional_spin_prob(d, beta) - conditional_spin_prob(-d, beta)
            assert abs(tv - math.tanh(beta * d)) < 1e-12


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
    for c in range(2**n):
        spins = np.array([1 if (c >> v) & 1 else -1 for v in range(n)], dtype=np.int8)
        for v in range(n):
            s_sum = sum(int(spins[j]) for j in et.neighbors[v]) + sum(
                int(et_bc[p]) for p in et.bc_slots[v]
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


def test_root_plus_probability_deterministic():
    a = root_plus_probability(CHAIN, 0.5, "minus", sweeps=1000, replicas=2, seed=9)
    b = root_plus_probability(CHAIN, 0.5, "minus", sweeps=1000, replicas=2, seed=9)
    assert a == b
