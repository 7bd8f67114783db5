"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS/FAIL`` line with the
measured quantities, then asserts at the pinned tolerance.  Run with
``pytest tests/test_acceptance.py -s`` to see the lines as they come.

Criterion 7a (percolation decay measured at beta = 0.02) is expected to fail
and is marked strict-xfail: at that temperature the probability that the open
cluster of the root reaches level 10 is below 1e-4 (zero hits in 40,000
trials during calibration), so with 10^4 trials both reach estimates are
almost surely exactly zero and no 3-standard-error separation can exist.
The identical statistic separates by more than 10 standard errors at
beta = 0.05 (criterion 7c), which pins the failure on the pinned beta, not
on the machinery.
"""

import math
import time

import numpy as np
import pytest

from cdt_ising.branching import level_size_pmf, sample_spine_forest
from cdt_ising.contours import below_vertices, enumerate_contours
from cdt_ising.ising import (
    SpinState,
    conditional_spin_prob,
    gibbs_exact,
    glauber_sweep,
    root_plus_probability,
)
from cdt_ising.percolation import (
    annealed_reach_curve,
    annealed_reach_probability,
    open_probability,
)
from cdt_ising.rng import stream
from cdt_ising.surgery import (
    Insertion,
    apply_modification,
    collapse_run,
    embed,
    enumerate_plans,
    insert_pairs,
    insertion_sites,
    modified_indices,
    path_neighborhood,
    randomized_reconstruction,
    reconstruction_probability_bound,
)
from cdt_ising.triangulation import (
    forest_to_triangulation,
    forest_weight_product,
    enumerate_triangulations,
    triangulation_to_forest,
)

from test_contours import oracle_separating_cycle_counts, small_random_triangulation
from test_triangulation import csr_rows


def report(number: str, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {verdict} ({detail})")


def test_01_level_size_law():
    trials = 100_000
    level = 5
    t0 = time.monotonic()
    counts: dict[int, int] = {}
    for i in range(trials):
        k = sample_spine_forest(stream(1001, i), level).level_sizes[level]
        counts[k] = counts.get(k, 0) + 1
    k_max = max(max(counts), 400)
    tv = 0.0
    tail = 1.0
    for k in range(1, k_max + 1):
        p = level_size_pmf(level, k)
        tail -= p
        tv += abs(counts.get(k, 0) / trials - p)
    tv = 0.5 * (tv + max(tail, 0.0))
    elapsed = time.monotonic() - t0
    ok = tv < 0.015 and elapsed < 60.0
    report("1", "level-size law", ok, f"TV={tv:.4f} (<0.015), runtime={elapsed:.1f}s (<60)")
    assert tv < 0.015
    assert elapsed < 60.0


def test_02_codec_and_triangle_count_identity():
    failures = 0
    for i in range(10_000):
        sf = sample_spine_forest(stream(1002, i), 6)
        t = forest_to_triangulation(sf)
        if triangulation_to_forest(t).out_degrees != sf.to_forest().out_degrees:
            failures += 1
        s = sum(
            t.out_degree(n, j) + 1
            for n in range(t.top_level)
            for j in range(t.level_sizes[n])
        )
        if s != t.triangle_count:
            failures += 1
    enum_checked = 0
    for t, _ in enumerate_triangulations(2, 4):
        enum_checked += 1
        forest = triangulation_to_forest(t)
        if forest_to_triangulation(forest) != t:
            failures += 1
    ok = failures == 0
    report("2", "codec + degree identity", ok,
           f"failures={failures} over 10^4 samples + {enum_checked} enumerated")
    assert failures == 0


def test_03_measure_consistency():
    enum = enumerate_triangulations(2, 4)
    z_w = sum(w for _, w in enum)
    z_p = sum(forest_weight_product(t) for t, _ in enum)
    worst = max(abs(w / z_w - forest_weight_product(t) / z_p) for t, w in enum)
    ok = worst < 1e-12
    report("3", "critical weights = offspring product", ok,
           f"max |diff|={worst:.2e} over {len(enum)} triangulations (<1e-12)")
    assert worst < 1e-12


def _peierls_instances():
    return [t for t, _ in enumerate_triangulations(2, 4)] + [
        t for t, _ in enumerate_triangulations(3, 2)
    ]


def test_04_contour_flip_ratio_and_root_bias():
    worst = 0.0
    n_contours = 0
    instances = _peierls_instances()
    for t in instances:
        n_free = sum(t.level_sizes[:-1])
        assert n_free <= 20
        cs = enumerate_contours(t, n_max=10)
        for beta in (0.3, 1.0):
            g = gibbs_exact(t, beta, "minus")
            minus = -np.ones(n_free, dtype=np.int8)
            for c in cs.contours:
                n_contours += 1
                sigma = minus.copy()
                for lvl, pos in below_vertices(t, c):
                    sigma[t.flat_index(lvl, pos)] = 1
                ratio = g.prob_of(sigma) / g.prob_of(minus)
                expected = math.exp(-2.0 * beta * c.length)
                worst = max(worst, abs(ratio - expected) / expected)
    bias_ok = all(gibbs_exact(t, 1.0, "minus").root_plus() < 0.5 for t in instances)
    ok = worst < 1e-12 and bias_ok
    report("4", "contour flip ratios", ok,
           f"max rel err={worst:.2e} over {n_contours} (instance, beta, contour) checks; "
           f"minus-bc root bias on all {len(instances)} instances: {bias_ok}")
    assert worst < 1e-12
    assert bias_ok


def test_05_disagreement_bound():
    worst = 0.0
    for d in range(3, 11):
        for beta in (0.1, 0.5):
            tv = conditional_spin_prob(d, beta) - conditional_spin_prob(-d, beta)
            worst = max(worst, abs(tv - math.tanh(beta * d)))
            worst = max(worst, abs(open_probability(d, beta) - math.tanh(beta * d)))
    ok = worst < 1e-12
    report("5", "single-site disagreement = tanh(beta d)", ok, f"max |diff|={worst:.2e}")
    assert worst < 1e-12


GLAUBER_T = forest_to_triangulation(((3,), (2, 2, 1), (1, 1, 0, 1, 0)))  # 9 free spins


def test_06_glauber_against_exact():
    beta = 0.6
    t = GLAUBER_T
    n_free = sum(t.level_sizes[:-1])
    g = gibbs_exact(t, beta, "minus")
    exact = np.array(
        [g.marginal_plus(n, p) for n in range(t.top_level) for p in range(t.level_sizes[n])]
    )
    rng = stream(1006)
    st = SpinState.random(t, rng, "minus", beta)
    for _ in range(2000):
        st = glauber_sweep(t, st, rng)
    sweeps = 1_000_000
    counts = np.zeros(n_free)
    for _ in range(sweeps):
        st = glauber_sweep(t, st, rng)
        counts += st.spins > 0
    marginal_err = float(np.abs(counts / sweeps - exact).max())

    # detailed balance, exhaustively, on a <= 10 vertex instance
    small = forest_to_triangulation(((2,), (1, 2)))
    gs = gibbs_exact(small, 0.9, "minus")
    et = small.free_graph
    db_err = 0.0
    for c in range(2 ** gs.n_free):
        spins = np.array([1 if (c >> v) & 1 else -1 for v in range(gs.n_free)], dtype=np.int8)
        for v in range(gs.n_free):
            s_sum = sum(int(spins[j]) for j in csr_rows(*et.neighbors)[v]) + sum(
                int(gs.boundary[p]) for a, p in zip(et.bv, et.bpos) if a == v
            )
            p_plus = conditional_spin_prob(s_sum, 0.9)
            flipped = spins.copy()
            flipped[v] = -flipped[v]
            p_fwd = p_plus if flipped[v] > 0 else 1.0 - p_plus
            p_bwd = p_plus if spins[v] > 0 else 1.0 - p_plus
            db_err = max(db_err, abs(gs.prob_of(spins) * p_fwd - gs.prob_of(flipped) * p_bwd))
    ok = marginal_err < 0.01 and db_err < 1e-12
    report("6", "Glauber stationarity", ok,
           f"max marginal err={marginal_err:.4f} (<0.01) on {n_free} spins/10^6 sweeps; "
           f"detailed balance err={db_err:.2e}")
    assert marginal_err < 0.01
    assert db_err < 1e-12


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at beta=0.02 the annealed reach probability at level 10 is below 1e-4 "
        "(0 hits in 40,000 calibration trials), so 10^4-trial estimates at levels "
        "10 and 30 are both zero and cannot be separated by 3 standard errors; "
        "the same statistic separates by >10 sigma at beta=0.05 (criterion 7c)"
    ),
)
def test_07a_percolation_decay_at_pinned_beta():
    beta = 0.02
    trials = 10_000
    e10 = annealed_reach_probability(10, beta, trials, seed=1007)
    e30 = annealed_reach_probability(30, beta, trials, seed=1008)
    se = math.sqrt(e10.stderr**2 + e30.stderr**2)
    gap = e10.estimate - e30.estimate
    ok = gap > 3 * se
    report("7a", "reach decay at beta=0.02", ok,
           f"p10={e10.estimate:.2e}, p30={e30.estimate:.2e}, gap={gap:.2e}, 3se={3*se:.2e}")
    assert gap > 3 * se


def test_07b_reach_monotone_in_beta_under_coupling():
    curve = annealed_reach_curve(10, [0.02, 0.05, 0.1, 0.2], 2000, seed=1009)
    estimates = [e.estimate for e in curve]
    ok = estimates == sorted(estimates)
    report("7b", "reach monotone in beta (coupled)", ok,
           "estimates " + ", ".join(f"{e:.4f}" for e in estimates))
    assert ok


def test_07c_percolation_decay_at_measurable_beta():
    beta = 0.05
    trials = 10_000
    e10 = annealed_reach_probability(10, beta, trials, seed=1010)
    e30 = annealed_reach_probability(30, beta, trials, seed=1011)
    se = math.sqrt(e10.stderr**2 + e30.stderr**2)
    gap = e10.estimate - e30.estimate
    ok = gap > 3 * se
    report("7c", "reach decay at beta=0.05", ok,
           f"p10={e10.estimate:.4f}, p30={e30.estimate:.4f}, separation={gap/se:.1f} sigma")
    assert gap > 3 * se


def test_08_low_vs_high_temperature_crossover():
    t = forest_to_triangulation(sample_spine_forest(stream(1012, 0), 21))
    hot = root_plus_probability(t, 0.05, "minus", sweeps=2000, replicas=2,
                                seed=1013, burn_in=800)
    cold = root_plus_probability(t, 2.0, "minus", sweeps=2000, replicas=2,
                                 seed=1014, burn_in=800)
    se = math.sqrt(hot.stderr**2 + cold.stderr**2)
    gap = hot.estimate - cold.estimate
    ok = gap > 3 * se
    report("8", "minus-bc crossover beta 0.05 vs 2.0", ok,
           f"hot={hot.estimate:.4f}+-{hot.stderr:.4f}, cold={cold.estimate:.4f}+-"
           f"{cold.stderr:.4f}, separation={gap/max(se, 1e-12):.1f} sigma "
           f"({sum(t.level_sizes[:-1])} spins)")
    assert gap > 3 * se


FIXTURE = forest_to_triangulation(((2,), (5, 1), (1,) * 6))
FIX_PN = path_neighborhood(FIXTURE, [(0, 0), (1, 0)])
FIX_MOD = apply_modification(FIXTURE, FIX_PN, {1: ((5,) * 10, (1,) * 10)},
                             threshold=8, count=10)
CHAIN5 = forest_to_triangulation(((1,),) * 4)
CHAIN5_PATH = [(0, 0), (1, 0), (2, 0), (3, 0)]


def test_09a_surgery_roundtrip():
    failures = 0
    sites = 0
    for t, _ in enumerate_triangulations(2, 4):
        for pos in range(t.level_sizes[1]):
            for site in insertion_sites(t, 1, pos):
                sites += 1
                res = insert_pairs(t, Insertion(1, pos, ((site.up_slot, site.down_slot),)))
                if collapse_run(res.triangulation, *res.new_horizontal_run) != t:
                    failures += 1
    ok = failures == 0
    report("9a", "insert/collapse roundtrip", ok, f"{sites} sites, {failures} failures")
    assert failures == 0


def _reconstruction_rate(t_mod, t_ref, path, degrees, attempts: int, seed: int):
    rng = stream(seed)
    wins = 0
    for _ in range(attempts):
        wins += randomized_reconstruction(t_mod, t_ref, path, rng).success
    freq = wins / attempts
    bound = reconstruction_probability_bound(degrees)
    se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / attempts)
    return freq, bound, se


def test_09b_reconstruction_frequency():
    attempts = 1_000_000
    freq1, bound1, se1 = _reconstruction_rate(
        FIX_MOD, FIXTURE, FIX_PN.path, FIX_PN.degrees(), attempts, 1015
    )
    pn3 = path_neighborhood(CHAIN5, CHAIN5_PATH)
    freq3, bound3, se3 = _reconstruction_rate(
        CHAIN5, CHAIN5, CHAIN5_PATH, pn3.degrees(), attempts, 1016
    )
    ok = freq1 >= bound1 - 3 * se1 and freq3 >= bound3 - 3 * se3
    report("9b", "reconstruction success rate", ok,
           f"n=1 modified: freq={freq1:.5f} >= bound={bound1:.2e}; "
           f"n=3 unmodified: freq={freq3:.2e} >= bound={bound3:.2e}")
    assert freq1 >= bound1 - 3 * se1
    assert freq3 >= bound3 - 3 * se3


def test_09c_overcount_bound():
    count = 10
    base = forest_to_triangulation(((2,), (3, 1), (1,) * 4))
    pn = path_neighborhood(base, [(0, 0), (1, 0)])
    hosts = [
        host for host, _ in enumerate_triangulations(3, 4) if embed(pn, host) is not None
    ]
    assert modified_indices(pn, threshold=8) == [1]
    images: dict = {}
    pairs = 0
    for host in hosts:
        for plan in enumerate_plans(host, (1, 0), count):
            pairs += 1
            out = apply_modification(host, pn, {1: plan}, threshold=8, count=count)
            images[out.canonical_key] = images.get(out.canonical_key, 0) + 1
    bound = 1.0
    for d in pn.degrees():
        bound *= (count + 2) * (d + count)
    worst = max(images.values())
    ok = worst <= bound
    report("9c", "overcount bound", ok,
           f"{pairs} (host, plan) pairs over {len(hosts)} hosts, "
           f"max multiplicity={worst} <= {bound:.0f}")
    assert worst <= bound


def test_10_contour_counts_vs_oracle():
    mismatches = 0
    details = []
    for seed in (1101, 1202, 1303):
        t = small_random_triangulation(seed, 4, 22)
        ours = enumerate_contours(t, n_max=12).counts
        theirs = oracle_separating_cycle_counts(t, 12)
        details.append(f"seed {seed}: {sum(ours.values())} contours")
        if ours != theirs:
            mismatches += 1
    ok = mismatches == 0
    report("10", "contour counts vs independent oracle", ok,
           f"{mismatches} mismatches; " + "; ".join(details))
    assert mismatches == 0
