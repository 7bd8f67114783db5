"""The four benchmark workloads and the correctness gates on their outputs.

Every workload calls the library's public entry points, the same calls that
the acceptance criteria and the CLI make.  Inputs are derived from the
run's seed and the op index only, so a run with the same seed replays the
same ops in the same order whatever the timing.  See README.md beside this
file for why each workload exists and which layer it stresses.

The library keeps 128-entry ``lru_cache``s keyed on triangulation
equality (edge table, percolation degrees and adjacency).  Running the same
100 depth-30 reach trials twice in one process made the second pass about
1.9x faster, so no op repeats an input within a process except where real
callers reuse one: ``lattice-mcmc`` scans one triangulation over beta x bc,
as ``ising-scan`` does, and ``annealed_reach_curve`` reuses one
triangulation across its betas.

Each workload holds a ``refs`` object with the reference values its gates
compare against; gates read it only after the timed phase.  The defaults
are the true values; the self-test swaps in deliberately wrong ones and
checks that each gate trips.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from cdt_ising import branching, cli, contours, ising, percolation, surgery, triangulation
from cdt_ising.rng import stream

WARMUP = -1  # op index of the warm-up op, which feeds no gate


def derive(seed: int, *key: int) -> int:
    """A 63-bit seed for one op, keyed by the run seed and an integer path."""
    words = [seed, *(k + (1 << 32) if k < 0 else k for k in key)]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0] >> np.uint64(1))


@dataclass
class Record:
    """What one op produced: work units, exact results, data for the gates."""

    index: int
    units: int
    digest: tuple
    data: dict = field(default_factory=dict)


@dataclass
class Gate:
    name: str
    ok: bool
    detail: str
    failed_ops: set[int] = field(default_factory=set)


def _mean_se(values: list[float]) -> tuple[float, float]:
    """Mean and standard error over independent replicates."""
    arr = np.asarray(values, dtype=np.float64)
    if len(arr) < 2:
        return float("nan"), float("nan")
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


# -- reach --------------------------------------------------------------------


@dataclass
class ReachRefs:
    tv_level_map: tuple[int, int] = (1, 0)  # (a, b): level n is compared with the law of a*n + b
    curve_order: int = 1  # +1: reach estimates are nondecreasing in beta
    trial_stream_offset: int = 0  # trial j is re-drawn from the stream of trial j + offset


class Reach:
    """Annealed percolation reach: sampler, codec and percolation on ~1,000
    vertex triangulations, one fresh triangulation per trial.

    Unit: one annealed trial.  Ops cycle through four calls whose trial
    counts make each cost about 45 ms at the seed commit.
    """

    name = "reach"
    KEY = 1
    CURVE_BETAS = (0.02, 0.05, 0.1, 0.2)
    # (kind, levels, beta(s), trials per op)
    CELLS = (
        ("probability", 10, 0.05, 24),
        ("probability", 30, 0.05, 3),
        ("probability", 30, 0.2, 3),
        ("curve", 10, CURVE_BETAS, 14),
    )
    TV_LEVELS = (1, 5, 10)
    TV_MAX_SAMPLES = 2000
    TV_DELTA = 1e-6  # false-alarm probability of one TV gate
    REPLAY_OPS = 2  # depth-10 ops of each kind whose trials are replayed in full

    def __init__(self, seed: int, refs: ReachRefs | None = None) -> None:
        self.seed = seed
        self.refs = refs or ReachRefs()
        self.sizes: list[int] = []

    def setup(self) -> None:
        pass

    def next_input(self, i: int):
        return self.CELLS[i % len(self.CELLS)], derive(self.seed, self.KEY, i)

    def run(self, i: int, inp) -> Record:
        (kind, levels, beta, trials), op_seed = inp
        if kind == "probability":
            est = percolation.annealed_reach_probability(levels, beta, trials, op_seed)
            hits = (est.reach_count,)
        else:
            curve = percolation.annealed_reach_curve(levels, list(beta), trials, op_seed)
            hits = tuple(e.reach_count for e in curve)
        return Record(i, trials, hits, {"cell": inp[0], "seed": op_seed, "hits": hits})

    def gates(self, records: list[Record]) -> list[Gate]:
        gates = []
        curves = [r for r in records if r.data["cell"][0] == "curve"]
        order = self.refs.curve_order
        bad = {
            r.index
            for r in curves
            if any(order * (b - a) < 0 for a, b in zip(r.data["hits"], r.data["hits"][1:]))
        }
        gates.append(
            Gate("reach.curve_monotone", not bad, f"{len(bad)} of {len(curves)} curves", bad)
        )

        per_level, used, replayed, mismatched = self._redraw(records)
        gates.append(Gate("reach.replay", bool(replayed) and not mismatched,
                          f"{len(mismatched)} of {len(replayed)} replayed ops differ",
                          mismatched or (set() if replayed else used)))
        n = len(self.sizes)
        for lvl in self.TV_LEVELS:
            a, b = self.refs.tv_level_map
            ref_level = a * lvl + b
            if n == 0:
                gates.append(Gate(f"reach.level{lvl}_tv", False, "no depth-10 trials", used))
                continue
            tv = cli.tv_distance_to_level_law(per_level[lvl], ref_level, n)
            bound = tv_bound(ref_level, n, self.TV_DELTA)
            ok = tv <= bound
            gates.append(
                Gate(f"reach.level{lvl}_tv", ok, f"TV={tv:.4f} bound={bound:.4f} n={n}",
                     set() if ok else used)
            )
        return gates

    def _redraw(self, records: list[Record]):
        """Re-draw the forests of the depth-10 trials (up to TV_MAX_SAMPLES)
        from their trial streams, as percolation lays them out: trial j of an
        op draws its forest first from ``stream(op_seed, j)``, then its marks.

        The first REPLAY_OPS ops of each kind are replayed in full from the
        re-drawn forests with the library's own mark and reach functions, and
        their hits compared with the op's, so the level-size gates test the
        forests the ops used.  Returns the level-size histograms, the ops
        whose forests were drawn, the replayed ops and those that differ.
        """
        self.sizes = []
        per_level: dict[int, dict[int, int]] = {n: {} for n in self.TV_LEVELS}
        used: set[int] = set()
        replayed: set[int] = set()
        mismatched: set[int] = set()
        replays_left = {"probability": self.REPLAY_OPS, "curve": self.REPLAY_OPS}
        for r in records:
            kind, levels, beta, trials = r.data["cell"]
            if levels != 10 or len(self.sizes) >= self.TV_MAX_SAMPLES:
                continue
            used.add(r.index)
            replay = replays_left[kind] > 0
            replays_left[kind] -= replay
            hits = [0] * len(r.data["hits"])
            for j in range(trials):
                rng = stream(r.data["seed"], j + self.refs.trial_stream_offset)
                forest = branching.sample_spine_forest(rng, levels + 1)
                sizes = forest.level_sizes
                self.sizes.append(sum(sizes))
                for lvl in self.TV_LEVELS:
                    per_level[lvl][sizes[lvl]] = per_level[lvl].get(sizes[lvl], 0) + 1
                if replay:
                    t = triangulation.forest_to_triangulation(forest)
                    for k, reached in enumerate(_replay_marks(t, kind, levels, beta, rng)):
                        hits[k] += reached
            if replay:
                replayed.add(r.index)
                if tuple(hits) != r.data["hits"]:
                    mismatched.add(r.index)
        return per_level, used, replayed, mismatched

    def provenance(self) -> dict:
        sizes = self.sizes or [0]
        return {
            "instances": "fresh triangulation per trial",
            "depth10_trials_checked": len(self.sizes),
            "depth10_vertices_mean": float(np.mean(sizes)),
            "depth10_vertices_max": int(max(sizes)),
        }


def _replay_marks(t, kind: str, levels: int, beta, rng) -> list[bool]:
    """Whether the root cluster reaches ``levels`` in one trial on ``t``, per
    beta, with the marks drawn from ``rng`` as the library's trial does."""
    if kind == "probability":
        opens = [percolation.sample_open_set(t, beta, rng)]
    else:
        uniforms = rng.random(sum(t.level_sizes[:-1]))
        opens = [percolation.open_set_from_uniforms(t, b, uniforms) for b in beta]
    return [percolation.max_open_reach(t, o).reach >= levels for o in opens]


def tv_bound(level: int, n: int, delta: float) -> float:
    """Upper bound on the TV distance of an n-sample empirical level-size law.

    E[TV] <= 0.5 * sum_k sqrt(p_k (1 - p_k) / n) (Jensen), and one sample
    moves TV by at most 1/n, so McDiarmid adds sqrt(ln(1/delta) / (2n)) for
    a false-alarm probability of at most delta.
    """
    total = 0.0
    mass = 0.0
    k = 1
    while mass < 1.0 - 1e-12 and k < 100_000:
        p = branching.level_size_pmf(level, k)
        total += math.sqrt(p * (1.0 - p))
        mass += p
        k += 1
    return 0.5 * total / math.sqrt(n) + math.sqrt(math.log(1.0 / delta) / (2.0 * n))


# -- lattice-mcmc --------------------------------------------------------------


@dataclass
class LatticeRefs:
    symmetry_total: float = 1.0  # P_plus(root=+) + P_minus(root=+)
    min_gap: float = 0.0  # required hot - cold margin under the minus boundary


class LatticeMcmc:
    """Heat-bath Glauber dynamics on criterion-8-sized triangulations.

    Unit: one single-site heat-bath update.  Set-up picks the instances;
    each op is one ``root_plus_probability`` call, cycling over the
    instances and over beta in {0.05, 2.0} x bc in {plus, minus}.
    """

    name = "lattice-mcmc"
    KEY = 2
    LEVELS = 21
    # free-spin band, 563 +- 5%: criterion 8's instance has 563 free spins
    BAND = (535, 591)
    INSTANCES = 3
    # Set-up draws at least this many candidates (about 4% fall in the band),
    # so its cost hardly depends on where the hits fall.
    CANDIDATES = 150
    CELLS = ((0.05, "plus"), (0.05, "minus"), (2.0, "plus"), (2.0, "minus"))
    SWEEPS = 96
    BATCHES = 8
    BURN_IN = 24
    SIGMAS = 6.0
    MAX_SEARCH = 20_000

    def __init__(self, seed: int, refs: LatticeRefs | None = None) -> None:
        self.seed = seed
        self.refs = refs or LatticeRefs()
        self.instances: list[triangulation.Triangulation] = []

    def setup(self) -> None:
        lo, hi = self.BAND
        for i in range(self.MAX_SEARCH):
            if i >= self.CANDIDATES and len(self.instances) == self.INSTANCES:
                break
            forest = branching.sample_spine_forest(stream(self.seed, self.KEY, i), self.LEVELS)
            if len(self.instances) < self.INSTANCES and lo <= sum(forest.level_sizes[:-1]) <= hi:
                self.instances.append(triangulation.forest_to_triangulation(forest))
        else:
            raise RuntimeError(f"too few depth-{self.LEVELS} samples in the band {self.BAND}")

    def next_input(self, i: int):
        j = i % (len(self.CELLS) * self.INSTANCES)
        beta, bc = self.CELLS[j % len(self.CELLS)]
        return j // len(self.CELLS), beta, bc, derive(self.seed, self.KEY, i)

    def run(self, i: int, inp) -> Record:
        inst, beta, bc, op_seed = inp
        t = self.instances[inst]
        est = ising.root_plus_probability(
            t, beta, bc, sweeps=self.SWEEPS, replicas=1, seed=op_seed,
            burn_in=self.BURN_IN, batches=self.BATCHES,
        )
        n_free = t.vertex_count - t.level_sizes[-1]
        units = (self.BURN_IN + est.sweeps) * est.replicas * n_free
        return Record(i, units, (est.estimate, est.stderr),
                      {"cell": (inst, beta, bc), "estimate": est.estimate})

    def gates(self, records: list[Record]) -> list[Gate]:
        cells: dict[tuple, list[Record]] = {}
        for r in records:
            cells.setdefault(r.data["cell"], []).append(r)
        gates = []

        def stats(inst, beta, bc):
            recs = cells.get((inst, beta, bc), [])
            mean, se = _mean_se([r.data["estimate"] for r in recs])
            return mean, se, {r.index for r in recs}, len(recs)

        for inst in range(len(self.instances)):
            for beta in (0.05, 2.0):
                mp, sp, ops_p, n_p = stats(inst, beta, "plus")
                mm, sm, ops_m, n_m = stats(inst, beta, "minus")
                # spin-flip symmetry; one root flip per cell is the resolution
                slack = 1.0 / (self.SWEEPS * max(min(n_p, n_m), 1))
                dev = abs(mp + mm - self.refs.symmetry_total)
                tol = self.SIGMAS * math.hypot(sp, sm) + slack
                ok = dev <= tol  # False when a cell has under two ops (nan)
                gates.append(Gate(
                    f"lattice.symmetry.i{inst}.b{beta}", ok,
                    f"|{mp:.4f}+{mm:.4f}-{self.refs.symmetry_total}|={dev:.4f} tol={tol:.4f}",
                    set() if ok else ops_p | ops_m,
                ))
            hot, s_hot, ops_h, _ = stats(inst, 0.05, "minus")
            cold, s_cold, ops_c, _ = stats(inst, 2.0, "minus")
            se = math.hypot(s_hot, s_cold)
            ok = hot - cold > self.refs.min_gap + 3.0 * se
            gates.append(Gate(
                f"lattice.crossover.i{inst}", ok,
                f"hot={hot:.4f} cold={cold:.4f} 3se={3 * se:.4f}",
                set() if ok else ops_h | ops_c,
            ))
        return gates

    def provenance(self) -> dict:
        return {
            "instances": [
                {"vertices": t.vertex_count, "free_spins": t.vertex_count - t.level_sizes[-1]}
                for t in self.instances
            ]
        }


# -- small-exact ---------------------------------------------------------------


@dataclass
class SmallExactRefs:
    flip_cost: float = 2.0  # a length-n contour flip costs exp(-flip_cost * beta * n)
    marginal_shift: float = 0.0  # added to every exact marginal


class SmallExact:
    """Exact Gibbs oracle, bounded contour search and a 2,000-sweep Glauber
    chain on one fresh 15-spin instance per op, all under the minus
    boundary.

    Unit: one instance.  Every instance has the same spin count, so every op
    does the same mix of numpy (exact enumeration) and interpreted (Glauber,
    contours) work and p90 is not set by the largest size class alone.
    Exact enumeration costs 2^n: 17 and 18 spin instances would cost 2-4x a
    16-spin one and leave too few ops in a run for a p90 with ten ops
    beyond it.
    """

    name = "small-exact"
    KEY = 3
    SPINS = 15
    DEPTHS = (3, 4, 5)
    # At beta 0.6 (criterion 6) single-site dynamics stays in a metastable
    # state for a whole 2,000-sweep chain on about one instance in 150
    # (per-spin z ~ 400), so the chain could not be checked against the
    # exact marginals there.  Criterion 4 also uses beta 0.3.
    BETA = 0.3
    N_MAX = 14
    BURN_IN = 400
    BATCHES = 32
    BATCH_SWEEPS = 50  # 400 + 32 * 50 = 2,000 sweeps per chain
    FLIP_TOL = 1e-12
    # Root mean square of the marginals' z over the run.  Batch means
    # underestimate the error of the slowest chains (integrated
    # autocorrelation times up to ~40 sweeps at beta 0.3), which puts single
    # z values beyond 7 about once per 600 ops; the RMS over a run stays
    # within 1.0-1.25 there, and a 0.02 shift of every exact marginal lifts
    # it to about 2.8.
    RMS_Z = 2.0
    MAX_SEARCH = 100_000

    def __init__(self, seed: int, refs: SmallExactRefs | None = None) -> None:
        self.seed = seed
        self.refs = refs or SmallExactRefs()
        self._seen: set[tuple] = set()  # (level sizes, fans): no cached tables kept alive
        self.vertex_counts: list[int] = []

    def setup(self) -> None:
        pass

    def next_input(self, i: int):
        for j in range(self.MAX_SEARCH):
            depth = self.DEPTHS[j % len(self.DEPTHS)]
            forest = branching.sample_spine_forest(stream(self.seed, self.KEY, i + 1, j), depth)
            if sum(forest.level_sizes[:-1]) != self.SPINS:
                continue
            t = triangulation.forest_to_triangulation(forest)
            key = (t.level_sizes, t.fans)
            if key in self._seen:
                continue
            self._seen.add(key)
            self.vertex_counts.append(t.vertex_count)
            return t, derive(self.seed, self.KEY, i)
        raise RuntimeError(f"no fresh {self.SPINS}-spin instance found")

    def run(self, i: int, inp) -> Record:
        t, op_seed = inp
        beta = self.BETA
        g = ising.gibbs_exact(t, beta, "minus")
        sites = [(n, p) for n in range(t.top_level) for p in range(t.level_sizes[n])]
        exact = np.array([g.marginal_plus(n, p) for n, p in sites])

        cs = contours.enumerate_contours(t, n_max=self.N_MAX)
        minus = -np.ones(len(sites), dtype=np.int8)
        p_minus = g.prob_of(minus)
        ratios = []
        for c in cs.contours:
            sigma = minus.copy()
            for lvl, pos in contours.below_vertices(t, c):
                sigma[t.flat_index(lvl, pos)] = 1
            ratios.append(g.prob_of(sigma) / p_minus)
        lengths = np.array([c.length for c in cs.contours])

        rng = stream(op_seed)
        state = ising.SpinState.random(t, rng, "minus", beta)
        for _ in range(self.BURN_IN):
            state = ising.glauber_sweep(t, state, rng)
        batch_means = np.empty((self.BATCHES, len(sites)))
        for b in range(self.BATCHES):
            acc = np.zeros(len(sites), dtype=np.int64)
            for _ in range(self.BATCH_SWEEPS):
                state = ising.glauber_sweep(t, state, rng)
                acc += state.spins > 0
            batch_means[b] = acc / self.BATCH_SWEEPS
        glauber = batch_means.mean(axis=0)
        digest = (tuple(exact), tuple(ratios), tuple(glauber))
        return Record(i, 1, digest, {
            "exact": exact, "glauber": glauber, "batch_var": batch_means.var(axis=0, ddof=1),
            "lengths": lengths, "ratios": np.array(ratios),
        })

    def gates(self, records: list[Record]) -> list[Gate]:
        bad_flip = set()
        worst_flip = 0.0
        for r in records:
            expected = np.exp(-self.refs.flip_cost * self.BETA * r.data["lengths"])
            err = float(np.max(np.abs(r.data["ratios"] - expected) / expected, initial=0.0))
            worst_flip = max(worst_flip, err)
            if not err <= self.FLIP_TOL:
                bad_flip.add(r.index)
        # z of every (op, spin) Glauber marginal against the exact one, with
        # the batch-means variance floored at the i.i.d. binomial variance
        n_sweeps = self.BATCHES * self.BATCH_SWEEPS
        z2 = []
        for r in records:
            ref = np.clip(r.data["exact"] + self.refs.marginal_shift, 0.0, 1.0)
            var = np.maximum(r.data["batch_var"] / self.BATCHES, ref * (1.0 - ref) / n_sweeps)
            z2.append((r.data["glauber"] - ref) ** 2 / np.maximum(var, 1e-300))
        rms_z = math.sqrt(float(np.concatenate(z2).mean())) if z2 else float("nan")
        ok_marg = rms_z <= self.RMS_Z
        return [
            Gate("small.flip_ratio", not bad_flip,
                 f"max rel err={worst_flip:.2e} tol={self.FLIP_TOL}", bad_flip),
            Gate("small.glauber_marginals", ok_marg, f"rms z={rms_z:.3f} tol={self.RMS_Z}",
                 set() if ok_marg else {r.index for r in records}),
        ]

    def provenance(self) -> dict:
        verts = self.vertex_counts or [0]
        return {
            "free_spins": self.SPINS,
            "instances": len(self.vertex_counts),
            "vertices_min": int(min(verts)),
            "vertices_max": int(max(verts)),
        }


# -- surgery-walk --------------------------------------------------------------


@dataclass
class SurgeryRefs:
    roundtrip_to_original: bool = True  # else compare with the inserted triangulation
    overcount_bound_scale: float = 1.0
    frequency_bound_scale: float = 1.0


def unrank_multiset(rank: int, n: int, k: int) -> tuple[int, ...]:
    """The rank-th nondecreasing k-tuple over range(n), in the lexicographic
    order of ``itertools.combinations_with_replacement``."""
    out = []
    lo = 0
    for slot in range(k):
        rest = k - slot - 1
        for v in range(lo, n):
            completions = math.comb(n - v + rest - 1, rest)
            if rank < completions:
                out.append(v)
                lo = v
                break
            rank -= completions
    return tuple(out)


class SurgeryWalk:
    """Thousands of tiny triangulations built and validated per second.

    Unit: one surgery operation (a reconstruction attempt, an
    insert/collapse round trip, or a modification with its canonical key).
    Each op runs a fixed batch of each kind, as criteria 9a-9c do.
    """

    name = "surgery-walk"
    KEY = 4
    COUNT = 10  # pairs inserted per modified vertex, as in 9b and 9c
    ATTEMPTS_MODIFIED = 200
    ATTEMPTS_CHAIN = 200
    # Round-trip sites and modification plans come from endless streams, each
    # pass over its set in a fresh seeded order.  With 49,729 level-1 sites
    # and 324,038 (host, plan) pairs, inputs are distinct for the first 1,657
    # ops (sites) and 2,700 ops (plans), and repeat after that.
    ROUNDTRIPS = 30
    MODIFICATIONS = 120

    def __init__(self, seed: int, refs: SurgeryRefs | None = None) -> None:
        self.seed = seed
        self.refs = refs or SurgeryRefs()

    def setup(self) -> None:
        to_t = triangulation.forest_to_triangulation
        # criterion 9b fixtures
        t = to_t(((2,), (5, 1), (1,) * 6))
        pn = surgery.path_neighborhood(t, [(0, 0), (1, 0)])
        t_mod = surgery.apply_modification(
            t, pn, {1: ((5,) * self.COUNT, (1,) * self.COUNT)}, threshold=8, count=self.COUNT
        )
        chain = to_t(((1,),) * 4)
        chain_path = ((0, 0), (1, 0), (2, 0), (3, 0))
        pn_chain = surgery.path_neighborhood(chain, chain_path)
        self.fixtures = (
            ("modified", t_mod, t, pn.path, pn.degrees(), self.ATTEMPTS_MODIFIED),
            ("chain", chain, chain, chain_path, pn_chain.degrees(), self.ATTEMPTS_CHAIN),
        )
        # criterion 9c: hosts of enumerate_triangulations(3, 4) the path embeds in
        self.enumerated = [h for h, _ in triangulation.enumerate_triangulations(3, 4)]
        base = to_t(((2,), (3, 1), (1,) * 4))
        self.pn = surgery.path_neighborhood(base, [(0, 0), (1, 0)])
        self.hosts = [h for h in self.enumerated if surgery.embed(self.pn, h) is not None]
        self.overcount_bound = 1.0
        for d in self.pn.degrees():
            self.overcount_bound *= (self.COUNT + 2) * (d + self.COUNT)
        shape = []
        for h in self.hosts:
            deg = h.vertex_degree(1, 0)
            shape.append((math.comb(deg.up + self.COUNT - 1, self.COUNT),
                          math.comb(deg.down + self.COUNT - 1, self.COUNT)))
        self.plan_shape = shape
        self.plan_offsets = np.cumsum([0] + [u * d for u, d in shape])
        self._sites = self._site_stream()
        self._plans = self._endless(int(self.plan_offsets[-1]), 2)

    def _endless(self, n: int, key: int):
        """range(n) in a fresh seeded order on every pass, without end."""
        for epoch in itertools.count():
            rng = np.random.default_rng(derive(self.seed, self.KEY, key, epoch))
            yield from rng.permutation(n)

    def _site_stream(self):
        # Level 1 only, as in criterion 9a: insert_pairs raises ValueError at
        # about a fifth of the level-2 sites of these hosts (see README.md).
        # A fresh copy of each host, so the tables a round trip caches on it
        # are dropped with it and memory does not grow with the run's length.
        for h in self._endless(len(self.enumerated), 1):
            host = self.enumerated[h]
            t = triangulation.Triangulation(host.level_sizes, host.fans)
            for pos in range(t.level_sizes[1]):
                for site in surgery.insertion_sites(t, 1, pos):
                    yield t, 1, pos, site.up_slot, site.down_slot

    def _plan(self, index: int):
        h = int(np.searchsorted(self.plan_offsets, index, side="right")) - 1
        n_up, n_down = self.plan_shape[h]
        deg = self.hosts[h].vertex_degree(1, 0)
        u_rank, d_rank = divmod(index - int(self.plan_offsets[h]), n_down)
        return h, (unrank_multiset(u_rank, deg.up, self.COUNT),
                   unrank_multiset(d_rank, deg.down, self.COUNT))

    def next_input(self, i: int):
        sites = [next(self._sites) for _ in range(self.ROUNDTRIPS)]
        ids = [int(next(self._plans)) for _ in range(self.MODIFICATIONS)]
        plans = [(idx, *self._plan(idx)) for idx in ids]
        return derive(self.seed, self.KEY, i), sites, plans

    def run(self, i: int, inp) -> Record:
        op_seed, sites, plans = inp
        wins = []
        for j, (_, t_prime, ref, path, _, attempts) in enumerate(self.fixtures):
            rng = stream(op_seed, j)
            wins.append(sum(
                surgery.randomized_reconstruction(t_prime, ref, path, rng).success
                for _ in range(attempts)
            ))
        # collapse(insert(t)) against t, and against the inserted triangulation
        # as the deliberately wrong reference of the self-test
        misses = [0, 0]
        for t, level, pos, up, down in sites:
            res = surgery.insert_pairs(t, surgery.Insertion(level, pos, ((up, down),)))
            back = surgery.collapse_run(res.triangulation, *res.new_horizontal_run)
            misses[0] += back != t
            misses[1] += back != res.triangulation
        # canonical keys are tuples of ints, whose hashes are the same in every
        # process; the overcount gate keeps 8 bytes per plan, not the whole key
        keys = np.array([
            hash(surgery.apply_modification(
                self.hosts[h], self.pn, {1: plan}, threshold=8, count=self.COUNT
            ).canonical_key)
            for _, h, plan in plans
        ], dtype=np.int64)
        units = sum(f[5] for f in self.fixtures) + len(sites) + len(plans)
        digest = (tuple(wins), tuple(misses), keys.tobytes())
        plan_ids = np.array([idx for idx, _, _ in plans], dtype=np.int64)
        return Record(i, units, digest,
                      {"wins": wins, "misses": misses, "keys": keys, "plan_ids": plan_ids})

    def gates(self, records: list[Record]) -> list[Gate]:
        gates = []
        ref = 0 if self.refs.roundtrip_to_original else 1
        bad = {r.index for r in records if r.data["misses"][ref]}
        total = sum(r.data["misses"][ref] for r in records)
        gates.append(Gate("surgery.roundtrip", not bad, f"{total} failures", bad))

        keys = np.concatenate([r.data["keys"] for r in records]) if records else np.array([])
        owners = np.repeat([r.index for r in records], [len(r.data["keys"]) for r in records])
        # a plan met again on a later pass of the plan stream counts once
        if records:
            _, first = np.unique(np.concatenate([r.data["plan_ids"] for r in records]),
                                 return_index=True)
            keys, owners = keys[first], owners[first]
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        worst = int(counts.max(initial=0))
        bound = self.overcount_bound * self.refs.overcount_bound_scale
        bad = set(owners[counts[inverse] > bound].tolist())
        gates.append(Gate("surgery.overcount", not bad,
                          f"max multiplicity={worst} bound={bound:.0f}", bad))

        for j, (name, _, _, _, degrees, attempts) in enumerate(self.fixtures):
            n = attempts * len(records)
            wins = sum(r.data["wins"][j] for r in records)
            freq = wins / max(n, 1)
            bound = surgery.reconstruction_probability_bound(degrees) * self.refs.frequency_bound_scale
            se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / max(n, 1))
            ok = n > 0 and freq >= bound - 3.0 * se
            gates.append(Gate(f"surgery.reconstruction.{name}", ok,
                              f"freq={freq:.3e} bound={bound:.3e} n={n}",
                              set() if ok else {r.index for r in records}))
        return gates

    def provenance(self) -> dict:
        return {
            "fixture_vertices": [f[1].vertex_count for f in self.fixtures],
            "enumerated_triangulations": len(self.enumerated),
            "embedding_hosts": len(self.hosts),
            "modification_pairs": int(self.plan_offsets[-1]),
        }


WORKLOADS = {w.name: w for w in (Reach, LatticeMcmc, SmallExact, SurgeryWalk)}
