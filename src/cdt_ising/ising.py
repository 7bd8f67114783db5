"""Ising model on a finite Lorentzian triangulation.

The triangulation's top level acts as the frozen boundary: spins live on
levels 0..top-1 ("free" vertices) and the boundary condition is a +-1 vector
over the top level.  The Hamiltonian is ferromagnetic,

    H(sigma | boundary) = - sum_{<v,v'>} sigma_v sigma_v',

summed over all edges among free vertices (horizontal self-loops contribute
the constant -1) plus the diagonal edges from the last free level into the
boundary.  Horizontal edges inside the boundary level are excluded.  The
boundary spins act as a per-vertex field: field_v sums the boundary spins
joined to v, counted with multiplicity, so

    H = -n_loops - sum_v field_v sigma_v - sum_{interior (a, b)} sigma_a sigma_b.

Provides an exhaustive exact distribution for small systems (H over the
2^n configurations built by doubling, spin by spin, with no spin table), the
single-site heat-bath conditional, sequential Glauber sweeps, and a seeded
Monte Carlo estimator for the root magnetization under +- boundary conditions.

A sweep draws one ``rng.random(n_free)`` batch, uniform v driving flat
vertex v, and visits the free vertices in colour-class order: class by class
through ``FreeGraph.colour_classes``, a proper colouring with at most 6
classes, each in flat order.  The local field s at a site is an integer
with |s| <= W = ``FreeGraph.max_degree``, so p(+1) is read from a table of
``conditional_spin_prob(s, beta)`` for s in -W..W; ``conditional_spin_prob``
stays the only definition of p.  A site turns + iff its uniform is below
its table entry.

Everything a sweep reads beyond the graph lives in one ``_Sweep`` per free
graph, built on its first sweep and kept as the only entry of
``FreeGraph.sweep_memo``: the visit order, the boundary field and table of
the last beta and boundary (so a chain builds them once), and each
kernel's layout, built on that kernel's first use.  ``glauber_sweep``'s is
one straight-line function with one line per site; compiling it costs
50-80 us per site (0.7 s at 8,700 sites), so ``glauber_sweep`` serves long
chains on small graphs.  Large graphs go through ``root_plus_probability``, which updates a whole colour
class at once (``_ClassKernel``) with the same comparison: no two sites of
a class are neighbours, so updating them together is the sequential sweep.
It sums neighbour counts in uint8 below 256 rows and reads a parity-split
table at one add per class; a call builds only its table offsets.  Both
give the same chain, bit for bit.  Spins and boundary values pass one +-1
check, ``_checked_pm1``, at every entry point.  beta must be finite and
>= 0 (the ferromagnet) everywhere; that is the API's rule, as neither
kernel needs the table to be ordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import _checked_int, stream
from .triangulation import FreeGraph, Triangulation

MAX_EXACT_SPINS = 22
# root_plus_probability draws at most this many uniforms at once
_DRAW_BLOCK = 1 << 16


def boundary_vector(t: Triangulation, bc) -> np.ndarray:
    """Normalize a boundary condition to an int8 vector over the top level."""
    k = t.level_sizes[t.top_level]
    if isinstance(bc, str):
        if bc == "plus":
            return np.ones(k, dtype=np.int8)
        if bc == "minus":
            return -np.ones(k, dtype=np.int8)
        raise ValueError(f"unknown boundary condition {bc!r}")
    return np.array(_checked_pm1(bc, k, "boundary"), dtype=np.int8)


@dataclass
class SpinState:
    """Spins on the free vertices plus the boundary condition and temperature."""

    spins: np.ndarray  # int8, flat over levels 0..top-1
    boundary: np.ndarray  # int8, length k_top
    beta: float

    def copy(self) -> "SpinState":
        return SpinState(self.spins.copy(), self.boundary.copy(), self.beta)

    @classmethod
    def constant(cls, t: Triangulation, value: int, bc, beta: float) -> "SpinState":
        n = sum(t.level_sizes[:-1])
        return cls(np.full(n, value, dtype=np.int8), boundary_vector(t, bc), beta)

    @classmethod
    def random(cls, t: Triangulation, rng: np.random.Generator, bc, beta: float) -> "SpinState":
        n = sum(t.level_sizes[:-1])
        spins = (2 * rng.integers(0, 2, size=n) - 1).astype(np.int8)
        return cls(spins, boundary_vector(t, bc), beta)


_PM1 = frozenset((-1, 1))
_INT8 = np.dtype(np.int8)


def _checked_pm1(values, n: int, what: str) -> list[int]:
    """``values`` as a list of n ints, after checking that each is +-1.

    Numbers only: a string or an object array fails even where it compares
    equal to +-1.  An int8 array of n spins takes a short path.
    """
    if type(values) is np.ndarray and values.dtype is _INT8 and values.shape == (n,):
        s = values.tolist()
        if _PM1.issuperset(s):
            return s
    a = np.asarray(values)
    if a.shape != (n,):
        raise ValueError(f"{what} spins: shape {a.shape} does not fit {n} sites")
    s = a.tolist()
    if a.dtype.kind not in "biuf" or not _PM1.issuperset(s):
        raise ValueError(f"{what} spins must be +-1")
    # a float 1.0 passes as +-1 but cannot index the heat-bath table
    return s if a.dtype.kind in "biu" else [int(x) for x in s]


def _boundary_field(fg: FreeGraph, boundary: list[int], offset: int = 0) -> list[int]:
    """Per free vertex, ``offset`` plus the sum of the boundary spins joined to it."""
    field = [offset] * fg.n_free
    for v, p in zip(fg.bv.tolist(), fg.bpos.tolist()):
        field[v] += boundary[p]
    return field


def _checked_beta(beta: float) -> float:
    try:
        ok = math.isfinite(beta) and beta >= 0
    except TypeError:  # not a real number
        ok = False
    if not ok:
        raise ValueError(f"beta must be a finite number >= 0, got {beta!r}")
    return beta


def energy(t: Triangulation, state: SpinState) -> float:
    """H(sigma | boundary) under the ferromagnetic convention."""
    fg = t.free_graph
    s = _checked_pm1(state.spins, fg.n_free, "free")
    b = _checked_pm1(state.boundary, t.level_sizes[-1], "boundary")
    h = -fg.n_loops - sum(s[v] * b[p] for v, p in zip(fg.bv.tolist(), fg.bpos.tolist()))
    return float(h - sum(s[i] * s[j] for i, j in zip(fg.ia.tolist(), fg.ib.tolist())))


def conditional_spin_prob(s_sum: float, beta: float) -> float:
    """Heat-bath probability of +1 given the signed sum of neighboring spins.

    exp(beta*S) / (exp(beta*S) + exp(-beta*S)); the ferromagnetic mirror of
    the single-site conditional.  Where exp(-2*beta*S) overflows the result
    is 0.0, its exact float value.
    """
    try:
        return 1.0 / (1.0 + math.exp(-2.0 * beta * s_sum))
    except OverflowError:
        return 0.0


# spin j over 2^(j+1) configurations, read through a (-1, 2, 2^j) view
_PM1_BIT = np.array([[-1.0], [1.0]])


def _energies(fg: FreeGraph, field: list[int]) -> np.ndarray:
    """H of every configuration, spin v being bit v of the index, in float64.

    H over spins 0..v comes from H over spins 0..v-1 by doubling: spin v's
    local field is field_v plus each lower neighbour's +-1 pattern, one
    in-place add per interior edge at its higher end.  Every value is an
    integer, so every sum is exact.
    """
    lower = [[] for _ in range(fg.n_free)]
    for a, b in zip(fg.ia.tolist(), fg.ib.tolist()):
        lower[max(a, b)].append(min(a, b))
    h = np.full(1, -fg.n_loops, dtype=np.float64)
    for v, below in enumerate(lower):
        loc = np.full(len(h), field[v], dtype=np.float64)
        for j in below:
            view = loc.reshape(-1, 2, 1 << j)
            view += _PM1_BIT
        h = np.concatenate((h + loc, h - loc))
    return h


class GibbsExact:
    """Exhaustive Gibbs distribution over the 2^n free spin configurations."""

    def __init__(self, t: Triangulation, beta: float, bc) -> None:
        et = t.free_graph
        if et.n_free > MAX_EXACT_SPINS:
            raise ValueError(
                f"{et.n_free} free spins exceed the exact-enumeration cap {MAX_EXACT_SPINS}"
            )
        self.t = t
        self.beta = _checked_beta(float(beta))
        self.boundary = boundary_vector(t, bc)
        self.n_free = et.n_free
        self.energies = _energies(et, _boundary_field(et, self.boundary.tolist()))
        logw = -self.beta * self.energies
        logw -= logw.max()
        w = np.exp(logw, out=logw)
        self.probs = w / w.sum()

    def _config_index(self, spins: np.ndarray) -> int:
        s = _checked_pm1(spins, self.n_free, "free")
        return sum(1 << v for v, x in enumerate(s) if x > 0)

    def prob_of(self, spins: np.ndarray) -> float:
        return float(self.probs[self._config_index(spins)])

    def marginal_plus(self, level: int, pos: int) -> float:
        """P(spin at (level, pos) is +); a top-level spin is the boundary's."""
        v = self.t.flat_index(level, pos)
        if v >= self.n_free:
            return float(self.boundary[v - self.n_free] > 0)
        return float(self.probs.reshape(-1, 2, 1 << v)[:, 1].sum())

    def root_plus(self) -> float:
        return self.marginal_plus(0, 0)


def gibbs_exact(t: Triangulation, beta: float, bc) -> GibbsExact:
    return GibbsExact(t, beta, bc)


def _heat_bath_table(beta: float, w: int) -> tuple[float, ...]:
    """``conditional_spin_prob(s, beta)`` at index s + w, for s in -w..w."""
    return tuple(conditional_spin_prob(s, beta) for s in range(-w, w + 1))


class _Sweep:
    """The heat-bath sweep of one free graph, kept in its ``sweep_memo``.

    Built on the graph's first sweep (``_Sweep.of``), it holds the visit
    order, colour class by colour class, each vertex's position in it (the
    root's is ``position[0]``) and the boundary field and table of the last
    beta and boundary.  Each kernel's layout is built on that kernel's first
    use: ``classes`` for ``_ClassKernel``, ``kernel`` for ``glauber_sweep``.
    """

    def __init__(self, t: Triangulation) -> None:
        fg = self.fg = t.free_graph
        self.k_top = t.level_sizes[-1]
        self.last = None
        self.order = np.array([v for c in fg.colour_classes for v in c], dtype=np.intp)
        self.position = np.argsort(self.order)  # visit position of each vertex

    @staticmethod
    def of(t: Triangulation) -> _Sweep:
        memo = t.free_graph.sweep_memo
        sweep = memo.get("sweep")
        if sweep is None:
            sweep = memo["sweep"] = _Sweep(t)
        return sweep

    def setup(self, beta, boundary) -> tuple[list[int], tuple[float, ...]]:
        """The boundary field offset by ``max_degree``, and the heat-bath table.

        Kept under one key, beta's type and value and the boundary's values,
        so a chain checks and builds them once and an array changed in place
        between two sweeps misses.  Only checked values are kept, so a hit
        needs no check.  The key holds beta's type: a float32 beta computes
        its table in float32.
        """
        key = (type(beta), beta, np.asarray(boundary).tolist())
        if self.last is None or self.last[0] != key:
            w = self.fg.max_degree
            table = _heat_bath_table(_checked_beta(beta), w)
            values = _checked_pm1(boundary, self.k_top, "boundary")
            self.last = key, (_boundary_field(self.fg, values, w), table)
        return self.last[1]

    @cached_property
    def classes(self) -> list[tuple]:
        """Per colour class: its slice of the visit order, a padded (width,
        size) array whose column j lists the neighbours of the class's j-th
        vertex by visit position (padded with n_free), each vertex's
        neighbour count and the narrowest dtype of a column sum."""
        n, offsets, other = self.fg.n_free, *self.fg.neighbors
        counts, nbrs = np.diff(offsets), self.position[other]
        # each row entry's vertex, by visit position, and its index in the row
        owner = self.position.repeat(counts)
        slot = np.arange(len(nbrs)) - offsets[:-1].repeat(counts)
        classes, lo = [], 0
        for size in map(len, self.fg.colour_classes):
            mine = (lo <= owner) & (owner < lo + size)
            table = np.full((slot[mine].max(initial=-1) + 1, size), n, dtype=np.intp)
            table[slot[mine], owner[mine] - lo] = nbrs[mine]
            deg = np.count_nonzero(table < n, axis=0)
            classes.append((slice(lo, lo + size), table, deg, np.min_scalar_type(len(table))))
            lo += size
        return classes

    @cached_property
    def kernel(self):
        """``glauber_sweep``'s kernel: the sweep as one straight-line function.

        ``sweep(s, u, t, f)`` has one line per site v, in visit order:
        ``s[v] = 1 if u[v] < t[f[v] + s[j1] + s[j2] + ...] else -1`` over its
        ``neighbors``, parallel edges repeated.  Sums of more than 100 terms
        are nested in parenthesised groups: a flat chain of a few thousand
        overflows the compiler's recursion limit.
        """
        offsets, other = (x.tolist() for x in self.fg.neighbors)
        lines = ["def sweep(s, u, t, f):", "    pass"]  # a graph may have no free vertex
        for v in self.order.tolist():
            terms = [f"f[{v}]", *(f"s[{j}]" for j in other[offsets[v] : offsets[v + 1]])]
            while len(terms) > 100:
                terms = ["(" + " + ".join(terms[i : i + 100]) + ")"
                         for i in range(0, len(terms), 100)]
            lines.append(f"    s[{v}] = 1 if u[{v}] < t[{' + '.join(terms)}] else -1")
        scope: dict = {}
        exec("\n".join(lines), scope)
        return scope["sweep"]


def glauber_sweep(t: Triangulation, state: SpinState, rng: np.random.Generator) -> SpinState:
    """One sequential heat-bath pass over the free vertices in colour-class order.

    Boundary spins are never updated; the returned state shares the boundary
    array of ``state``.  Each single-site update draws from the exact
    conditional, so detailed balance holds update by update.  The pass draws
    one ``rng.random(n_free)`` and reads each site's p(+1) from a table of
    ``conditional_spin_prob`` over the local fields the graph allows.
    """
    sweep = _Sweep.of(t)
    field, table = sweep.setup(state.beta, state.boundary)
    n = sweep.fg.n_free
    spins = _checked_pm1(state.spins, n, "free")
    sweep.kernel(spins, rng.random(n).tolist(), table, field)
    return SpinState(np.array(spins, dtype=np.int8), state.boundary, state.beta)


class _ClassKernel:
    """The sweep of ``glauber_sweep`` as one vectorised update per colour class.

    Spins are booleans (True for +1) in visit order, followed by one padding
    slot that stays False, so one gather through the class's neighbour array
    in ``_Sweep.classes`` and one column sum count each site's plus
    neighbours, summed in uint8 below 256 rows: a column of 0/1 bytes cannot
    exceed its height.  With
    deg_v neighbours the sum of their spins is 2 * count - deg_v, so the
    site's entry is ``table[base_v + 2 * count]``, base_v = field_v - deg_v
    >= 0.  Stored as its even entries, then its odd ones, the table holds it
    at half_v + count, half_v = base_v // 2 + (base_v % 2) * len(even): one
    add.  The site turns + iff its uniform is below that entry, the test of
    ``glauber_sweep``.  Only half_v and the table depend on beta and the
    boundary, so they are all a call builds; the rest is the ``_Sweep``.
    Nothing here needs the table to be ordered; beta >= 0 stays the rule of
    the API, not of the kernel.
    """

    def __init__(self, sweep: _Sweep, beta, boundary) -> None:
        field, table = sweep.setup(beta, boundary)
        self.order, self.root = sweep.order, int(sweep.position[0])
        field = np.asarray(field, dtype=np.intp)[self.order]
        self.table, even = np.array(table[0::2] + table[1::2]), len(table[0::2])
        self.classes = []
        for sites, nbrs, deg, dtype in sweep.classes:
            base = field[sites] - deg
            self.classes.append((sites, nbrs, base // 2 + base % 2 * even, dtype))

    def start(self, spins: np.ndarray) -> np.ndarray:
        """The kernel's state for flat-order ``spins``, + where positive."""
        return np.append(spins[self.order] > 0, False)

    def sweeps(self, x: np.ndarray, rng: np.random.Generator, count: int) -> int:
        """Run ``count`` sweeps on ``x``; the number of them that end with the root +.

        The uniforms come in draws of at most ``_DRAW_BLOCK``, one
        ``rng.random((rows, n_free))`` of whole sweeps each.
        """
        n = len(self.order)
        block = max(1, _DRAW_BLOCK // n)
        plus, table, reduce, less = x.view(np.uint8), self.table, np.add.reduce, np.less
        classes = [(sites, nbrs, half, dtype, x[sites]) for sites, nbrs, half, dtype in self.classes]
        root_plus = 0
        for done in range(0, count, block):
            uniforms = rng.random((min(block, count - done), n))[:, self.order]
            for row in uniforms:
                for sites, nbrs, half, dtype, xs in classes:
                    less(row[sites], table[half + reduce(plus[nbrs], axis=0, dtype=dtype)], out=xs)
                root_plus += x[self.root]
        return int(root_plus)


@dataclass(frozen=True)
class RootEstimate:
    estimate: float
    stderr: float
    sweeps: int
    replicas: int
    batch_means: tuple[float, ...]


def root_plus_probability(
    t: Triangulation,
    beta: float,
    bc,
    sweeps: int,
    replicas: int,
    seed: int,
    burn_in: int = 1000,
    batches: int = 32,
    init: str = "aligned",
) -> RootEstimate:
    """Monte Carlo estimate of P(root spin = +1) with batch-means standard error.

    Each replica owns its RNG stream (derived from the seed and the replica
    index) and its own chain; ``init='aligned'`` starts from the boundary
    value, ``init='random'`` from i.i.d. uniform spins.  The root is the flat
    vertex 0.  The chain is that of ``glauber_sweep`` fed the same stream,
    run by ``_ClassKernel``; a run of k sweeps draws its uniforms as one
    ``rng.random((k, n_free))``, which equals k draws of ``rng.random(n_free)``.
    """
    batches = _checked_int(batches, "batches", 1)
    sweeps = _checked_int(sweeps, "sweeps", batches)  # at least one sweep per batch
    replicas = _checked_int(replicas, "replicas", 1)
    burn_in = _checked_int(burn_in, "burn_in", 0)
    if init not in ("aligned", "random"):
        raise ValueError(f"unknown init {init!r}")
    n = t.free_graph.n_free
    if n == 0:
        raise ValueError("the root is a boundary spin: there is no free spin to sample")
    bc_vec = boundary_vector(t, bc)
    kernel = _ClassKernel(_Sweep.of(t), beta, bc_vec)
    batch_size = sweeps // batches
    used = batch_size * batches
    all_means: list[float] = []
    for r in range(replicas):
        rng = stream(seed, r)
        if init == "aligned":
            x = kernel.start(np.full(n, 1 if bc_vec.sum() >= 0 else -1))
        else:
            x = kernel.start(rng.integers(0, 2, size=n))
        kernel.sweeps(x, rng, burn_in)
        all_means.extend(kernel.sweeps(x, rng, batch_size) / batch_size for _ in range(batches))
    means = np.array(all_means)
    estimate = float(means.mean())
    stderr = float(means.std(ddof=1) / math.sqrt(len(means))) if len(means) > 1 else math.nan
    return RootEstimate(estimate, stderr, used, replicas, tuple(means))
