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

Provides an exhaustive exact distribution for small systems (H evaluated once
over one +-1 array of length 2^n per free spin, without chunking), the
single-site heat-bath conditional, sequential Glauber sweeps, and a seeded
Monte Carlo estimator for the root magnetization under +- boundary conditions.

A sweep draws one ``rng.random(n_free)`` batch, uniform v driving flat
vertex v, and visits the free vertices in colour-class order: class by class
through ``FreeGraph.colour_classes``, a proper colouring with at most 6
classes, each in flat order.  The local field s at a site is an integer
with |s| <= W = ``FreeGraph.max_degree``, so p(+1) is read from a table of
``conditional_spin_prob(s, beta)`` for s in -W..W, built once per beta and
W; ``conditional_spin_prob`` stays the only definition of p.  A site turns
+ iff its uniform is below its table entry.

``glauber_sweep`` runs one sweep through ``_sweep_inplace``, one Python step
per site, which is also the reference kernel; each free graph keeps the
boundary field of the last boundary values it swept under, so a chain builds
it once.  ``root_plus_probability`` updates a whole colour class at once
(``_ClassKernel``) with the same comparison, reading each class's neighbours
from ``FreeGraph.class_neighbors``: no two sites of a class are neighbours,
so updating them together is the sequential sweep.  Both give the same
chain, bit for bit.  Spins and boundary values pass one +-1 check,
``_checked_pm1``, at every entry point.  beta must be finite and >= 0 (the
ferromagnet) everywhere; that is the API's rule, as neither kernel needs
the table to be ordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


def _checked_pm1(values, n: int, what: str) -> list[int]:
    """``values`` as a list of n ints, after checking that each is +-1.

    Numbers only: a string or an object array fails even where it compares
    equal to +-1.
    """
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


def _hamiltonian(fg: FreeGraph, field: np.ndarray, spins: np.ndarray) -> np.ndarray:
    """H elementwise over ``spins``, which holds one +-1 array per free vertex."""
    h = np.full(spins.shape[1:], -fg.n_loops, dtype=np.int64)
    for v in np.flatnonzero(field):
        h -= field[v] * spins[v]
    for a, b in zip(fg.ia.tolist(), fg.ib.tolist()):
        h -= spins[a] * spins[b]
    return h


def energy(t: Triangulation, state: SpinState) -> float:
    """H(sigma | boundary) under the ferromagnetic convention."""
    spins = _checked_pm1(state.spins, t.free_graph.n_free, "free")
    boundary = _checked_pm1(state.boundary, t.level_sizes[-1], "boundary")
    field = np.array(_boundary_field(t.free_graph, boundary), dtype=np.int64)
    spins_col = np.array(spins, dtype=np.int8)[:, None]
    return float(_hamiltonian(t.free_graph, field, spins_col)[0])


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


def _all_configurations(n: int) -> np.ndarray:
    """Row v is spin v over the 2^n configurations: +1 where bit v of the index is set."""
    spins = np.empty((n, 1 << n), dtype=np.int8)
    for v in range(n):
        spins[v].reshape(-1, 2, 1 << v)[:] = np.array([[-1], [1]], dtype=np.int8)
    return spins


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
        field = np.array(_boundary_field(et, self.boundary.tolist()), dtype=np.int64)
        energies = _hamiltonian(et, field, _all_configurations(et.n_free))
        self.energies = energies.astype(np.float64)
        logw = -self.beta * self.energies
        logw -= logw.max()
        w = np.exp(logw)
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


@lru_cache(maxsize=64, typed=True)
def _heat_bath_table(beta: float, w: int) -> tuple[float, ...]:
    """``conditional_spin_prob(s, beta)`` at index s + w, for s in -w..w.

    Keyed by type as well: a float32 beta equal to a cached float64 one
    computes its products in float32, so it must not share that table.
    """
    return tuple(conditional_spin_prob(s, beta) for s in range(-w, w + 1))


def _sweep_inplace(
    spins: list[int],
    neighbors: tuple[tuple[int, ...], ...],
    field: list[int],
    table: tuple[float, ...],
    uniforms: list[float],
    order: tuple[int, ...],
) -> None:
    """Update the free spins in ``order``, site v drawing on ``uniforms[v]``.

    ``field`` holds each boundary field plus the offset w of ``table``, so
    ``table[field[v] + sum of the neighbors' spins]`` is the site's p(+1).
    """
    for v in order:
        s = field[v]
        for j in neighbors[v]:
            s += spins[j]
        spins[v] = 1 if uniforms[v] < table[s] else -1


def _sweep_field(t: Triangulation, boundary) -> list[int]:
    """``_boundary_field`` of a checked ``boundary``, offset by ``max_degree``.

    The last result is kept in ``FreeGraph.sweep_memo``, keyed by the
    boundary's values, so an array changed in place between two sweeps
    misses it.  Only a checked boundary enters the memo, so a hit needs no
    check.
    """
    fg = t.free_graph
    values = np.asarray(boundary).tolist()
    seen, field = fg.sweep_memo[0]
    if seen == values:
        return field
    values = _checked_pm1(boundary, t.level_sizes[-1], "boundary")
    field = _boundary_field(fg, values, fg.max_degree)
    fg.sweep_memo[0] = (values, field)
    return field


def glauber_sweep(t: Triangulation, state: SpinState, rng: np.random.Generator) -> SpinState:
    """One sequential heat-bath pass over the free vertices in colour-class order.

    Boundary spins are never updated; the returned state shares the boundary
    array of ``state``.  Each single-site update draws from the exact
    conditional, so detailed balance holds update by update.  The pass draws
    one ``rng.random(n_free)`` and reads each site's p(+1) from a table of
    ``conditional_spin_prob`` over the local fields the graph allows.
    """
    et = t.free_graph
    beta = _checked_beta(state.beta)
    field = _sweep_field(t, state.boundary)
    spins = _checked_pm1(state.spins, et.n_free, "free")
    uniforms = rng.random(et.n_free).tolist()
    table = _heat_bath_table(beta, et.max_degree)
    _sweep_inplace(spins, et.neighbors, field, table, uniforms, et.visit_order)
    return SpinState(np.array(spins, dtype=np.int8), state.boundary, beta)


class _ClassKernel:
    """The sweep of ``_sweep_inplace`` as one vectorised update per colour class.

    Spins are booleans (True for +1) in visit order, followed by one padding
    slot that stays False, so one gather through ``FreeGraph.class_neighbors``
    and one column sum count each site's plus neighbours.  With deg_v
    neighbours the sum of their spins is 2 * count - deg_v, so the site's
    table index is base_v + 2 * count for base_v = field_v - deg_v, and the
    site turns + iff its uniform is below that entry, the test of
    ``_sweep_inplace``.  Nothing here needs the table to be ordered; beta >=
    0 stays the rule of the API, not of the kernel.
    """

    def __init__(self, fg: FreeGraph, field: list[int], table: tuple[float, ...]) -> None:
        self.order = np.array(fg.visit_order, dtype=np.intp)
        field = np.asarray(field, dtype=np.intp)[self.order]
        self.classes = []
        lo = 0
        for nbrs in fg.class_neighbors:
            hi = lo + nbrs.shape[1]
            deg = np.count_nonzero(nbrs < fg.n_free, axis=0)
            self.classes.append((slice(lo, hi), nbrs, field[lo:hi] - deg))
            lo = hi
        self.table = np.asarray(table)
        self.root = fg.visit_order.index(0)

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
        plus = x.view(np.uint8)
        root_plus = 0
        for done in range(0, count, block):
            uniforms = rng.random((min(block, count - done), n))[:, self.order]
            for row in uniforms:
                for sites, nbrs, base in self.classes:
                    counts = np.add.reduce(plus[nbrs], axis=0, dtype=np.intp)
                    np.less(row[sites], self.table[base + 2 * counts], out=x[sites])
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
    _checked_beta(beta)
    batches = _checked_int(batches, "batches", 1)
    sweeps = _checked_int(sweeps, "sweeps", batches)  # at least one sweep per batch
    replicas = _checked_int(replicas, "replicas", 1)
    burn_in = _checked_int(burn_in, "burn_in", 0)
    if init not in ("aligned", "random"):
        raise ValueError(f"unknown init {init!r}")
    et = t.free_graph
    n = et.n_free
    bc_vec = boundary_vector(t, bc)
    kernel = _ClassKernel(et, _sweep_field(t, bc_vec), _heat_bath_table(beta, et.max_degree))
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
