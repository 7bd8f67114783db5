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

Both kernels read that table in one layout, built by ``_Sweep.setup``: its
even entries, then its odd ones, and per site an offset half_v such that a
site with `count` plus neighbours reads its entry at half_v + count.  With
deg_v neighbours (parallel edges repeated) the local field is field_v +
2 * count - deg_v, which sits at base_v + 2 * count in the table, base_v =
field_v + W - deg_v >= 0; in the split table that is half_v + count, half_v
= base_v // 2 + (base_v % 2) * (W + 1).

Everything a sweep reads beyond the graph lives in one ``_Sweep`` per free
graph, built on its first sweep and kept as the only entry of
``FreeGraph.sweep_memo``: the visit order, the table and offsets of the
last beta and boundary (so a chain builds them once), and each kernel's
layout, built on that kernel's first use.  ``glauber_sweep``'s is one
straight-line function with one line per site, over one local 0/1 per
spin; compiling it costs 20-35 us per site (0.3 s at 8,700 sites), so
``glauber_sweep`` serves long chains on small graphs.  Its spins cross
as bytes: an int8 array's bytes are checked and turned into 0/1 with two
``bytes.translate`` calls, and the kernel's 0/1 bytes turn back into a new
int8 array with one more.  Large graphs go through
``root_plus_probability``, which updates a whole colour class at once
(``_ClassKernel``) with the same comparison: no two sites of a class are
neighbours, so updating them together is the sequential sweep.  It sums
neighbour counts in uint8 below 256 rows, one add per class.  Both give
the same chain, bit for bit.  Spins and boundary values pass one +-1
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
    return np.frombuffer(bytearray(_checked_pm1(bc, k, "boundary")), _INT8)


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
# +1 and -1 as int8 bytes, and translations of those bytes to 0/1 (1 for +),
# back, and to the digits "1"/"0"
_PM1_BYTES = b"\x01\xff"
_PLUS_BITS = bytes.maketrans(_PM1_BYTES, b"\x01\x00")
_BITS_PM1 = bytes.maketrans(b"\x01\x00", _PM1_BYTES)
_PLUS_DIGITS = bytes.maketrans(_PM1_BYTES, b"10")


def _checked_pm1(values, n: int, what: str) -> bytes:
    """``values`` as n int8 bytes, after checking that each is +-1.

    Numbers only: a string or an object array fails even where it compares
    equal to +-1.  An int8 array of n spins takes a short path: one
    ``bytes.translate`` that deletes every +-1 byte must leave nothing.
    """
    if type(values) is np.ndarray and values.dtype is _INT8 and values.shape == (n,):
        raw = values.tobytes()
        if not raw.translate(None, _PM1_BYTES):
            return raw
    a = np.asarray(values)
    if a.shape != (n,):
        raise ValueError(f"{what} spins: shape {a.shape} does not fit {n} sites")
    if a.dtype.kind not in "biuf" or not _PM1.issuperset(a.tolist()):
        raise ValueError(f"{what} spins must be +-1")
    return a.astype(np.int8).tobytes()


def _pm1_list(values, n: int, what: str) -> list[int]:
    """``values`` as a list of n ints, after ``_checked_pm1``."""
    return np.frombuffer(_checked_pm1(values, n, what), _INT8).tolist()


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
    s = _pm1_list(state.spins, fg.n_free, "free")
    b = _pm1_list(state.boundary, t.level_sizes[-1], "boundary")
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
        self.beta = float(_checked_beta(beta))
        self.boundary = boundary_vector(t, bc)
        self.n_free = et.n_free
        self.energies = _energies(et, _boundary_field(et, self.boundary.tolist()))
        logw = -self.beta * self.energies
        logw -= logw.max()
        w = np.exp(logw, out=logw)
        self.probs = w / w.sum()

    def _config_index(self, spins: np.ndarray) -> int:
        """The index whose bit v is set where spin v is +: spin v is digit v
        of a binary numeral, read from the last spin down."""
        digits = _checked_pm1(spins, self.n_free, "free").translate(_PLUS_DIGITS)
        return int(digits[::-1] or b"0", 2)

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


def _split_offset(base: int, w: int) -> int:
    """Where entry ``base`` of a ``_heat_bath_table(beta, w)`` sits once the
    table is stored as its even entries, then its odd ones."""
    return base // 2 + base % 2 * (w + 1)


class _Sweep:
    """The heat-bath sweep of one free graph, kept in its ``sweep_memo``.

    Built on the graph's first sweep (``_Sweep.of``), it holds the visit
    order, colour class by colour class, each vertex's position in it (the
    root's is ``position[0]``), each vertex's table offset under a zero
    field and the table and offsets of the last beta and boundary.  Each
    kernel's layout is built on that kernel's first use: ``classes`` for
    ``_ClassKernel``, ``kernel`` for ``glauber_sweep``.
    """

    def __init__(self, t: Triangulation) -> None:
        fg = self.fg = t.free_graph
        self.n_free, self.k_top = fg.n_free, t.level_sizes[-1]
        self.last = None, None  # (key, (table, offsets)) of the last setup
        self.order = np.array([v for c in fg.colour_classes for v in c], dtype=np.intp)
        self.position = np.argsort(self.order)  # visit position of each vertex
        # base_v of the module docstring less field_v, and its split offset:
        # only the vertices joined to the boundary have a field to add
        w = fg.max_degree
        self.base = [w - d for d in np.diff(fg.neighbors[0]).tolist()]
        self.half = [_split_offset(b, w) for b in self.base]
        self.joined = sorted(set(fg.bv.tolist()))

    @staticmethod
    def of(t: Triangulation) -> _Sweep:
        memo = t.free_graph.sweep_memo
        sweep = memo.get("sweep")
        if sweep is None:
            sweep = memo["sweep"] = _Sweep(t)
        return sweep

    def setup(self, beta, boundary) -> tuple[tuple[float, ...], list[int]]:
        """The heat-bath table split by parity, and each vertex's offset in it.

        The table is ``_heat_bath_table(beta, max_degree)``'s even entries,
        then its odd ones; offset half_v, in flat order, is where vertex v
        reads its entry with no plus neighbour (the module docstring derives
        it), so with `count` plus neighbours it reads ``table[half_v +
        count]``.  Kept under one key, beta's type and value and the
        boundary's values, so a chain checks and builds them once and an
        array changed in place between two sweeps misses.  Only checked
        values are kept, so a hit needs no check.  The key holds beta's
        type: a float32 beta computes its table in float32.
        """
        key = type(beta), beta, np.asarray(boundary).tolist()
        if self.last[0] != key:
            w = self.fg.max_degree
            table = _heat_bath_table(_checked_beta(beta), w)
            field = _boundary_field(self.fg, _pm1_list(boundary, self.k_top, "boundary"))
            half = self.half.copy()
            for v in self.joined:
                half[v] = _split_offset(self.base[v] + field[v], w)
            self.last = key, (table[0::2] + table[1::2], half)
        return self.last[1]

    @cached_property
    def classes(self) -> list[tuple]:
        """Per colour class: its slice of the visit order, a padded (width,
        size) array whose column j lists the neighbours of the class's j-th
        vertex by visit position (padded with n_free), and the narrowest
        dtype of a column sum."""
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
            classes.append((slice(lo, lo + size), table, np.min_scalar_type(len(table))))
            lo += size
        return classes

    @cached_property
    def kernel(self):
        """``glauber_sweep``'s kernel: the sweep as one straight-line function.

        ``sweep(xs, us, t, hs)`` takes the spins as bytes in flat order, 1
        for + and 0 for -, and the table and offsets of ``setup``.  It
        unpacks the spins into one local x<v> per site, has one line per site
        v, in visit order: ``x<v> = 1 if us[v] < t[hs[v] + x<j1> + x<j2> +
        ...] else 0`` over its ``neighbors``, parallel edges repeated, and
        returns the spins as bytes again.  Sums of more than 100 terms are
        nested in parenthesised groups: a flat chain of a few thousand
        overflows the compiler's recursion limit.
        """
        offsets, other = (x.tolist() for x in self.fg.neighbors)
        names = [f"x{v}" for v in range(self.fg.n_free)]
        # a list target and display also hold a graph with no free vertex
        lines = ["def sweep(xs, us, t, hs):", f"    [{', '.join(names)}] = xs"]
        for v in self.order.tolist():
            terms = [f"hs[{v}]", *(names[j] for j in other[offsets[v] : offsets[v + 1]])]
            while len(terms) > 100:
                terms = ["(" + " + ".join(terms[i : i + 100]) + ")"
                         for i in range(0, len(terms), 100)]
            lines.append(f"    x{v} = 1 if us[{v}] < t[{' + '.join(terms)}] else 0")
        lines.append(f"    return bytes([{', '.join(names)}])")
        scope: dict = {}
        exec("\n".join(lines), scope)
        return scope["sweep"]


def glauber_sweep(t: Triangulation, state: SpinState, rng: np.random.Generator) -> SpinState:
    """One sequential heat-bath pass over the free vertices in colour-class order.

    Boundary spins are never updated; the returned state shares the boundary
    array of ``state``.  Each single-site update draws from the exact
    conditional, so detailed balance holds update by update.  The pass draws
    one ``rng.random(n_free)`` and reads each site's p(+1) from a table of
    ``conditional_spin_prob`` over the local fields the graph allows.  The
    returned spins are a new writable int8 array.
    """
    sweep = _Sweep.of(t)
    table, half = sweep.setup(state.beta, state.boundary)
    n = sweep.n_free
    plus = _checked_pm1(state.spins, n, "free").translate(_PLUS_BITS)
    plus = sweep.kernel(plus, rng.random(n).tolist(), table, half)
    spins = np.frombuffer(bytearray(plus.translate(_BITS_PM1)), _INT8)
    return SpinState(spins, state.boundary, state.beta)


class _ClassKernel:
    """The sweep of ``glauber_sweep`` as one vectorised update per colour class.

    Spins are booleans (True for +1) in visit order, followed by one padding
    slot that stays False, so one gather through the class's neighbour array
    in ``_Sweep.classes`` and one column sum count each site's plus
    neighbours, summed in uint8 below 256 rows: a column of 0/1 bytes cannot
    exceed its height.  The site's entry is ``table[half_v + count]`` in the
    table and offsets of ``_Sweep.setup``, the layout ``glauber_sweep``
    reads: one add.  The site turns + iff its uniform is below that entry,
    the test of ``glauber_sweep``.  Only the offsets and the table depend on
    beta and the boundary; the rest is the ``_Sweep``.  Nothing here needs
    the table to be ordered; beta >= 0 stays the rule of the API, not of
    the kernel.
    """

    def __init__(self, sweep: _Sweep, beta, boundary) -> None:
        table, half = sweep.setup(beta, boundary)
        self.order, self.root = sweep.order, int(sweep.position[0])
        half = np.array(half, dtype=np.intp)[self.order]
        self.table = np.array(table)
        self.classes = [(sites, nbrs, half[sites], dtype) for sites, nbrs, dtype in sweep.classes]

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
