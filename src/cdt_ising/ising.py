"""Ising model on a finite Lorentzian triangulation.

The triangulation's top level acts as the frozen boundary: spins live on
levels 0..top-1 ("free" vertices) and the boundary condition is a +-1 vector
over the top level.  The Hamiltonian is ferromagnetic,

    H(sigma | boundary) = - sum_{<v,v'>} sigma_v sigma_v',

summed over all edges among free vertices (horizontal self-loops contribute
the constant -1) plus the diagonal edges from the last free level into the
boundary.  Horizontal edges inside the boundary level are excluded.

Provides an exhaustive exact distribution for small systems, the single-site
heat-bath conditional, sequential Glauber sweeps, and a seeded Monte Carlo
estimator for the root magnetization under +- boundary conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import stream
from .triangulation import Triangulation

MAX_EXACT_SPINS = 22
_CHUNK = 1 << 18


def boundary_vector(t: Triangulation, bc) -> np.ndarray:
    """Normalize a boundary condition to an int8 vector over the top level."""
    k = t.level_sizes[t.top_level]
    if isinstance(bc, str):
        if bc == "plus":
            return np.ones(k, dtype=np.int8)
        if bc == "minus":
            return -np.ones(k, dtype=np.int8)
        raise ValueError(f"unknown boundary condition {bc!r}")
    vec = np.asarray(bc, dtype=np.int8)
    if vec.shape != (k,):
        raise ValueError(f"boundary vector must have length {k}")
    if not np.all(np.abs(vec) == 1):
        raise ValueError("boundary spins must be +-1")
    return vec


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


def energy(t: Triangulation, state: SpinState) -> float:
    """H(sigma | boundary) under the ferromagnetic convention."""
    et = t.free_graph
    s = np.asarray(state.spins, dtype=np.int64)
    if s.shape != (et.n_free,):
        raise ValueError(f"state must assign a spin to all {et.n_free} free vertices")
    if not np.all(np.abs(s) == 1):
        raise ValueError("spins must be +-1")
    bc = np.asarray(state.boundary, dtype=np.int64)
    h = -(s[et.ia] * s[et.ib]).sum() - et.n_loops
    h -= (s[et.bv] * bc[et.bpos]).sum()
    return float(h)


def edge_count(t: Triangulation) -> int:
    """Edges entering the Hamiltonian: internal (loops included) plus boundary."""
    et = t.free_graph
    return len(et.ia) + et.n_loops + len(et.bv)


def conditional_spin_prob(s_sum: float, beta: float) -> float:
    """Heat-bath probability of +1 given the signed sum of neighboring spins.

    exp(beta*S) / (exp(beta*S) + exp(-beta*S)); the ferromagnetic mirror of
    the single-site conditional.
    """
    return 1.0 / (1.0 + math.exp(-2.0 * beta * s_sum))


class GibbsExact:
    """Exhaustive Gibbs distribution over the 2^n free spin configurations."""

    def __init__(self, t: Triangulation, beta: float, bc) -> None:
        et = t.free_graph
        if et.n_free > MAX_EXACT_SPINS:
            raise ValueError(
                f"{et.n_free} free spins exceed the exact-enumeration cap {MAX_EXACT_SPINS}"
            )
        self.t = t
        self.beta = float(beta)
        self.boundary = boundary_vector(t, bc)
        self._et = et
        n = et.n_free
        m = 1 << n
        energies = np.empty(m, dtype=np.float64)
        bc64 = self.boundary.astype(np.int64)
        for lo in range(0, m, _CHUNK):
            hi = min(lo + _CHUNK, m)
            idx = np.arange(lo, hi, dtype=np.uint64)[:, None]
            bits = (idx >> np.arange(n, dtype=np.uint64)) & 1
            sp = (2 * bits.astype(np.int64)) - 1
            h = -(sp[:, et.ia] * sp[:, et.ib]).sum(axis=1) - et.n_loops
            h = h - (sp[:, et.bv] * bc64[et.bpos]).sum(axis=1)
            energies[lo:hi] = h
        self.energies = energies
        logw = -self.beta * energies
        logw -= logw.max()
        w = np.exp(logw)
        self.probs = w / w.sum()

    @property
    def n_free(self) -> int:
        return self._et.n_free

    def _config_index(self, spins: np.ndarray) -> int:
        s = np.asarray(spins)
        if s.shape != (self.n_free,):
            raise ValueError("configuration has the wrong length")
        bits = (s > 0).astype(np.uint64)
        return int((bits << np.arange(self.n_free, dtype=np.uint64)).sum())

    def prob_of(self, spins: np.ndarray) -> float:
        return float(self.probs[self._config_index(spins)])

    def marginal_plus(self, level: int, pos: int) -> float:
        """P(spin at (level, pos) is +); a top-level spin is the boundary's."""
        v = self.t.flat_index(level, pos)
        if v >= self.n_free:
            return float(self.boundary[v - self.n_free] > 0)
        m = len(self.probs)
        total = 0.0
        for lo in range(0, m, _CHUNK):
            hi = min(lo + _CHUNK, m)
            idx = np.arange(lo, hi, dtype=np.uint64)
            mask = ((idx >> np.uint64(v)) & 1).astype(bool)
            total += float(self.probs[lo:hi][mask].sum())
        return total

    def root_plus(self) -> float:
        return self.marginal_plus(0, 0)


def gibbs_exact(t: Triangulation, beta: float, bc) -> GibbsExact:
    return GibbsExact(t, beta, bc)


def _sweep_inplace(
    spins: list[int],
    neighbors: tuple[tuple[int, ...], ...],
    bc_base: list[int],
    beta: float,
    uniforms: np.ndarray,
) -> None:
    exp = math.exp
    for v in range(len(spins)):
        s = bc_base[v]
        for j in neighbors[v]:
            s += spins[j]
        p = 1.0 / (1.0 + exp(-2.0 * beta * s))
        spins[v] = 1 if uniforms[v] < p else -1


def glauber_sweep(t: Triangulation, state: SpinState, rng: np.random.Generator) -> SpinState:
    """One sequential heat-bath pass over the free vertices (fixed scan order).

    Boundary spins are never updated.  Each single-site update draws from the
    exact conditional, so detailed balance holds update by update.
    """
    et = t.free_graph
    bc = state.boundary
    bc_base = [int(sum(int(bc[p]) for p in et.bc_slots[v])) for v in range(et.n_free)]
    spins = [int(x) for x in state.spins]
    _sweep_inplace(spins, et.neighbors, bc_base, state.beta, rng.random(et.n_free))
    return SpinState(np.array(spins, dtype=np.int8), state.boundary.copy(), state.beta)


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
    vertex 0.
    """
    if sweeps < batches:
        raise ValueError("need at least one sweep per batch")
    et = t.free_graph
    bc_vec = boundary_vector(t, bc)
    bc_base = [int(sum(int(bc_vec[p]) for p in et.bc_slots[v])) for v in range(et.n_free)]
    batch_size = sweeps // batches
    used = batch_size * batches
    all_means: list[float] = []
    for r in range(replicas):
        rng = stream(seed, r)
        if init == "aligned":
            fill = 1 if bc_vec.sum() >= 0 else -1
            spins = [fill] * et.n_free
        elif init == "random":
            spins = [1 if x else -1 for x in rng.integers(0, 2, size=et.n_free)]
        else:
            raise ValueError(f"unknown init {init!r}")
        for _ in range(burn_in):
            _sweep_inplace(spins, et.neighbors, bc_base, beta, rng.random(et.n_free))
        acc = 0
        taken = 0
        for _ in range(used):
            _sweep_inplace(spins, et.neighbors, bc_base, beta, rng.random(et.n_free))
            acc += 1 if spins[0] > 0 else 0
            taken += 1
            if taken == batch_size:
                all_means.append(acc / batch_size)
                acc = 0
                taken = 0
    means = np.array(all_means)
    estimate = float(means.mean())
    if len(means) > 1:
        stderr = float(means.std(ddof=1) / math.sqrt(len(means)))
    else:
        stderr = float("nan")
    return RootEstimate(estimate, stderr, used, replicas, tuple(means))
