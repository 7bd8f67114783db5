"""Degree-dependent site percolation and locally geodesic path machinery.

Each vertex of a triangulation is open independently with probability
tanh(beta * d_v), the maximal total-variation distance between the two
extreme single-site spin conditionals.  The finite stand-in for "an infinite
open path exists" is the farthest level reached by the open cluster of the
root; the annealed estimator redraws both the triangulation and the marks
every trial.

Marks cover levels 0..top-1 of a triangulation sampled one level deeper than
the reach horizon, so every marked vertex has a full degree; the root uses
d = d_up + 2 (its self-loop supplies the two horizontal slots).

The single-instance API works on a ``Triangulation``: marks use
``Triangulation.mark_degrees``, and ``max_open_reach`` and the path checks
use ``Triangulation.neighbors``.

All annealed estimators run their trials through ``reach_hits``, which never
builds a triangulation.  Its search reads the out-degree lists directly and
builds a level's tables (fan starts, degrees, one tanh vector per beta) only
when the search first touches that level, and it stops at the first open
vertex on the target level.  The draws are those of the full build: the
depth-(levels+1) forest first, then one uniform per marked vertex in flat
order, so each trial's verdict equals ``max_open_reach`` on
``forest_to_triangulation`` of the same forest with the same uniforms.

Every entry point that takes beta requires it finite and >= 0, as the Ising
code does (``ising._checked_beta``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .branching import sample_spine_forest
from .ising import _checked_beta
from .rng import stream
from .triangulation import Triangulation


def open_probability(degree: int, beta: float) -> float:
    """tanh(beta * degree): the disagreement bound for a degree-d vertex."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    return math.tanh(_checked_beta(beta) * degree)


@dataclass(frozen=True)
class OpenSet:
    """Independent open/closed marks on levels 0..top-1 of a triangulation."""

    beta: float
    marks: np.ndarray  # bool, flat over marked levels


def sample_open_set(t: Triangulation, beta: float, rng: np.random.Generator) -> OpenSet:
    """Mark vertex v open with probability tanh(beta * d_v), independently."""
    _checked_beta(beta)
    degs = t.mark_degrees
    marks = rng.random(len(degs)) < np.tanh(beta * degs)
    return OpenSet(float(beta), marks)


def open_set_from_uniforms(t: Triangulation, beta: float, uniforms: np.ndarray) -> OpenSet:
    """Open set from pre-drawn uniforms; shared uniforms couple different betas."""
    _checked_beta(beta)
    degs = t.mark_degrees
    if uniforms.shape != degs.shape:
        raise ValueError("need one uniform per marked vertex")
    return OpenSet(float(beta), uniforms < np.tanh(beta * degs))


@dataclass(frozen=True)
class ReachResult:
    """Farthest level of the root's open cluster, with a path certificate.

    ``reach`` is 0 and ``path`` is None when the root itself is closed; the
    certificate is a self-avoiding open vertex path from the root to a vertex
    on the reached level.
    """

    reach: int
    path: tuple[tuple[int, int], ...] | None


def max_open_reach(t: Triangulation, open_set: OpenSet) -> ReachResult:
    root = 0
    if not open_set.marks[root]:
        return ReachResult(0, None)
    adj = t.neighbors
    marks = open_set.marks
    n_marked = len(marks)
    parent = {root: None}
    queue = [root]
    best = root
    best_level = 0
    while queue:
        nxt = []
        for v in queue:
            for u in adj[v]:
                if u >= n_marked or u in parent or not marks[u]:
                    continue
                parent[u] = v
                lvl = t.vertex_at(u)[0]
                if lvl > best_level:
                    best_level = lvl
                    best = u
                nxt.append(u)
        queue = nxt
    path = []
    v: int | None = best
    while v is not None:
        path.append(v)
        v = parent[v]
    path.reverse()
    return ReachResult(best_level, tuple(t.vertex_at(f) for f in path))


@dataclass(frozen=True)
class ReachEstimate:
    beta: float
    levels: int
    trials: int
    reach_count: int

    @property
    def estimate(self) -> float:
        return self.reach_count / self.trials

    @property
    def stderr(self) -> float:
        p = self.estimate
        return math.sqrt(p * (1.0 - p) / self.trials)


def _root_cluster_reaches(
    out_degrees: Sequence[Sequence[int]],
    uniforms: np.ndarray,
    betas: Sequence[float],
    levels: int,
) -> list[bool]:
    """Per beta, whether the root's open cluster reaches level ``levels``.

    ``out_degrees`` lists levels 0..levels of a forest (one level past the
    horizon may follow) and ``uniforms`` holds one draw per vertex of those
    levels in flat order; vertex v is open iff its uniform is below
    tanh(beta * d_v), as in ``open_set_from_uniforms``.

    With S the out-degree prefix sums of level n, (n, p) is joined to its
    horizontal pair, to the fan S_p..S_{p+1} (mod k_{n+1}) above and to the
    lower vertices whose fan covers p; position 0 also collects the trailing
    fans that end on S = k_n.  Its degree is up + down + 2 = d_p + a_p + 4,
    with a_p the fan starts arriving at p, and d_0 + 3 at the root.
    """
    sizes = [len(d) for d in out_degrees[: levels + 1]]
    offsets = list(accumulate(sizes, initial=0))
    starts: dict[int, list[int]] = {}
    degrees: dict[int, np.ndarray] = {}

    def fan_starts(n: int) -> list[int]:
        if n not in starts:
            starts[n] = list(accumulate(out_degrees[n], initial=0))
        return starts[n]

    def degree(n: int) -> np.ndarray:
        if n not in degrees:
            up = np.array(out_degrees[n])
            if n == 0:
                degrees[n] = up + 3
            else:
                arriving = np.array(fan_starts(n - 1)[:-1]) % sizes[n]
                degrees[n] = up + np.bincount(arriving, minlength=sizes[n]) + 4
        return degrees[n]

    verdicts = []
    for beta in betas:
        open_at: dict[int, list[bool]] = {}

        def is_open(n: int, p: int) -> bool:
            if n not in open_at:
                u = uniforms[offsets[n] : offsets[n + 1]]
                open_at[n] = (u < np.tanh(beta * degree(n))).tolist()
            return open_at[n][p]

        verdicts.append(_search(levels, sizes, fan_starts, is_open))
    return verdicts


def _search(levels, sizes, fan_starts, is_open) -> bool:
    """Depth-first search of the root's open cluster, up-fans popped first."""
    if not is_open(0, 0) or levels == 0:
        return levels == 0
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        for v in _neighbours(*stack.pop(), sizes, fan_starts):
            if v not in seen:
                seen.add(v)
                if is_open(*v):
                    if v[0] == levels:
                        return True
                    stack.append(v)
    return False


def _neighbours(n: int, p: int, sizes, fan_starts) -> list[tuple[int, int]]:
    """(level, pos) neighbours of (n, p) below the top level, read from the
    fan starts: horizontal pair, lower fans covering p, then the up fan.
    Parallel edges may repeat a neighbour."""
    k = sizes[n]
    nbrs = [(n, (p - 1) % k), (n, (p + 1) % k)] if k > 1 else []
    if n > 0:
        s = fan_starts(n - 1)
        lo = max(bisect_left(s, p) - 1, 0)
        hi = min(bisect_right(s, p), len(s) - 1)
        nbrs.extend((n - 1, i) for i in range(lo, hi))
        if p == 0:  # fans ending on S = k_n wrap onto position 0
            nbrs.extend((n - 1, i) for i in range(bisect_left(s, k) - 1, len(s) - 1))
    s = fan_starts(n)
    k_up = sizes[n + 1]
    nbrs.extend((n + 1, q % k_up) for q in range(s[p], s[p + 1] + 1))
    return nbrs


def reach_hits(
    levels: int, betas: Sequence[float], seed: int, start: int, count: int
) -> list[int]:
    """Per beta, how many of the trials start..start+count-1 reach ``levels``.

    Trial i draws everything from ``stream(seed, i)``: a forest one level
    past the horizon (so all marked degrees are defined), then one
    ``rng.random`` batch with a uniform per marked vertex, in flat order.
    Every beta thresholds the same uniforms, so within a trial the reach
    indicator is monotone in beta, and the result does not depend on how
    trials are split into chunks.  The verdicts come from a lazy search of
    the out-degree lists that builds no ``Triangulation`` and equals
    ``max_open_reach(t, open_set_from_uniforms(t, beta, uniforms)).reach >=
    levels`` on ``t = forest_to_triangulation(forest)``.
    """
    for beta in betas:
        _checked_beta(beta)
    hits = [0] * len(betas)
    for i in range(start, start + count):
        rng = stream(seed, i)
        forest = sample_spine_forest(rng, levels + 1)
        uniforms = rng.random(sum(forest.level_sizes[:-1]))
        for j, hit in enumerate(_root_cluster_reaches(forest.out_degrees, uniforms, betas, levels)):
            hits[j] += hit
    return hits


def annealed_reach_probability(
    levels: int, beta: float, trials: int, seed: int
) -> ReachEstimate:
    """Fraction of trials whose root cluster reaches the target level.

    Each trial draws a fresh triangulation and fresh marks (see
    ``reach_hits``); trial RNG streams are keyed by the trial index.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    (hits,) = reach_hits(levels, [beta], seed, 0, trials)
    return ReachEstimate(float(beta), levels, trials, hits)


def annealed_reach_curve(
    levels: int, betas: list[float], trials: int, seed: int
) -> list[ReachEstimate]:
    """Reach estimates over a beta grid, coupled by shared uniforms per trial.

    Within one trial every beta sees the same triangulation and the same
    uniform draws, so the per-trial reach indicator is monotone in beta and
    the estimates are exactly nondecreasing.  Each estimate equals
    ``annealed_reach_probability`` at its beta.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    hits = reach_hits(levels, betas, seed, 0, trials)
    return [ReachEstimate(float(b), levels, trials, h) for b, h in zip(betas, hits)]


# -- locally geodesic paths ---------------------------------------------------


def _check_path(t: Triangulation, path) -> list[int]:
    adj = t.neighbors
    flat = [t.flat_index(lvl, pos) for lvl, pos in path]
    for a, b in zip(flat, flat[1:]):
        if b not in adj[a]:
            raise ValueError(f"consecutive path vertices {a} and {b} are not adjacent")
    return flat


def is_locally_geodesic(t: Triangulation, path) -> bool:
    """True iff every adjacency between two path vertices is a path step.

    The check is at vertex level: parallel edges between consecutive path
    vertices do not count as detours, and self-loops are ignored.
    """
    flat = _check_path(t, path)
    if len(set(flat)) != len(flat):
        return False
    adj = t.neighbors
    index = {v: i for i, v in enumerate(flat)}
    for i, v in enumerate(flat):
        for u in adj[v]:
            j = index.get(u)
            if j is not None and abs(i - j) != 1:
                return False
    return True


def shortcut_to_locally_geodesic(t: Triangulation, path) -> list[tuple[int, int]]:
    """Shorten a self-avoiding path along chords until it is locally geodesic.

    Every vertex of the output lay on the input path, so openness of the
    input vertices carries over; the output is never longer.
    """
    adj = t.neighbors
    flat = _check_path(t, path)
    changed = True
    while changed:
        changed = False
        index = {v: i for i, v in enumerate(flat)}
        for i, v in enumerate(flat):
            best = None
            for u in adj[v]:
                j = index.get(u)
                if j is not None and j > i + 1 and (best is None or j > best):
                    best = j
            if best is not None:
                flat = flat[: i + 1] + flat[best:]
                changed = True
                break
    return [t.vertex_at(f) for f in flat]


MAX_PATH_LENGTH = 12


def count_salg_paths(t: Triangulation, length: int) -> int:
    """Number of self-avoiding locally geodesic paths of the given edge count
    starting at the root (vertex paths; parallel edges do not multiply)."""
    if length < 0:
        raise ValueError("path length must be >= 0")
    if length > MAX_PATH_LENGTH:
        raise ValueError(f"exhaustive search capped at length {MAX_PATH_LENGTH}")
    adj = t.neighbors
    root = 0
    count = 0
    # a prefix of a locally geodesic path is locally geodesic, so prefixes
    # violating the chord condition are pruned outright
    stack: list[tuple[list[int], set[int]]] = [([root], {root})]
    while stack:
        path, members = stack.pop()
        if len(path) - 1 == length:
            count += 1
            continue
        last = path[-1]
        for u in adj[last]:
            if u in members:
                continue
            if any(w in adj[u] for w in path[:-1]):
                continue  # chord to a non-consecutive path vertex
            stack.append((path + [u], members | {u}))
    return count
