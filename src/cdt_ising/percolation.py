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
walk ``Triangulation.neighbors``, read with one ``tolist()`` per call.

All annealed estimators run their trials through ``reach_hits``, which never
builds a triangulation.  Its trials come from ``branching._spine_passes``,
the trial driver that ``sample`` and ``stats`` read too: a trial's forest
comes from one row of uniforms, grown from the trial's key when the forest
outgrows it, and its marks read on from the forest's end, past the row from
the same key.  A trial whose root is open at some beta builds flat tables
of the forest (first children, parents, arriving fan starts, degrees) and
one rank per vertex, the number of betas that close it, and runs one search
that answers every beta and stops at the first vertex it meets on the
target level.  The draws are those of the full build: the depth-(levels+1)
forest first, then one uniform per marked vertex in flat order, so each
trial's verdict equals ``max_open_reach`` on ``forest_to_triangulation`` of
the same forest with the same uniforms.

The search reads neighbours lazily (``_neighbours``), not from the edge
arrays of a ``Triangulation``: it stops on the target level after a small
part of the graph.  A per-trial CSR of the same graph gave the same ranks at
54 -> 182 us per open-root trial at depth 10 and 90 -> 659 us at depth 30.

Every entry point that takes beta requires it finite and >= 0, as the Ising
code does (``ising._checked_beta``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .branching import _degrees, _spine_passes
from .ising import _checked_beta
from .rng import TrialKeys, _checked_int
from .triangulation import Triangulation


def open_probability(degree: int, beta: float) -> float:
    """tanh(beta * degree): the disagreement bound for a degree-d vertex."""
    degree = _checked_int(degree, "degree", 1)
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
    """Open set from pre-drawn uniforms, a float array (or a sequence of
    floats) with one per marked vertex; shared uniforms couple different
    betas."""
    _checked_beta(beta)
    degs = t.mark_degrees
    uniforms = np.asarray(uniforms)
    if uniforms.dtype.kind != "f" or uniforms.shape != degs.shape:
        raise ValueError("need one float uniform per marked vertex")
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
    marks = open_set.marks
    if not isinstance(marks, np.ndarray) or marks.dtype != bool or marks.shape != t.mark_degrees.shape:
        raise ValueError("need a bool array with one mark per vertex below the top level")
    root = 0
    if not marks[root]:
        return ReachResult(0, None)
    offsets, other = (x.tolist() for x in t.neighbors)
    n_marked = len(marks)
    parent = {root: None}
    queue = [root]
    best = root
    best_level = 0
    while queue:
        nxt = []
        for v in queue:
            for u in other[offsets[v] : offsets[v + 1]]:
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


MAX_EXACT_MARKS = 20


def exact_reach_probability(t: Triangulation, beta: float, level: int) -> float:
    """The probability that the root's open cluster reaches ``level``, under
    the marks of ``sample_open_set``: each vertex of levels 0..top-1 open
    with probability tanh(beta * d_v), independently.

    ``max_open_reach(t, open_set).reach >= level`` summed exactly over the
    open sets, as bitmasks of the marked vertices grown from the root: each
    branch decides the lowest undecided neighbour of the open cluster, open
    or closed, and ends once the cluster holds a vertex of ``level`` or has
    no undecided neighbour, so it fixes only the marks the cluster meets.
    ``level`` is one of the marked levels 0..top-1; level 0 is reached
    whether or not the root is open, as in ``max_open_reach``.  Capped at
    ``MAX_EXACT_MARKS`` marked vertices.
    """
    _checked_beta(beta)
    level = _checked_int(level, "level", 0)
    if level >= t.top_level:
        raise ValueError(f"level must be a marked level, 0..{t.top_level - 1}")
    p = np.tanh(beta * t.mark_degrees).tolist()
    n = len(p)
    if n > MAX_EXACT_MARKS:
        raise ValueError(f"exact reach is capped at {MAX_EXACT_MARKS} marked vertices, got {n}")
    if level == 0:
        return 1.0
    offsets, other = (x.tolist() for x in t.neighbors)
    nbrs = [sum(1 << u for u in other[offsets[v]:offsets[v + 1]] if u < n) for v in range(n)]
    target = (1 << n) - (1 << t.level_offsets[level])  # the marked vertices of levels >= level
    wins = []
    pending = [(nbrs[0] & ~1, 1, p[0])]  # (undecided frontier, decided, weight), root open
    while pending:
        frontier, decided, w = pending.pop()
        if not frontier:
            continue
        bit = frontier & -frontier
        v = bit.bit_length() - 1
        decided |= bit
        pending.append((frontier ^ bit, decided, w * (1.0 - p[v])))
        if bit & target:
            wins.append(w * p[v])
        else:
            pending.append(((frontier | nbrs[v]) & ~decided, decided, w * p[v]))
    return math.fsum(wins)


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


def _fan_tables(degrees: np.ndarray):
    """Flat tables of the triangulation of the forest whose flat (level, then
    planar) out-degrees of levels 0..H-1 are ``degrees``.

    Returns (off, first, parent, arriving, deg): the H + 2 level starts;
    memoryviews of the first-child indices (1 + out-degree prefix sums), of
    ``parent[f - 1]``, the parent of f, and of the fan starts arriving at
    each vertex; and the degrees d + a + 4, d + 3 at the root, of the full
    build.  Fan starts and ends on the start of level n+2 wrap onto level
    n+1's.
    """
    n = len(degrees)
    first = np.concatenate(([1], degrees)).cumsum()
    view = memoryview(first)
    off = [0]
    while off[-1] < n:
        off.append(view[off[-1]])
    off.append(view[n])
    starts = np.array(off)
    # the trailing zero-child vertices of level m start their fans on the
    # start of level m+2, which wraps onto the start of level m+1
    arriving = np.bincount(first[:n], minlength=off[-1] + 1)
    trailing = starts[1:-1] - first.searchsorted(starts[2:])
    arriving[starts[1:-1]] += trailing
    arriving[starts[2:]] -= trailing
    arriving = arriving[:n]
    deg = degrees + arriving + 4
    deg[0] -= 1
    parent = np.arange(n).repeat(degrees)
    return off, view, memoryview(parent), memoryview(arriving), deg


def _neighbours(f: int, off, first, parent, arriving) -> list[int]:
    """Flat neighbours of f below the top level of ``_fan_tables``: the
    horizontal pair; the arriving[f] + 1 lower vertices ending at its
    parent, cyclically; then the up fan.  Parallel edges may repeat one."""
    n = bisect_right(off, f) - 1
    lo, hi = off[n], off[n + 1]
    nbrs = [f - 1 if f > lo else hi - 1, f + 1 if f + 1 < hi else lo] if hi - lo > 1 else []
    if n:
        g = parent[f - 1]
        j = g - arriving[f]
        if j < off[n - 1]:  # position 0 also meets the fans that wrap onto it
            nbrs.extend(range(j + lo - off[n - 1], lo))
            j = off[n - 1]
        nbrs.extend(range(j, g + 1))
    s, e = first[f], first[f + 1]
    nbrs.extend(range(s, e))
    nbrs.append(e if e < off[n + 2] else hi)
    return nbrs


def _reach_rank(degrees: np.ndarray, uniforms: np.ndarray, betas: np.ndarray, levels: int) -> int:
    """The least j at which the root's open cluster reaches ``levels`` at
    the ascending betas[j]; len(betas) if at none.

    ``degrees`` are flat out-degrees of levels 0..levels or more, with one
    uniform per vertex.  As in ``open_set_from_uniforms``, v is open iff its
    uniform is below tanh(beta * d_v), i.e. at betas[j] iff j >= its rank,
    the count of betas closing it.  A depth-first search, up fans popped
    first, takes vertices by bottleneck rank, least first; the first vertex
    it meets on the level has the least bottleneck.
    """
    m = len(betas)
    if levels == 0:
        return 0
    off, first, parent, arriving, deg = _fan_tables(degrees)
    closed = uniforms >= np.tanh(np.multiply.outer(betas, deg))
    rank = memoryview(closed.sum(axis=0, dtype=np.min_scalar_type(m)))  # m once seen
    if rank[0] == m:
        return m  # the root is closed at every beta
    top = off[levels]
    buckets: list[list[int]] = [[] for _ in range(m)]
    buckets[rank[0]].append(0)
    rank[0] = m
    for c in range(m):
        stack = buckets[c]
        while stack:
            f = stack.pop()
            if f >= top:
                return c
            for w in _neighbours(f, off, first, parent, arriving):
                r = rank[w]
                if r < m:
                    rank[w] = m
                    if r > c:
                        buckets[r].append(w)
                    elif w >= top:
                        return c
                    else:
                        stack.append(w)
    return m


def _checked_betas(betas) -> list[float]:
    """``betas`` read once as a list: non-empty, each a valid beta."""
    try:
        betas = list(betas)
    except TypeError as exc:
        raise ValueError(f"betas must be an iterable of numbers: {exc}") from None
    if not betas:
        raise ValueError("need at least one beta")
    for beta in betas:
        _checked_beta(beta)
    return betas


def reach_hits(
    levels: int, betas: Sequence[float], seed: int, start: int, count: int
) -> list[int]:
    """Per beta, how many of the trials start..start+count-1 reach ``levels``.

    Trial i draws everything from ``stream(seed, i)``: a forest one level
    past the horizon (so all marked degrees are defined), then a uniform
    per marked vertex in flat order.  Every beta thresholds the same
    uniforms, so within a trial the reach indicator is monotone in beta,
    and the result does not depend on how trials are split into chunks.
    One search of flat tables built from the draws answers every beta
    (``_reach_rank``); it builds no ``Triangulation`` and equals
    ``max_open_reach(t, open_set_from_uniforms(t, beta, uniforms)).reach
    >= levels`` on ``t = forest_to_triangulation(forest)``.

    Trials come from ``branching._spine_passes``, the trial driver that
    the level-size histograms of ``sample`` and ``stats`` also read, each
    stream re-keyed from one ``TrialKeys``.  Per pass, one test finds the
    trials whose root is closed at every beta; the rest extract their
    degrees and search, their marks read on from the end of the forest in
    the trial's row and then from its Philox key past the row.
    """
    levels = _checked_int(levels, "levels", 0)
    seed = _checked_int(seed, "seed", 0)
    start = _checked_int(start, "start", 0)
    count = _checked_int(count, "count", 0)
    betas = _checked_betas(betas)
    if levels == 0:  # the root is on level 0, open or not
        return [count] * len(betas)
    order = sorted(range(len(betas)), key=betas.__getitem__)
    ascending = np.array([betas[j] for j in order], dtype=float)
    keys = TrialKeys(seed)
    m = len(betas)
    per_rank = [0] * (m + 1)
    for walks in _spine_passes(keys, range(start, start + count), levels + 1):
        # the root's mark is the first double past its forest; its degree is
        # its child count + 3
        root_u, root_k = [], []
        for sizes, _, key, u, _, _, end in walks:
            root_u.append(u[end] if end < len(u) else keys.keyed(key, end).random())
            root_k.append(sizes[1])
        root_open = np.array(root_u) < np.tanh(ascending[-1] * (np.array(root_k) + 3))
        for (sizes, spine, key, u, g, c, end), is_open in zip(walks, root_open.tolist()):
            if not is_open:
                per_rank[m] += 1
                continue
            n = sum(sizes[:-1])  # one mark per vertex of levels 0..levels
            marks = u[end : end + n]
            if end + n > len(u):
                marks = np.concatenate((marks, keys.keyed(key, len(u)).random(end + n - len(u))))
            per_rank[_reach_rank(_degrees(g, c, sizes, spine), marks, ascending, levels)] += 1
    hits = [0] * len(betas)
    for j, h in zip(order, accumulate(per_rank)):
        hits[j] = h
    return hits


def annealed_reach_probability(
    levels: int, beta: float, trials: int, seed: int
) -> ReachEstimate:
    """Fraction of trials whose root cluster reaches the target level.

    Each trial draws a fresh triangulation and fresh marks (see
    ``reach_hits``); trial RNG streams are keyed by the trial index.
    """
    levels, trials = _checked_int(levels, "levels", 0), _checked_int(trials, "trials", 1)
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
    levels, trials = _checked_int(levels, "levels", 0), _checked_int(trials, "trials", 1)
    betas = _checked_betas(betas)
    hits = reach_hits(levels, betas, seed, 0, trials)
    return [ReachEstimate(float(b), levels, trials, h) for b, h in zip(betas, hits)]


# -- locally geodesic paths ---------------------------------------------------


def _check_path(t: Triangulation, path, offsets: list[int], other: list[int]) -> list[int]:
    flat = [t.flat_index(lvl, pos) for lvl, pos in path]
    for a, b in zip(flat, flat[1:]):
        if b not in other[offsets[a] : offsets[a + 1]]:
            raise ValueError(f"consecutive path vertices {a} and {b} are not adjacent")
    return flat


def is_locally_geodesic(t: Triangulation, path) -> bool:
    """True iff every adjacency between two path vertices is a path step.

    The check is at vertex level: parallel edges between consecutive path
    vertices do not count as detours, and self-loops are ignored.
    """
    offsets, other = (x.tolist() for x in t.neighbors)
    flat = _check_path(t, path, offsets, other)
    if len(set(flat)) != len(flat):
        return False
    index = {v: i for i, v in enumerate(flat)}
    for i, v in enumerate(flat):
        for u in other[offsets[v] : offsets[v + 1]]:
            j = index.get(u)
            if j is not None and abs(i - j) != 1:
                return False
    return True


def shortcut_to_locally_geodesic(t: Triangulation, path) -> list[tuple[int, int]]:
    """Shorten a self-avoiding path along chords until it is locally geodesic.

    Every vertex of the output lay on the input path, so openness of the
    input vertices carries over; the output is never longer.
    """
    offsets, other = (x.tolist() for x in t.neighbors)
    flat = _check_path(t, path, offsets, other)
    changed = True
    while changed:
        changed = False
        index = {v: i for i, v in enumerate(flat)}
        for i, v in enumerate(flat):
            best = None
            for u in other[offsets[v] : offsets[v + 1]]:
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
    length = _checked_int(length, "length", 0)
    if length > MAX_PATH_LENGTH:
        raise ValueError(f"exhaustive search capped at length {MAX_PATH_LENGTH}")
    offsets, other = (x.tolist() for x in t.neighbors)
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
        for u in other[offsets[last] : offsets[last + 1]]:
            if u in members:
                continue
            if any(w in other[offsets[u] : offsets[u + 1]] for w in path[:-1]):
                continue  # chord to a non-consecutive path vertex
            stack.append((path + [u], members | {u}))
    return count
