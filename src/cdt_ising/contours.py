"""Winding contours in the dual graph, the contour series, and spin inversion.

A contour is a simple cycle of triangles (dual vertices) that winds exactly
once around the cylinder; it separates the root from the top level.  Winding
numbers are exact integers: each strip has one wrap-around dual edge, across
its diagonal j_n, the first entry of its anchor's fan, crossing the seam (the
chain of anchor fan starts from the root), and the winding of a cycle is the
signed count of such crossings.

Every dual edge crosses one primal edge and is named by that edge's index in
``Triangulation.edges``, so a contour of length n lists the n primal edges
it crosses; removing them disconnects the root from the top boundary, and
inverting all spins on the root side changes the energy by +-2n depending on
whether the crossed edges agree or disagree.

The search runs one depth-first search per strip over the triangles'
adjacency (``Triangulation.dual``), from the triangle after the strip's wrap
edge to the one before it, and backtracks in place.  Each strip's search
forces its own wrap edge and leaves out the wrap edges of the strips before
it, so a contour is met once, in the search of the lowest strip whose wrap
edge it uses.  It cuts a branch once the path so far, plus the BFS distance
from the branch to the strip's goal, plus the closing wrap edge, exceeds the
length cap.  The distance is a lower bound on what any completion needs, so
the pruned search finds every contour, in the order of the unpruned one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .ising import SpinState, _checked_beta, _checked_pm1, boundary_vector
from .rng import _checked_int
from .triangulation import ForestLike, Triangulation, _as_forest

MAX_EXHAUSTIVE_TRIANGLES = 40
MAX_BOUNDED_LENGTH = 14


@dataclass(frozen=True)
class Contour:
    """A simple dual cycle with winding number +1, in canonical rotation.

    ``triangles`` are triangle numbers (rows of ``Triangulation.dual``);
    ``crossed[i]`` is the index in ``Triangulation.edges`` of the primal edge
    crossed on the step from ``triangles[i]`` to the next triangle.
    """

    triangles: tuple[int, ...]
    crossed: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.crossed)


@dataclass(frozen=True)
class ContourSet:
    contours: tuple[Contour, ...]

    @cached_property
    def counts(self) -> dict[int, int]:
        """Number of contours of each length, in increasing length."""
        return dict(sorted(Counter(c.length for c in self.contours).items()))


def _canonical_cycle(
    tris: list[int], edges: list[int], winding: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Orient so the winding is +1, then take the lexicographically minimal
    # rotation of the (triangle, edge) sequence.  A simple cycle's triangles
    # are distinct, so that rotation starts at the smallest triangle.
    if winding < 0:
        n = len(tris)
        tris = [tris[0]] + [tris[n - i] for i in range(1, n)]
        edges = list(reversed(edges))
    best = tris.index(min(tris))
    return tuple(tris[best:] + tris[:best]), tuple(edges[best:] + edges[:best])


def _distances(adjacency: list, goal: int) -> list[int]:
    """BFS edge counts to ``goal``; ``len(adjacency)`` marks the unreachable."""
    f = len(adjacency)
    dist = [f] * f
    dist[goal] = 0
    frontier = [goal]
    while frontier:
        nxt = []
        for v in frontier:
            for _, u, _ in adjacency[v]:
                if dist[u] == f:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def enumerate_contours(t: Triangulation, n_max: int | None = None) -> ContourSet:
    """All winding-one simple dual cycles, optionally capped at length ``n_max``.

    Exhaustive search (``n_max=None``) is guarded to small duals; bounded
    search is guarded to lengths <= 14, and ``n_max`` must be an integer >= 0.
    Every winding cycle uses at least one wrap-around strip edge, so the
    search runs one DFS per strip, forcing that strip's wrap edge and leaving
    out the wrap edges of the strips before it: a contour through an earlier
    wrap edge was found in that strip's search, so each contour is met once.
    A branch to a triangle at BFS distance d from the strip's goal (over the
    edges the search may use) is cut when the path, the step, those d edges
    and the closing wrap edge would exceed ``n_max``; d is a lower bound, so
    no contour is lost, and the contours come out in the order of the
    unpruned search.
    """
    f = t.triangle_count
    if n_max is None:
        if f > MAX_EXHAUSTIVE_TRIANGLES:
            raise ValueError(
                f"{f} triangles exceed the exhaustive-search cap {MAX_EXHAUSTIVE_TRIANGLES};"
                " pass n_max for a bounded search"
            )
        n_max = f
    else:
        n_max = _checked_int(n_max, "n_max", 0)
        if n_max > MAX_BOUNDED_LENGTH:
            raise ValueError(f"bounded search requires n_max <= {MAX_BOUNDED_LENGTH}")

    offsets, neighbour, crossed, seam = (x.tolist() for x in t.dual)
    entries = list(zip(crossed, neighbour, seam))
    # children in the reverse of the adjacency order, the order in which a
    # stack search that pushes every child pops them
    children = [entries[lo:hi][::-1] for lo, hi in zip(offsets, offsets[1:])]
    # per strip: the wrap edge crosses the seam from the goal to the start
    wraps = [(g, nbr, e) for g, row in enumerate(children) for e, nbr, step in row if step == 1]
    found: list[Contour] = []
    for goal, start, wrap_idx in wraps:
        # leave this strip's wrap edge out, here and in every later strip
        children[start] = [a for a in children[start] if a[0] != wrap_idx]
        children[goal] = [a for a in children[goal] if a[0] != wrap_idx]
        dist = _distances(children, goal)
        # DFS over simple paths start -> goal; closing with the wrap edge
        # (goal -> start) adds one positive seam crossing, so the cycle
        # winding is the path's seam sum plus one.  A path that repeats no
        # triangle repeats no edge either.
        path = [start]
        epath: list[int] = []
        on_path = [False] * f
        on_path[start] = True
        # per depth: (iterator over the node's children, seam sum so far)
        frames = [(iter(children[start]), 0)]
        while frames:
            branches, seam = frames[-1]
            for eidx, nbr, step in branches:
                if on_path[nbr] or len(epath) + 2 + dist[nbr] > n_max:
                    continue
                if nbr == goal:
                    # a simple cycle visits the goal once, right before closing
                    if abs(seam + step + 1) == 1:
                        found.append(Contour(*_canonical_cycle(
                            path + [goal], epath + [eidx, wrap_idx], seam + step + 1
                        )))
                    continue
                on_path[nbr] = True
                path.append(nbr)
                epath.append(eidx)
                frames.append((iter(children[nbr]), seam + step))
                break
            else:
                frames.pop()
                on_path[path.pop()] = False
                if epath:
                    epath.pop()
    return ContourSet(tuple(found))


@dataclass(frozen=True)
class ContourSeries:
    """Partial sums of sum_n #C_n * exp(-2*beta*n)."""

    beta: float
    rows: tuple[tuple[int, int, float], ...]  # (length, count, partial sum)
    tail_below_one_from: int | None

    @property
    def total(self) -> float:
        return self.rows[-1][2] if self.rows else 0.0


def peierls_series(counts: Mapping[int, int], beta: float) -> ContourSeries:
    """Accumulate the contour series and locate where its tail drops below 1.

    ``tail_below_one_from`` is the smallest length L such that the tail sum
    over lengths >= L is < 1 (the uniqueness-breaking trigger); L is 0 when
    even the full sum is below 1.  beta must be finite and >= 0, lengths
    integers >= 1 and counts integers >= 0.
    """
    _checked_beta(beta)
    items = sorted(
        (_checked_int(n, "contour lengths", 1), _checked_int(c, "contour counts", 0))
        for n, c in counts.items()
    )
    rows = []
    acc = 0.0
    for n, c in items:
        acc += c * math.exp(-2.0 * beta * n)
        rows.append((n, c, float(acc)))
    total = acc
    tail_from: int | None = None
    prefix = 0.0
    if total < 1.0:
        tail_from = 0
    else:
        for n, c, partial in rows:
            if total - prefix < 1.0:
                tail_from = n
                break
            prefix = partial
        else:
            tail_from = items[-1][0] + 1 if items else 0
    return ContourSeries(float(beta), tuple(rows), tail_from)


def _root_side_tables(t: Triangulation) -> tuple[list, list[tuple[int, int]]]:
    """Per flat vertex id, its (edge index, other endpoint) pairs in
    ``primal_adjacency`` order, and its (level, pos).  Built on a
    triangulation's first contour flip and kept in its ``__dict__``."""
    tables = t.__dict__.get("_root_side_tables")
    if tables is None:
        offsets, other, edge = (x.tolist() for x in t.primal_adjacency)
        pairs = list(zip(edge, other))
        rows = [pairs[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
        where = [(n, p) for n, k in enumerate(t.level_sizes) for p in range(k)]
        tables = t.__dict__["_root_side_tables"] = rows, where
    return tables


def _root_side(t: Triangulation, contour: Contour) -> set[int]:
    """Flat ids of the root's component once the crossed edges are deleted."""
    removed = set(contour.crossed)
    rows, _ = _root_side_tables(t)
    seen = {0}  # the root, flat id 0
    stack = [0]
    while stack:
        for e, u in rows[stack.pop()]:
            if e in removed or u in seen:
                continue
            seen.add(u)
            stack.append(u)
    return seen


def below_vertices(t: Triangulation, contour: Contour) -> set[tuple[int, int]]:
    """Vertices on the root side of the contour.

    Computed as the connected component of the root after deleting the
    crossed primal edges; a winding contour leaves the top level entirely on
    the other side.
    """
    where = _root_side_tables(t)[1]
    return {where[v] for v in _root_side(t, contour)}


def flip_inside(t: Triangulation, state: SpinState, contour: Contour) -> SpinState:
    """Invert all spins on the root side of the contour; an involution.

    The state's spins must be +-1, one per free vertex of t, and its
    boundary and beta are read as ``glauber_sweep`` reads them: the boundary
    through ``boundary_vector`` (the result holds a copy), beta as a finite
    number >= 0.  Raises if the contour fails to separate the root from the
    boundary (it always does for winding-one contours).
    """
    n_free = t.level_offsets[t.top_level]
    spins = np.frombuffer(bytearray(_checked_pm1(state.spins, n_free, "free")), np.int8)
    boundary, beta = boundary_vector(t, state.boundary), _checked_beta(state.beta)
    below = _root_side(t, contour)
    if max(below) >= n_free:  # a top-level vertex
        raise ValueError("contour does not separate the root from the boundary")
    spins[list(below)] *= -1
    return SpinState(spins, boundary, beta)


def survivors_statistic(forest: ForestLike, r_level: int, n: int) -> int:
    """Number of level (r_level - n) vertices with a descendant at level (r_level + n).

    The forest is read as the codec reads one: a ``LevelForest``, a
    ``SpineForest`` or per-level out-degree lists.
    """
    forest = _as_forest(forest)
    n = _checked_int(n, "n", 0)
    r_level = _checked_int(r_level, "r_level", n)  # the window starts at level 0 or above
    lo, hi = r_level - n, r_level + n
    if hi > forest.levels:
        raise ValueError(f"forest must extend to level {hi}")
    sizes = forest.level_sizes
    alive = [True] * sizes[hi]
    for level in range(hi - 1, lo - 1, -1):
        degs = forest.out_degrees[level]
        nxt = []
        start = 0
        for d in degs:
            nxt.append(any(alive[start : start + d]))
            start += d
        alive = nxt
    return sum(alive)
