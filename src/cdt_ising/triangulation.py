"""Lorentzian triangulations of a finite cylinder and their tree codec.

A triangulation of S^1 x [0, N] has k_n >= 1 vertices on level n (cyclically
ordered, with k_0 = 1 and a single horizontal self-loop at level 0).  Every
triangle lives in one strip [n, n+1] and has exactly one horizontal edge, so
each strip holds k_n + k_{n+1} triangles.

Encoding.  For each vertex i at level n the tuple ``fans[n][i]`` lists the
level-(n+1) endpoints of its upward edges in planar order.  The first entry
is the *fan-start* (closing) edge at position S_i; the remaining entries are
the children S_i+1, ..., S_{i+1}, where S is the running sum of out-degrees.
Consequently the parent of an upper vertex (its leftmost downward edge) is
the unique lower vertex holding it as a child, and it comes first in the
ordered down-slot list.  The fan-start targets of position-0 vertices form a
root-to-top chain that anchors the cyclic order of every level; decoding a
triangulation back to out-degree lists follows that chain, which makes the
forest <-> triangulation maps mutually inverse.

Multigraph corner cases are real and intended: a level with a single vertex
has a horizontal self-loop, and a strip over a single vertex produces a pair
of parallel diagonal edges.

The derived graph tables live on the instance, each built once in one pass
over ``fans`` and cached.  They address vertices by flat id (``flat_index``,
inverted by ``vertex_at``): ``degree_split`` (up/down edge counts),
``neighbors`` (distinct neighbours), ``free_graph`` (interior and boundary
edges of levels 0..top-1, where Ising spins and percolation marks live),
``mark_degrees`` (total degrees there) and ``primal_adjacency`` (edge keys).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Union

import numpy as np

from .branching import LevelForest, SpineForest, offspring_pmf

MU_CRITICAL = math.log(2.0)

# Primal edge keys: ("h", level, c) is the horizontal edge from position c to
# c+1 (mod k) on that level; ("d", strip, f) is the f-th diagonal (fan) edge
# of the strip in planar order.
PrimalKey = tuple[str, int, int]
TriRef = tuple[int, int]  # (strip, index within strip)


@dataclass(frozen=True)
class VertexDegree:
    """Degree split of a vertex; ``total = up + down + 2`` for internal vertices.

    Boundary vertices (level 0 or the top level) miss one side, and their
    total is undefined here.  The horizontal term is always 2: a self-loop on
    a one-vertex level contributes both sides.
    """

    up: int | None
    down: int | None
    total: int | None
    boundary: bool


@dataclass(frozen=True)
class FreeGraph:
    """Edges of the free vertices: levels 0..top-1, flat ids 0..n_free-1.

    Edges among free vertices are interior (self-loops only counted);
    diagonal edges into the top level are boundary edges, and horizontal
    edges inside the top level are left out: the edges of the Ising
    Hamiltonian under a frozen top level.
    """

    n_free: int
    ia: np.ndarray  # interior non-loop edges, flat free indices
    ib: np.ndarray
    n_loops: int
    bv: np.ndarray  # boundary edges: free endpoint
    bpos: np.ndarray  # boundary edges: top-level position
    neighbors: tuple[tuple[int, ...], ...]  # per free vertex, free neighbors with multiplicity
    bc_slots: tuple[tuple[int, ...], ...]  # per free vertex, boundary positions with multiplicity


@dataclass(frozen=True)
class Triangle:
    strip: int
    index: int
    kind: str  # "up": horizontal edge below, apex above; "down": the reverse
    vertices: tuple[tuple[int, int], ...]
    horizontal: PrimalKey


@dataclass(frozen=True)
class DualEdge:
    """Adjacency of two triangles across ``primal``.

    ``seam_step`` is +1 when traversing a -> b crosses the anchored vertical
    seam in the positive direction (these are exactly the wrap-around strip
    edges); winding numbers of dual cycles are the exact integer sums of
    these steps.
    """

    a: TriRef
    b: TriRef
    primal: PrimalKey
    seam_step: int


@dataclass(frozen=True)
class DualGraph:
    vertices: tuple[TriRef, ...]
    edges: tuple[DualEdge, ...]
    strip_sizes: tuple[int, ...]

    @cached_property
    def adjacency(self) -> dict[TriRef, tuple[tuple[int, TriRef, int], ...]]:
        """Per triangle: (edge index, neighbor, seam step when leaving this side)."""
        adj: dict[TriRef, list[tuple[int, TriRef, int]]] = {v: [] for v in self.vertices}
        for idx, e in enumerate(self.edges):
            adj[e.a].append((idx, e.b, e.seam_step))
            adj[e.b].append((idx, e.a, -e.seam_step))
        return {v: tuple(lst) for v, lst in adj.items()}

    def degree(self, tri: TriRef) -> int:
        return len(self.adjacency[tri])

    def angular_position(self, tri: TriRef) -> float:
        """Winding coordinate of a triangle around its strip, in [0, 2*pi)."""
        strip, t = tri
        return 2.0 * math.pi * (t + 0.5) / self.strip_sizes[strip]


class Triangulation:
    """Immutable rooted Lorentzian triangulation of S^1 x [0, N].

    The root vertex is (0, 0) and the root edge is the level-0 self-loop
    ("h", 0, 0).  Equality is structural on the stored fans; use
    ``canonical_key`` to compare up to cyclic relabeling of levels.
    """

    __slots__ = ("level_sizes", "fans", "__dict__")

    def __init__(
        self,
        level_sizes: Sequence[int],
        fans: Sequence[Sequence[Sequence[int]]],
    ) -> None:
        self.level_sizes: tuple[int, ...] = tuple(int(k) for k in level_sizes)
        self.fans: tuple[tuple[tuple[int, ...], ...], ...] = tuple(
            tuple(tuple(map(int, fan)) for fan in strip) for strip in fans
        )
        self._validate()

    def _validate(self) -> None:
        if not self.level_sizes or any(k < 1 for k in self.level_sizes):
            raise ValueError("every level must hold at least one vertex")
        if self.level_sizes[0] != 1:
            raise ValueError("level 0 must hold exactly one vertex")
        if len(self.fans) != self.top_level:
            raise ValueError("need one fan table per strip")
        for n, strip in enumerate(self.fans):
            k_bot, k_top = self.level_sizes[n], self.level_sizes[n + 1]
            if len(strip) != k_bot:
                raise ValueError(f"strip {n} needs {k_bot} fans")
            if sum(len(f) - 1 for f in strip) != k_top:
                raise ValueError(f"strip {n} out-degrees must sum to {k_top}")
            for i, fan in enumerate(strip):
                if not fan:
                    raise ValueError("every vertex has at least its fan-start edge")
                s = fan[0]
                # a fan inside 0..k_top-1 is contiguous iff it is its own range;
                # anything else (wrapping or malformed) takes the modular check
                if not (0 <= s and s + len(fan) <= k_top and fan == tuple(range(s, s + len(fan)))):
                    for a, b in zip(fan, fan[1:]):
                        if (a + 1) % k_top != b:
                            raise ValueError(f"fan of vertex ({n},{i}) is not contiguous")
                nxt = strip[(i + 1) % k_bot]
                if fan[-1] != nxt[0]:
                    raise ValueError(f"fans of strip {n} do not tile the upper level")

    # -- basic queries ---------------------------------------------------

    @property
    def top_level(self) -> int:
        return len(self.level_sizes) - 1

    @cached_property
    def triangle_count(self) -> int:
        """Total number of triangles F."""
        return sum(
            self.level_sizes[n] + self.level_sizes[n + 1] for n in range(self.top_level)
        )

    @property
    def vertex_count(self) -> int:
        return sum(self.level_sizes)

    @cached_property
    def level_offsets(self) -> tuple[int, ...]:
        offs = [0]
        for k in self.level_sizes:
            offs.append(offs[-1] + k)
        return tuple(offs)

    def flat_index(self, level: int, pos: int) -> int:
        self._check_vertex(level, pos)
        return self.level_offsets[level] + pos

    def out_degree(self, level: int, pos: int) -> int:
        return len(self.fans[level][pos]) - 1

    def vertex_at(self, flat: int) -> tuple[int, int]:
        """(level, pos) of a flat vertex id; the inverse of ``flat_index``."""
        level = bisect_right(self.level_offsets, flat) - 1
        return level, flat - self.level_offsets[level]

    def _check_vertex(self, level: int, pos: int) -> None:
        if not (0 <= level <= self.top_level and 0 <= pos < self.level_sizes[level]):
            raise ValueError(f"no vertex ({level}, {pos}) in levels {self.level_sizes}")

    def down_slots(self, level: int, pos: int) -> tuple[tuple[int, int], ...]:
        """Ordered downward edge slots of (level, pos); the parent comes first."""
        self._check_vertex(level, pos)
        if level < 1:
            raise ValueError("level-0 vertices have no downward edges")
        return tuple(_down_slot_entries(self.fans, self.level_sizes, level, pos))

    def parent(self, level: int, pos: int) -> int:
        """Lower endpoint of the leftmost downward edge of (level, pos)."""
        return self.down_slots(level, pos)[0][0]

    def vertex_degree(self, level: int, pos: int) -> VertexDegree:
        ups, downs = self.degree_split
        v = self.flat_index(level, pos)
        up = ups[v] if level < self.top_level else None
        down = downs[v] if level > 0 else None
        if up is None or down is None:
            return VertexDegree(up, down, None, True)
        return VertexDegree(up, down, up + down + 2, False)

    # -- derived graph tables ----------------------------------------------

    @cached_property
    def degree_split(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(up, down) edge counts per flat vertex id; a missing side counts 0.

        Up edges are the fan: its fan-start plus the children.  Down edges
        are the parent edge plus one edge per fan-start arriving from below.
        """
        offs = self.level_offsets
        up = [0] * self.vertex_count
        down = [0] + [1] * (self.vertex_count - 1)
        for n, strip in enumerate(self.fans):
            base, above = offs[n], offs[n + 1]
            for i, fan in enumerate(strip):
                up[base + i] = len(fan)
                down[above + fan[0]] += 1
        return tuple(up), tuple(down)

    def _edge_pairs(self) -> Iterator[tuple[int, int]]:
        """Flat endpoints of every edge in ``primal_edges`` order, loops included;
        a diagonal edge starts at its lower end."""
        offs = self.level_offsets
        for n, k in enumerate(self.level_sizes):
            for c in range(k):
                yield offs[n] + c, offs[n] + (c + 1) % k
        for n, strip in enumerate(self.fans):
            for i, fan in enumerate(strip):
                for q in fan:
                    yield offs[n] + i, offs[n + 1] + q

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per flat vertex id: its distinct neighbours in increasing order.

        Self-loops are dropped and parallel edges count once.
        """
        adj: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for a, b in self._edge_pairs():
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        return tuple(tuple(sorted(s)) for s in adj)

    @cached_property
    def free_graph(self) -> FreeGraph:
        n_free = self.level_offsets[self.top_level]
        ia: list[int] = []
        ib: list[int] = []
        loops = 0
        bv: list[int] = []
        bpos: list[int] = []
        nbrs: list[list[int]] = [[] for _ in range(n_free)]
        bslots: list[list[int]] = [[] for _ in range(n_free)]
        for a, b in self._edge_pairs():
            if a >= n_free:
                continue  # horizontal edges inside the boundary circle
            if b >= n_free:
                bv.append(a)
                bpos.append(b - n_free)
                bslots[a].append(b - n_free)
            elif a == b:
                loops += 1
            else:
                ia.append(a)
                ib.append(b)
                nbrs[a].append(b)
                nbrs[b].append(a)
        return FreeGraph(
            n_free,
            np.array(ia, dtype=np.int64),
            np.array(ib, dtype=np.int64),
            loops,
            np.array(bv, dtype=np.int64),
            np.array(bpos, dtype=np.int64),
            tuple(tuple(x) for x in nbrs),
            tuple(tuple(x) for x in bslots),
        )

    @cached_property
    def mark_degrees(self) -> np.ndarray:
        """Total degree up + down + 2 of every free vertex, in flat order.

        The free vertices are those of ``free_graph``; the root has no down
        edges, and its self-loop supplies the 2.
        """
        ups, downs = self.degree_split
        n_free = self.level_offsets[self.top_level]
        degs = np.add(ups[:n_free], downs[:n_free]) + 2
        degs.flags.writeable = False  # shared by every caller
        return degs

    # -- triangles, edges, dual graph -------------------------------------

    @cached_property
    def _strip_triangles(self) -> tuple[tuple[Triangle, ...], ...]:
        strips = []
        for n in range(self.top_level):
            k_top = self.level_sizes[n + 1]
            tris: list[Triangle] = []
            for i, fan in enumerate(self.fans[n]):
                for idx in range(len(fan) - 1):
                    c = fan[idx]
                    tris.append(
                        Triangle(
                            n,
                            len(tris),
                            "down",
                            ((n, i), (n + 1, c), (n + 1, (c + 1) % k_top)),
                            ("h", n + 1, c),
                        )
                    )
                j = (i + 1) % self.level_sizes[n]
                tris.append(
                    Triangle(
                        n,
                        len(tris),
                        "up",
                        ((n, i), (n, j), (n + 1, fan[-1])),
                        ("h", n, i),
                    )
                )
            strips.append(tuple(tris))
        return tuple(strips)

    def triangles(self, strip: int) -> tuple[Triangle, ...]:
        return self._strip_triangles[strip]

    def primal_edges(self) -> Iterator[PrimalKey]:
        """All edges: horizontals of every level, diagonals of every strip."""
        for n, k in enumerate(self.level_sizes):
            for c in range(k):
                yield ("h", n, c)
        for n, strip in enumerate(self.fans):
            for f in range(sum(len(fan) for fan in strip)):
                yield ("d", n, f)

    @cached_property
    def primal_adjacency(self) -> tuple[tuple[tuple[PrimalKey, int], ...], ...]:
        """Per flat vertex id: (edge key, other endpoint flat id), loops included."""
        adj: list[list[tuple[PrimalKey, int]]] = [[] for _ in range(self.vertex_count)]
        for key, (a, b) in zip(self.primal_edges(), self._edge_pairs()):
            adj[a].append((key, b))
            if b != a:
                adj[b].append((key, a))
        return tuple(tuple(x) for x in adj)

    @cached_property
    def dual(self) -> DualGraph:
        """Triangles with adjacency across shared edges (diagonal and horizontal)."""
        vertices: list[TriRef] = []
        edges: list[DualEdge] = []
        strip_sizes = []
        horiz_owner: dict[PrimalKey, TriRef] = {}
        for n in range(self.top_level):
            tris = self._strip_triangles[n]
            size = len(tris)
            strip_sizes.append(size)
            for t in range(size):
                vertices.append((n, t))
            for t in range(size):
                u = (t + 1) % size
                # the dual edge t -> t+1 crosses fan edge (t+1) mod size; the
                # wrap edge crosses fan edge 0, the seam edge of the strip
                edges.append(DualEdge((n, t), (n, u), ("d", n, u), 1 if u == 0 else 0))
            for t, tri in enumerate(tris):
                if tri.kind == "down":
                    horiz_owner[tri.horizontal] = (n, t)
        for n in range(1, self.top_level):
            for tri in self._strip_triangles[n]:
                if tri.kind == "up":
                    below = horiz_owner.get(tri.horizontal)
                    if below is not None:
                        edges.append(DualEdge(below, (n, tri.index), tri.horizontal, 0))
        return DualGraph(tuple(vertices), tuple(edges), tuple(strip_sizes))

    # -- canonical form ----------------------------------------------------

    @cached_property
    def canonical_key(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        forest = triangulation_to_forest(self)
        return (self.level_sizes, forest.out_degrees)

    def canonical(self) -> "Triangulation":
        return forest_to_triangulation(triangulation_to_forest(self))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triangulation):
            return NotImplemented
        return self.level_sizes == other.level_sizes and self.fans == other.fans

    def __hash__(self) -> int:
        return hash((self.level_sizes, self.fans))

    def __repr__(self) -> str:
        return f"Triangulation(levels={self.level_sizes})"


ForestLike = Union[LevelForest, SpineForest, Sequence[Sequence[int]]]


def _as_forest(forest: ForestLike) -> LevelForest:
    if isinstance(forest, SpineForest):
        return forest.to_forest()
    if isinstance(forest, LevelForest):
        return forest
    return LevelForest(tuple(tuple(int(d) for d in lst) for lst in forest))


def forest_to_triangulation(forest: ForestLike) -> Triangulation:
    """Rebuild the triangulation encoded by per-level out-degree lists.

    Vertex i at level n receives child edges to the block (S_i, S_{i+1}] and
    the fan-start edge to S_i, where S is the out-degree prefix sum.  The
    shift by one position relative to the forest's natural child blocks is
    what closes each strip into a triangulated annulus.
    """
    f = _as_forest(forest)
    sizes = f.level_sizes
    fans = []
    for n, degs in enumerate(f.out_degrees):
        k_top = sizes[n + 1]
        strip = []
        s = 0
        for d in degs:
            end = s + d + 1
            if end <= k_top:
                strip.append(tuple(range(s, end)))
            else:  # the last fans reach k_top, which wraps to 0
                strip.append(tuple(q % k_top for q in range(s, end)))
            s += d
        fans.append(tuple(strip))
    return Triangulation(sizes, tuple(fans))


def triangulation_to_forest(t: Triangulation) -> LevelForest:
    """Extract the spanning forest of leftmost downward edges as out-degree lists.

    Levels are read in the cyclic rotation anchored by the chain of fan-start
    targets from the root, so the output is a canonical normal form; for a
    triangulation built by ``forest_to_triangulation`` it returns exactly the
    input lists.
    """
    anchor = 0
    lists = []
    for n in range(t.top_level):
        k = t.level_sizes[n]
        order = [(anchor + i) % k for i in range(k)]
        lists.append(tuple(t.out_degree(n, i) for i in order))
        anchor = t.fans[n][anchor][0]
    return LevelForest(tuple(lists))


def rotate_level(t: Triangulation, level: int, shift: int) -> Triangulation:
    """Relabel positions q -> (q + shift) mod k at one level (same triangulation)."""
    if not 1 <= level <= t.top_level:
        raise ValueError("only levels above the root can be rotated")
    fans = list(t.fans)
    _rotate_fans(t.level_sizes, fans, level, shift)
    return Triangulation(t.level_sizes, fans)


def _rotate_fans(sizes: Sequence[int], fans: list, level: int, shift: int) -> None:
    """Rotate one level's labels by ``shift`` in a list of strips, in place.

    The strip below gets retargeted fans and the strip above (if any) its
    fans reordered; untouched fans are kept as they are, lists or tuples.
    """
    k = sizes[level]
    shift %= k
    if shift == 0:
        return
    fans[level - 1] = [[(q + shift) % k for q in fan] for fan in fans[level - 1]]
    if level < len(sizes) - 1:
        old = fans[level]
        fans[level] = [old[(i - shift) % k] for i in range(k)]


def _down_slot_entries(fans, sizes: Sequence[int], level: int, pos: int) -> list[tuple[int, int]]:
    """Ordered (lower vertex, fan entry index) slots of (level, pos): parent
    first, then fan-start arrivals in cyclic order after the parent.

    When the parent's fan wraps all the way round onto (level, pos), the
    parent's own fan-start edge is the last arrival, not the first.  Works on
    the tuples of a ``Triangulation`` and on thawed lists alike.
    """
    k_bot = sizes[level - 1]
    parent = None
    starts = []
    for i, fan in enumerate(fans[level - 1]):
        if fan[0] == pos:
            starts.append((i, 0))
        for idx in range(1, len(fan)):
            if fan[idx] == pos:
                parent = (i, idx)
    assert parent is not None  # blocks tile the level
    starts.sort(key=lambda s: (s[0] - parent[0]) % k_bot or k_bot)
    return [parent] + starts


# -- serialization ---------------------------------------------------------


def to_text(t: Triangulation) -> str:
    """Serialize canonically: header ``N k_0 ... k_N``, then one out-degree
    list per level."""
    forest = triangulation_to_forest(t)
    lines = [" ".join(map(str, (t.top_level, *t.level_sizes)))]
    for degs in forest.out_degrees:
        lines.append(" ".join(map(str, degs)))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Triangulation:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty triangulation text")
    header = [int(x) for x in lines[0].split()]
    n = header[0]
    sizes = tuple(header[1:])
    if len(sizes) != n + 1:
        raise ValueError("header level count does not match sizes")
    if len(lines) != 1 + n:
        raise ValueError("expected one out-degree line per level")
    degs = tuple(tuple(int(x) for x in ln.split()) for ln in lines[1:])
    t = forest_to_triangulation(degs)
    if t.level_sizes != sizes:
        raise ValueError("level sizes do not match out-degree lists")
    return t


# -- exhaustive enumeration --------------------------------------------------

MAX_ENUM_LEVELS = 3
MAX_ENUM_WIDTH = 5


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def enumerate_triangulations(
    levels: int, width_cap: int, mu: float = MU_CRITICAL
) -> list[tuple[Triangulation, float]]:
    """All rooted triangulations with the given level count and k_n <= width_cap,
    each paired with its unnormalized weight exp(-mu * F).

    Guarded against combinatorial explosion: levels <= 3, width_cap <= 5.
    Only mu >= ln 2 is meaningful for the cylinder ensemble.
    """
    if levels < 1 or levels > MAX_ENUM_LEVELS:
        raise ValueError(f"levels must be in 1..{MAX_ENUM_LEVELS}")
    if width_cap < 1 or width_cap > MAX_ENUM_WIDTH:
        raise ValueError(f"width_cap must be in 1..{MAX_ENUM_WIDTH}")
    if mu < MU_CRITICAL - 1e-12:
        raise ValueError("mu below ln 2 has no infinite-volume counterpart")

    results: list[tuple[Triangulation, float]] = []

    def extend(partial: list[tuple[int, ...]], k_cur: int, level: int) -> None:
        if level == levels:
            t = forest_to_triangulation(tuple(partial))
            results.append((t, math.exp(-mu * t.triangle_count)))
            return
        for k_next in range(1, width_cap + 1):
            for comp in _compositions(k_next, k_cur):
                partial.append(comp)
                extend(partial, k_next, level + 1)
                partial.pop()

    extend([], 1, 0)
    return results


def forest_weight_product(t: Triangulation) -> float:
    """Branching-process probability of the tree parametrization: the product
    of offspring probabilities over all vertices below the top level."""
    w = 1.0
    for n in range(t.top_level):
        for i in range(t.level_sizes[n]):
            w *= offspring_pmf(t.out_degree(n, i))
    return w
