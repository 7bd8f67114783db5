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
root-to-top chain that anchors the cyclic order of every level;
``canonical_key`` reads each level's out-degrees from its anchor on, straight
off the fans, which makes the forest <-> triangulation maps mutually inverse.

Multigraph corner cases are real and intended: a level with a single vertex
has a horizontal self-loop, and a strip over a single vertex produces a pair
of parallel diagonal edges.

Checks.  User input is checked once, at the public boundary: the
constructor reads every size and fan entry as an integer and runs
``_validate``, and ``LevelForest`` checks the lists ``forest_to_triangulation``
and ``from_text`` decode.  Fans the library builds from checked input are
trusted: every producer (the codec, ``enumerate_triangulations``,
``rotate_level`` and the surgery operations) builds its result through
``Triangulation._trusted``, which takes strips that are already tuples of
tuples and keeps them as they are, so results share strips.

The derived graph tables live on the instance, each built once and cached,
and address vertices by flat id (``flat_index``, inverted by ``vertex_at``).
``edges`` holds the endpoints of every edge, read off the fan lengths and each
strip's first fan start; every other table is a numpy reduction of it, and
names an edge by its index there.  ``degree_split`` and ``mark_degrees`` count
edge ends.  ``primal_adjacency``, ``neighbors``, ``dual`` and
``free_graph.neighbors`` are read-only CSR arrays: offsets, then columns whose
entries offsets[r]:offsets[r+1] form row r.  ``free_graph`` masks the edges of
levels 0..top-1, where spins and marks live.

The dual graph (``dual``) numbers the triangles strip by strip.  Strip n
holds k_n + k_{n+1} triangles and as many diagonals, so the two share one
numbering: with V the vertex count, triangle g lies between diagonal V + g
and its strip's next diagonal (cyclically).  Every dual edge crosses one
primal edge and is named by that edge's index; strip n's wrap edge crosses
the seam, the first entry of its anchor's fan (``_anchor_chain``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterator, Sequence, Union

import numpy as np

from .branching import LevelForest, SpineForest, offspring_pmf
from .rng import _checked_int, _checked_ints

MU_CRITICAL = math.log(2.0)

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


@dataclass(frozen=True, eq=False)
class FreeGraph:
    """Edges of the free vertices: levels 0..top-1, flat ids 0..n_free-1.

    Edges among free vertices are interior (self-loops only counted);
    diagonal edges into the top level are boundary edges, stored once as the
    parallel arrays ``bv``/``bpos`` (one entry per edge, so multiplicity is
    kept), and horizontal edges inside the top level are left out: the edges
    of the Ising Hamiltonian under a frozen top level.  Compared and hashed
    by identity: a triangulation builds its graph once.
    """

    n_free: int
    ia: np.ndarray  # interior non-loop edges, flat free indices
    ib: np.ndarray
    n_loops: int
    bv: np.ndarray  # boundary edges: free endpoint
    bpos: np.ndarray  # boundary edges: top-level position
    neighbors: tuple[np.ndarray, np.ndarray]  # CSR (offsets, other), with multiplicity
    # a proper colouring: the non-empty classes of (level parity, position
    # class), each in flat order, where the position class is p % 2 except
    # that the last vertex of an odd-size level gets a third one; edges join
    # levels n and n +- 1, or p and p +- 1 mod k on one level, so no class
    # holds an edge and there are at most 6
    colour_classes: tuple[tuple[int, ...], ...]
    # max over free v of its neighbour count + its boundary edges: a bound on
    # |field_v + sum of its neighbors' spins| under every boundary condition
    max_degree: int
    # ising's sweep of this graph (ising._Sweep), built on its first sweep
    sweep_memo: dict = field(default_factory=dict, repr=False)

    def __getstate__(self) -> dict:
        # a compiled sweep cannot be pickled; an unpickled graph rebuilds it
        return {**self.__dict__, "sweep_memo": {}}


class Triangulation:
    """Immutable rooted Lorentzian triangulation of S^1 x [0, N].

    The root vertex is (0, 0) and the root edge is the level-0 self-loop,
    edge 0.  Equality is structural on the stored fans; use
    ``canonical_key`` to compare up to cyclic relabeling of levels.
    """

    __slots__ = ("level_sizes", "fans", "__dict__")

    def __init__(
        self,
        level_sizes: Sequence[int],
        fans: Sequence[Sequence[Sequence[int]]],
    ) -> None:
        what = "level sizes and fans"
        self.level_sizes: tuple[int, ...] = _checked_ints(level_sizes, what)
        self.fans: tuple[tuple[tuple[int, ...], ...], ...] = _checked_ints(fans, what, 3)
        self._validate()

    @classmethod
    def _trusted(cls, level_sizes: Sequence[int], fans) -> "Triangulation":
        """A triangulation from sizes and fans of Python ints that the library
        built from checked input: frozen to tuples, with no integer pass and
        no ``_validate``.  Every producer in the package builds its result
        here; user input goes through ``__init__``.

        Every strip must already be a frozen strip of tuples (one the codec
        built, a host's strip that a surgery or rotation left untouched, or
        one a surgery or rotation wrote, which it freezes itself); strips
        are kept as they are, not copied, so results share them with their
        hosts and with each other."""
        t = cls.__new__(cls)
        t.level_sizes = tuple(level_sizes)
        t.fans = tuple(fans)
        return t

    def __getstate__(self) -> tuple[dict, dict]:
        # surgery keeps the draw function of its last reconstruction attempt
        # here, which calls into a generator by pointer and cannot be
        # pickled; an unpickled copy builds its own on its first attempt
        kept = {k: v for k, v in self.__dict__.items() if k != "_reconstruction_below"}
        return kept, {"level_sizes": self.level_sizes, "fans": self.fans}

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
            if not all(strip):
                raise ValueError("every vertex has at least its fan-start edge")
            # contiguous fans, each ending where the next starts, whose
            # out-degrees sum to k_top: their tails run once round the level
            for i, (fan, after) in enumerate(zip(strip, strip[1:] + strip[:1])):
                a = fan[0]
                for b in fan[1:]:
                    if (a + 1) % k_top != b:
                        raise ValueError(f"fan of vertex ({n},{i}) is not contiguous")
                    a = b
                if a != after[0]:
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
        level, pos = self._check_vertex(level, pos)
        return self.level_offsets[level] + pos

    def out_degree(self, level: int, pos: int) -> int:
        """Child count of (level, pos) in the tree codec; the top level has none."""
        level, pos = self._check_vertex(level, pos)
        if level == self.top_level:
            raise ValueError("top-level vertices have no fan")
        return len(self.fans[level][pos]) - 1

    def vertex_at(self, flat: int) -> tuple[int, int]:
        """(level, pos) of a flat vertex id; the inverse of ``flat_index``."""
        # Plain ints skip the parse: small-exact makes ~1,800 of these calls
        # and ``flat_index`` calls per op, and parsing every one cost it ~4%
        # of units/s.  Anything else, int subclasses included, is parsed.
        if type(flat) is not int:
            (flat,) = _checked_ints((flat,), "flat vertex ids")
        if not 0 <= flat < self.level_offsets[-1]:
            raise ValueError(f"no vertex with flat id {flat} in levels {self.level_sizes}")
        level = bisect_right(self.level_offsets, flat) - 1
        return level, flat - self.level_offsets[level]

    def _check_vertex(self, level: int, pos: int) -> tuple[int, int]:
        """(level, pos) read as ``vertex_at`` reads a flat id; ValueError
        unless it is a vertex."""
        if type(level) is not int or type(pos) is not int:  # as in ``vertex_at``
            level, pos = _checked_ints((level, pos), "vertex coordinates")
        if not (0 <= level <= self.top_level and 0 <= pos < self.level_sizes[level]):
            raise ValueError(f"no vertex ({level}, {pos}) in levels {self.level_sizes}")
        return level, pos

    def down_slots(self, level: int, pos: int) -> tuple[tuple[int, int], ...]:
        """Ordered downward edge slots of (level, pos); the parent comes first."""
        level, pos = self._check_vertex(level, pos)
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
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only flat endpoints (a, b) of every edge, loops included: the
        horizontal edges, edge c running from flat id c to the next vertex
        of its level (cyclically), then each strip's fan entries in fan
        order, each diagonal from its lower end.

        In a strip whose first fan starts at s, the strip's e-th fan entry,
        in fan i, ends at s + e - i (mod k_{n+1}), as ``_validate`` checks.
        """
        sizes, offs = np.array(self.level_sizes), np.array(self.level_offsets)
        a = np.arange(offs[-1])
        b = a + 1
        b[offs[1:] - 1] = offs[:-1]  # horizontal edge c runs c -> c + 1 (mod k)
        lower = a[: offs[-2]].repeat(np.fromiter(map(len, chain.from_iterable(self.fans)), int))
        strip = np.arange(self.top_level).repeat(sizes[:-1] + sizes[1:])
        above, s = offs[1:-1][strip], np.array([f[0][0] for f in self.fans], int)[strip]
        # strip n's first entry has index offs[n] + offs[n+1] - 1, as k_0 = 1
        upper = above + (s + 1 - above + np.arange(len(lower)) - lower) % sizes[1:][strip]
        a, b = np.concatenate((a, lower)), np.concatenate((b, upper))
        a.flags.writeable = b.flags.writeable = False  # shared by every table
        return a, b

    @cached_property
    def degree_split(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(up, down) per flat vertex id: its lower and its upper ends of
        diagonal edges, 0 on a missing side."""
        n = self.vertex_count
        return tuple(tuple(np.bincount(x[n:], minlength=n).tolist()) for x in self.edges)

    @cached_property
    def neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (offsets, other) per flat vertex id: distinct neighbours, increasing.

        Self-loops are dropped and parallel edges count once.
        """
        a, b = self.edges
        n = self.vertex_count
        a, b = a[a != b], b[a != b]
        pairs = np.sort(np.concatenate((a * n + b, b * n + a)))
        pairs = pairs[np.diff(pairs, prepend=-1) > 0]  # each distinct pair once
        return _csr(np.bincount(pairs // n, minlength=n), pairs % n)

    @cached_property
    def free_graph(self) -> FreeGraph:
        n_free = self.level_offsets[self.top_level]
        a, b = self.edges
        free = a < n_free  # drops the horizontal edges inside the boundary circle
        boundary, inner = free & (b >= n_free), free & (b < n_free) & (a != b)
        ia, ib = a[inner], b[inner]
        v, w, _ = _ends(ia, ib)
        counts = np.bincount(v, minlength=n_free)
        degree = counts + np.bincount(a[boundary], minlength=n_free)
        sizes = np.array(self.level_sizes[:-1], dtype=int)
        level = np.arange(self.top_level).repeat(sizes)
        p, k = np.arange(n_free) - np.array(self.level_offsets)[level], sizes[level]
        colour = 3 * (level % 2) + np.where((p == k - 1) & (k % 2 == 1), 2, p % 2)
        classes = np.split(np.argsort(colour, kind="stable"), np.bincount(colour).cumsum()[:-1])
        classes = tuple(tuple(c.tolist()) for c in classes if len(c))
        return FreeGraph(n_free, ia, ib, int(np.count_nonzero(free & (a == b))), a[boundary],
                         b[boundary] - n_free, _csr(counts, w), classes, int(degree.max(initial=0)))

    @cached_property
    def mark_degrees(self) -> np.ndarray:
        """Total degree of every free vertex (those of ``free_graph``), in flat
        order: its edge ends, a self-loop counting twice."""
        degs = np.bincount(np.concatenate(self.edges), minlength=self.vertex_count)
        degs = degs[: self.level_offsets[-2]]
        degs.flags.writeable = False  # shared by every caller
        return degs

    @cached_property
    def primal_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR (offsets, other endpoint, edge index) per flat vertex id, loops once."""
        v, w, e = _ends(*self.edges)
        return _csr(np.bincount(v, minlength=self.vertex_count), w, e)

    @cached_property
    def dual(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR (offsets, neighbour, crossed edge index, seam step) per triangle.

        A triangle lists the triangle before it in its strip, then the one
        after it (cyclically); a strip's first triangle lists them the other
        way round.  A triangle with a neighbour across its horizontal edge
        lists it last.  Crossing strip n's seam diagonal j_n forwards, from
        triangle j_n - 1 to triangle j_n, is a seam step of +1; back, -1.
        """
        v = self.vertex_count
        lower, upper = (x[v:] for x in self.edges)
        g = np.arange(len(lower))
        k = np.array(self.level_sizes)
        strip = k[:-1] + k[1:]
        size, first = strip.repeat(strip), (strip.cumsum() - strip).repeat(strip)  # of g's strip
        before, after = first + (g - first - 1) % size, first + (g - first + 1) % size
        # seam[g] = 1 when diagonal V + g starts its strip's anchor fan (by lower end)
        seam = np.zeros_like(g)
        seam[np.searchsorted(lower, np.add(self.level_offsets[:-2], _anchor_chain(self.fans)))] = 1
        # triangle g's horizontal edge is the lower end of diagonal V + g when
        # that diagonal closes its fan (the next one starts elsewhere), else
        # the upper end; pair the triangles over and under each such edge
        closes = lower != np.append(lower[1:], -1)
        h = np.where(closes, lower, upper)
        over, under = np.full(v, -1), np.full(v, -1)
        over[h[closes]], under[h[~closes]] = g[closes], g[~closes]
        # entries (before, after, across) by fields (neighbour, crossed, seam)
        rows = np.array([[before, v + g, -seam], [after, v + after, seam[after]],
                         [np.where(closes, under[h], over[h]), h, 0 * g]])
        rows[:2, :, g == first] = rows[1::-1, :, g == first]
        keep = rows[:, 0] >= 0  # no neighbour across a boundary circle
        return _csr(keep.sum(axis=0), *rows.transpose(1, 2, 0)[:, keep.T])

    # -- canonical form ----------------------------------------------------

    @cached_property
    def canonical_key(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(level sizes, out-degree lists read from each level's anchor)."""
        return (self.level_sizes, tuple(
            tuple([len(f) - 1 for f in strip[a:] + strip[:a]])
            for strip, a in zip(self.fans, _anchor_chain(self.fans))
        ))

    def canonical(self) -> "Triangulation":
        return forest_to_triangulation(self.canonical_key[1])

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
    return LevelForest(forest)


def forest_to_triangulation(forest: ForestLike) -> Triangulation:
    """Rebuild the triangulation encoded by per-level out-degree lists.

    Vertex i at level n receives child edges to the block (S_i, S_{i+1}] and
    the fan-start edge to S_i, where S is the out-degree prefix sum.  The
    shift by one position relative to the forest's natural child blocks is
    what closes each strip into a triangulated annulus.
    """
    f = _as_forest(forest)
    sizes = f.level_sizes
    return Triangulation._trusted(
        sizes, [_strip(degs, sizes[n + 1]) for n, degs in enumerate(f.out_degrees)])


def _strip(degs: Sequence[int], k_top: int) -> tuple[tuple[int, ...], ...]:
    """The frozen fans of one strip from its lower level's out-degrees,
    which sum to ``k_top``: fan i runs from S_i to S_{i+1} (mod k_top)."""
    strip = []
    s = 0
    for d in degs:
        end = s + d + 1
        if end <= k_top:
            strip.append(tuple(range(s, end)))
        else:  # the last fans reach k_top, which wraps to 0
            strip.append(tuple(q % k_top for q in range(s, end)))
        s += d
    return tuple(strip)


def triangulation_to_forest(t: Triangulation) -> LevelForest:
    """Extract the spanning forest of leftmost downward edges as out-degree lists.

    Levels are read in the cyclic rotation anchored by the chain of fan-start
    targets from the root, so the output is a canonical normal form; for a
    triangulation built by ``forest_to_triangulation`` it returns exactly the
    input lists.  The lists are ``t.canonical_key[1]``.
    """
    return LevelForest(t.canonical_key[1])


def rotate_level(t: Triangulation, level: int, shift: int) -> Triangulation:
    """Relabel positions q -> (q + shift) mod k at one level (same triangulation)."""
    level = _checked_int(level, "level", 0)
    if not 1 <= level <= t.top_level:
        raise ValueError("only levels above the root can be rotated")
    fans = list(t.fans)
    _rotate_fans(t.level_sizes, fans, level, _checked_int(shift, "shift"))
    if fans[level - 1] is not t.fans[level - 1]:  # retargeted, as lists
        fans[level - 1] = tuple(map(tuple, fans[level - 1]))
    return Triangulation._trusted(t.level_sizes, fans)


def _rotate_fans(sizes: Sequence[int], fans: list, level: int, shift: int) -> None:
    """Rotate one level's labels by ``shift`` in a list of strips, in place.

    The strip below gets retargeted fans, as lists; the strip above (if any)
    is reordered by slicing, so it stays a tuple or a list and keeps its fans.
    """
    k = sizes[level]
    shift %= k
    if shift == 0:
        return
    fans[level - 1] = [[(q + shift) % k for q in fan] for fan in fans[level - 1]]
    if level < len(sizes) - 1:
        old = fans[level]
        fans[level] = old[k - shift:] + old[:k - shift]


def _ends(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both ends of each edge (a[e], b[e]) as (vertex, other end, e), ordered
    by vertex and then by edge; a loop is listed once."""
    v = np.stack((a, b), axis=1).ravel()
    keep = np.ones(len(v), dtype=bool)
    keep[1::2] = a != b
    order = np.flatnonzero(keep)[np.argsort(v[keep], kind="stable")]
    return v[order], np.stack((b, a), axis=1).ravel()[order], order // 2


def _csr(counts: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Read-only CSR arrays: row offsets from per-row ``counts``, then ``columns``."""
    arrays = (np.concatenate(([0], counts.cumsum())), *columns)
    for x in arrays:
        x.flags.writeable = False  # shared by every caller
    return arrays


def _anchor_chain(fans) -> list[int]:
    """Each strip's anchor a_n on its lower level: a_0 = 0, and a_{n+1} =
    fans[n][a_n][0].  ``canonical_key`` reads each level from its anchor."""
    anchors, a = [], 0
    for strip in fans:
        anchors.append(a)
        a = strip[a][0]
    return anchors


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
    lines = [" ".join(map(str, (t.top_level, *t.level_sizes)))]
    for degs in t.canonical_key[1]:
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


def enumerate_triangulations(levels: int, width_cap: int) -> list[tuple[Triangulation, float]]:
    """All rooted triangulations with the given level count and k_n <= width_cap,
    each paired with its unnormalized critical weight exp(-ln 2 * F).

    The order is that of the out-degree lists: level by level, k_{n+1}
    increasing, then the compositions of k_{n+1} into k_n parts in
    ``_compositions`` order.  Each strip is built once per level pair
    (k_n, k_{n+1}) and composition, and every output holding it shares that
    frozen strip; the recursion carries the sizes, strips and triangle count
    down, so no output is re-parsed or re-checked.

    Guarded against combinatorial explosion: levels <= 3, width_cap <= 5.
    """
    levels = _checked_int(levels, "levels", 1)
    width_cap = _checked_int(width_cap, "width_cap", 1)
    if levels > MAX_ENUM_LEVELS:
        raise ValueError(f"levels must be in 1..{MAX_ENUM_LEVELS}")
    if width_cap > MAX_ENUM_WIDTH:
        raise ValueError(f"width_cap must be in 1..{MAX_ENUM_WIDTH}")

    results: list[tuple[Triangulation, float]] = []
    strips: dict[tuple[int, int], list] = {}  # (k_n, k_{n+1}) -> strip per composition
    trusted = Triangulation._trusted

    def extend(sizes: tuple[int, ...], fans: tuple, f: int) -> None:
        k_cur, last = sizes[-1], len(sizes) == levels
        for k_next in range(1, width_cap + 1):
            row = strips.get((k_cur, k_next))
            if row is None:
                row = strips[k_cur, k_next] = [
                    _strip(c, k_next) for c in _compositions(k_next, k_cur)]
            up, f_up = (*sizes, k_next), f + k_cur + k_next
            if last:
                w = math.exp(-MU_CRITICAL * f_up)
                results.extend((trusted(up, (*fans, s)), w) for s in row)
            else:
                for s in row:
                    extend(up, (*fans, s), f_up)

    extend((1,), (), 0)
    return results


def forest_weight_product(t: Triangulation) -> float:
    """Branching-process probability of the tree parametrization: the product
    of offspring probabilities over all vertices below the top level."""
    w = 1.0
    for n in range(t.top_level):
        for i in range(t.level_sizes[n]):
            w *= offspring_pmf(t.out_degree(n, i))
    return w
