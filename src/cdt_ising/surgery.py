"""Triangle-pair insertions, edge collapses, and randomized reconstruction.

An elementary insertion at an internal vertex v picks one upward edge slot
and one downward edge slot of v, splits v along that wedge, and fills the
slit with two triangles sharing a fresh horizontal edge.  The new vertex sits
immediately to the right of v, the two chosen neighbors each gain exactly one
edge, and the triangle count grows by 2.  Collapsing the fresh horizontal
edge undoes the insertion exactly.

A k-fold insertion applies k slot pairs at the same vertex; with both slot
lists nondecreasing (repeats allowed) the insertions are applied from the
largest slots down, producing a horizontal chain of k new vertices whose fan
intervals partition the original wedge.

``apply_modification`` performs such insertions along an embedded locally
geodesic path, and ``randomized_reconstruction`` is the random walk that
undoes them: at each arrival it picks one of (insert_count + 2) options --
the (insert_count + 1) placements of a horizontal-run contraction next to the
current vertex, or nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .percolation import is_locally_geodesic
from .triangulation import Triangulation, _down_slot_entries, _rotate_fans

Vertex = tuple[int, int]


# -- mutable fan scaffolding --------------------------------------------------


def _thaw(t: Triangulation) -> tuple[list[int], list[list[list[int]]]]:
    return list(t.level_sizes), [[list(f) for f in strip] for strip in t.fans]


def _freeze(sizes: list[int], fans: list[list[list[int]]]) -> Triangulation:
    return Triangulation(sizes, fans)


def _insert_one(
    sizes: list[int], fans: list[list[list[int]]], level: int, pos: int, iu: int, jd: int
) -> None:
    """Elementary insertion at (level, pos) with up slot iu and down slot jd.

    The new vertex lands at position pos+1; it takes the up slots iu..end
    (the slot-iu edge is duplicated) and the down slots jd..end (likewise).
    """
    fan_v = fans[level][pos]
    if not 0 <= iu < len(fan_v):
        raise ValueError(f"up slot {iu} out of range")
    down = _down_slot_entries(fans, sizes, level, pos)
    if not 0 <= jd < len(down):
        raise ValueError(f"down slot {jd} out of range")

    # split the up fan between v and the new vertex
    fans[level].insert(pos + 1, fan_v[iu:])
    fans[level][pos] = fan_v[: iu + 1]

    # renumber the lower strip: entries beyond pos shift right; entries at pos
    # with slot rank > jd move to the new vertex; the slot-jd edge duplicates
    slot_rank = {entry: r for r, entry in enumerate(down)}
    below = fans[level - 1]
    for i, fan in enumerate(below):
        for idx, q in enumerate(fan):
            if q > pos:
                fan[idx] = q + 1
            elif q == pos and slot_rank.get((i, idx), -1) > jd:
                fan[idx] = pos + 1
    owner_i, owner_idx = down[jd]
    below[owner_i].insert(owner_idx + 1, pos + 1)
    sizes[level] += 1


def _collapse_one(sizes: list[int], fans: list[list[list[int]]], level: int, pos: int) -> None:
    """Collapse the horizontal edge (pos, pos+1): merge pos+1 into pos.

    Requires pos+1 < k (callers rotate the wrap edge away first).
    """
    k = sizes[level]
    assert pos + 1 < k
    # merge up fans; the shared fan boundary is the apex of the removed triangle
    fan_v, fan_w = fans[level][pos], fans[level][pos + 1]
    assert fan_v[-1] == fan_w[0], "fans must share their boundary"
    fans[level][pos] = fan_v + fan_w[1:]
    del fans[level][pos + 1]
    # lower strip: delete the duplicate edge under the removed triangle, then
    # retarget pos+1 to pos and shift everything beyond
    below = fans[level - 1]
    removed = False
    for fan in below:
        for idx in range(len(fan) - 1):
            if fan[idx] == pos and fan[idx + 1] == pos + 1:
                del fan[idx + 1]
                removed = True
                break
        if removed:
            break
    assert removed, "no triangle below the collapsed edge"
    for fan in below:
        for idx, q in enumerate(fan):
            if q == pos + 1:
                fan[idx] = pos
            elif q > pos + 1:
                fan[idx] = q - 1
    sizes[level] -= 1


# -- public surgery operations ------------------------------------------------


@dataclass(frozen=True)
class InsertionSite:
    up_slot: int
    down_slot: int
    up_neighbor: Vertex
    down_neighbor: Vertex


def insertion_sites(t: Triangulation, level: int, pos: int) -> list[InsertionSite]:
    """All d_up x d_dn elementary insertion sites at an internal vertex.

    Slots, not neighbor identities, enumerate the sites: parallel edges give
    distinct sites.
    """
    deg = t.vertex_degree(level, pos)
    if deg.boundary:
        raise ValueError("insertions need an internal vertex")
    fan = t.fans[level][pos]
    down = t.down_slots(level, pos)
    return [
        InsertionSite(iu, jd, (level + 1, fan[iu]), (level - 1, down[jd][0]))
        for iu in range(len(fan))
        for jd in range(len(down))
    ]


def multi_insertion_count(side_size: int, k: int) -> int:
    """Nondecreasing slot k-tuples from one side: C(side_size + k - 1, k)."""
    return math.comb(side_size + k - 1, k)


@dataclass(frozen=True)
class Insertion:
    """A k-fold insertion plan at one vertex.

    ``pairs`` lists (up slot, down slot) with both coordinates nondecreasing
    across the list; repeated slots mean repeated use of the same edge.
    """

    level: int
    pos: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ups = [p[0] for p in self.pairs]
        downs = [p[1] for p in self.pairs]
        if ups != sorted(ups) or downs != sorted(downs):
            raise ValueError("slot lists must be nondecreasing (left to right)")


@dataclass(frozen=True)
class InsertResult:
    triangulation: Triangulation
    level: int
    first_new_pos: int
    count: int

    @property
    def new_horizontal_run(self) -> tuple[int, int, int]:
        """(level, leftmost edge position, run length) undoing this insertion."""
        return (self.level, self.first_new_pos - 1, self.count)


def insert_pairs(t: Triangulation, insertion: Insertion) -> InsertResult:
    """Apply a k-fold insertion; the triangle count grows by 2k.

    The chain of new vertices occupies positions pos+1..pos+k, and collapsing
    the horizontal run starting at (level, pos) of length k restores the
    original triangulation exactly.
    """
    level, pos = insertion.level, insertion.pos
    deg = t.vertex_degree(level, pos)
    if deg.boundary:
        raise ValueError("insertions need an internal vertex")
    for iu, jd in insertion.pairs:
        if not (0 <= iu < deg.up and 0 <= jd < deg.down):
            raise ValueError(f"slot pair ({iu}, {jd}) out of range for degree split")
    sizes, fans = _thaw(t)
    for iu, jd in sorted(insertion.pairs, reverse=True):
        _insert_one(sizes, fans, level, pos, iu, jd)
    return InsertResult(_freeze(sizes, fans), level, pos + 1, len(insertion.pairs))


def collapse_horizontal_edge(t: Triangulation, level: int, left_pos: int) -> Triangulation:
    """Collapse the horizontal edge from left_pos to left_pos+1 (mod k).

    Valid for 1 <= level <= top-1 on a level with at least two vertices; the
    wrap-around edge is collapsed after a relabeling rotation, so the result
    may differ from the "same" collapse by a rotation (compare canonically).
    """
    if not 1 <= level <= t.top_level - 1:
        raise ValueError("collapse needs strips on both sides of the level")
    k = t.level_sizes[level]
    if k < 2:
        raise ValueError("cannot collapse a self-loop")
    if not 0 <= left_pos < k:
        raise ValueError("edge position out of range")
    sizes, fans = _thaw(t)
    if left_pos == k - 1:
        _rotate_fans(sizes, fans, level, 1)
        left_pos = 0
    _collapse_one(sizes, fans, level, left_pos)
    return _freeze(sizes, fans)


def collapse_run(t: Triangulation, level: int, start: int, count: int) -> Triangulation:
    """Collapse ``count`` consecutive horizontal edges starting at ``start``.

    Fails (ValueError) when the level is too small: collapsing k edges needs
    at least k+1 vertices on the level.
    """
    if count < 1:
        raise ValueError("need at least one edge")
    if t.level_sizes[level] < count + 1:
        raise ValueError("level too small for the requested run")
    out = t
    pos = start
    for _ in range(count):
        k = out.level_sizes[level]
        pos %= k
        if pos == k - 1:
            # collapsing the wrap edge rotates labels; the remaining run then
            # starts at the merged vertex, which lands at position 0
            out = collapse_horizontal_edge(out, level, pos)
            pos = 0
        else:
            out = collapse_horizontal_edge(out, level, pos)
    return out


# -- path neighborhoods and the modification map ------------------------------


@dataclass(frozen=True)
class PathNeighborhood:
    """Rigid encoding of a locally geodesic path with its adjacent triangles.

    Per path vertex: the degree split (up, down; None on boundary levels) and
    the entry/exit edge slots, each tagged with the side it uses ("u"p, "d"own,
    "l"eft or "r"ight horizontal).  The encoding determines the embedding into
    any host uniquely: the trace from the root follows exit slots and checks
    entry slots and degree splits as it goes.
    """

    path: tuple[Vertex, ...]
    splits: tuple[tuple[int | None, int | None], ...]
    entries: tuple[tuple[str, int] | None, ...]
    exits: tuple[tuple[str, int] | None, ...]

    @property
    def length(self) -> int:
        return len(self.path) - 1

    def degrees(self) -> tuple[int, ...]:
        """Total degrees along the path (root counts its self-loop as 2)."""
        out = []
        for (up, down) in self.splits:
            out.append((up or 0) + (down or 0) + 2)
        return tuple(out)


def _edge_slot(t: Triangulation, frm: Vertex, to: Vertex) -> tuple[str, int]:
    """Smallest slot at ``frm`` leading to ``to``: up/down slots by index,
    horizontal right/left otherwise."""
    lf, pf = frm
    lt, pt = to
    if lt == lf + 1:
        fan = t.fans[lf][pf]
        for idx, q in enumerate(fan):
            if q == pt:
                return ("u", idx)
    elif lt == lf - 1:
        for idx, (i, _) in enumerate(t.down_slots(lf, pf)):
            if i == pt:
                return ("d", idx)
    elif lt == lf:
        k = t.level_sizes[lf]
        if pt == (pf + 1) % k:
            return ("r", 0)
        if pt == (pf - 1) % k:
            return ("l", 0)
    raise ValueError(f"{to} is not adjacent to {frm}")


def _slot_target(t: Triangulation, frm: Vertex, slot: tuple[str, int]) -> Vertex:
    side, idx = slot
    lvl, pos = frm
    if side == "u":
        return (lvl + 1, t.fans[lvl][pos][idx])
    if side == "d":
        return (lvl - 1, t.down_slots(lvl, pos)[idx][0])
    k = t.level_sizes[lvl]
    if side == "r":
        return (lvl, (pos + 1) % k)
    return (lvl, (pos - 1) % k)


def _split_of(t: Triangulation, v: Vertex) -> tuple[int | None, int | None]:
    d = t.vertex_degree(*v)
    return (d.up, d.down)


def path_neighborhood(t: Triangulation, path) -> PathNeighborhood:
    """Encode the 1-neighborhood of a locally geodesic path from the root."""
    path = tuple((int(l), int(p)) for l, p in path)
    if path[0] != (0, 0):
        raise ValueError("paths start at the root")
    if not is_locally_geodesic(t, path):
        raise ValueError("path is not self-avoiding locally geodesic")
    splits = tuple(_split_of(t, v) for v in path)
    entries: list[tuple[str, int] | None] = [None]
    exits: list[tuple[str, int] | None] = []
    for a, b in zip(path, path[1:]):
        exits.append(_edge_slot(t, a, b))
        entries.append(_edge_slot(t, b, a))
    exits.append(None)
    return PathNeighborhood(path, splits, tuple(entries), tuple(exits))


def _slot_count(t: Triangulation, v: Vertex, side: str) -> int:
    if side == "u":
        return len(t.fans[v[0]][v[1]]) if v[0] < t.top_level else 0
    if side == "d":
        return t.degree_split[1][t.flat_index(*v)]  # 0 on level 0
    return 1


def embed(pn: PathNeighborhood, t: Triangulation) -> tuple[Vertex, ...] | None:
    """Trace the encoded path through a host; None when it does not embed.

    Rigidity makes the embedding unique: each step is forced by the exit
    slot, and degree splits plus entry slots must match along the way.
    """
    cur: Vertex = (0, 0)
    trace = [cur]
    for j in range(len(pn.path)):
        if _split_of(t, cur) != pn.splits[j]:
            return None
        entry = pn.entries[j]
        if entry is not None:
            if entry[1] >= _slot_count(t, cur, entry[0]):
                return None
            if _slot_target(t, cur, entry) != trace[-2]:
                return None
        exit_ = pn.exits[j]
        if exit_ is None:
            break
        if exit_[1] >= _slot_count(t, cur, exit_[0]):
            return None
        cur = _slot_target(t, cur, exit_)
        trace.append(cur)
    if len(set(trace)) != len(trace):
        return None
    return tuple(trace)


DEGREE_THRESHOLD = 100
INSERT_COUNT = 10


def modified_indices(pn: PathNeighborhood, threshold: int = DEGREE_THRESHOLD) -> list[int]:
    """Path indices eligible for modification: internal vertices of degree >=
    threshold (boundary-level vertices never qualify)."""
    out = []
    for j, (up, down) in enumerate(pn.splits):
        if up is None or down is None:
            continue
        if up + down + 2 >= threshold:
            out.append(j)
    return out


def apply_modification(
    t: Triangulation,
    pn: PathNeighborhood,
    plans: dict[int, tuple[tuple[int, ...], tuple[int, ...]]],
    threshold: int = DEGREE_THRESHOLD,
    count: int = INSERT_COUNT,
) -> Triangulation:
    """Insert exactly ``count`` triangle pairs at every eligible path vertex.

    ``plans`` maps the path index of each eligible vertex to its nondecreasing
    up-slot and down-slot tuples.  Modifications are applied from the far end
    of the path toward the root; slot tuples refer to the vertex's slots at
    application time, and positions of path vertices are remapped as earlier
    insertions stretch their levels.
    """
    trace = embed(pn, t)
    if trace is None:
        raise ValueError("path neighborhood does not embed in the host")
    eligible = modified_indices(pn, threshold)
    if sorted(plans) != eligible:
        raise ValueError(f"plans must cover exactly the eligible indices {eligible}")
    shifts: dict[int, list[tuple[int, int]]] = {}  # level -> [(pos, amount)]
    out = t
    for j in reversed(eligible):
        ups, downs = plans[j]
        if len(ups) != count or len(downs) != count:
            raise ValueError(f"vertex at path index {j} needs exactly {count} pairs")
        lvl, pos = trace[j]
        for at, amount in shifts.get(lvl, []):
            if pos > at:
                pos += amount
        ins = Insertion(lvl, pos, tuple(zip(sorted(ups), sorted(downs))))
        out = insert_pairs(out, ins).triangulation
        shifts.setdefault(lvl, []).append((pos, count))
    return out


def enumerate_plans(t: Triangulation, vertex: Vertex, count: int):
    """All k-fold insertion plans at one vertex of the given triangulation."""
    deg = t.vertex_degree(*vertex)
    ups = combinations_with_replacement(range(deg.up), count)
    return [
        (u, d)
        for u in ups
        for d in combinations_with_replacement(range(deg.down), count)
    ]


# -- randomized reconstruction -------------------------------------------------


@dataclass(frozen=True)
class ReconstructionResult:
    success: bool
    walk: tuple[Vertex, ...]
    triangulation: Triangulation | None
    contractions: tuple[tuple[int, int, int], ...]  # (level, start, count) performed


def _neighbor_slots_raw(
    sizes: list[int], fans: list[list[list[int]]], v: Vertex
) -> list[Vertex]:
    """Neighbor list with edge multiplicity: up and down slots plus the two
    horizontal sides (a self-loop contributes its vertex twice)."""
    lvl, pos = v
    out: list[Vertex] = []
    if lvl < len(sizes) - 1:
        out.extend((lvl + 1, q) for q in fans[lvl][pos])
    if lvl > 0:
        out.extend((lvl - 1, i) for i, _ in _down_slot_entries(fans, sizes, lvl, pos))
    k = sizes[lvl]
    out.append((lvl, (pos + 1) % k))
    out.append((lvl, (pos - 1) % k))
    return out


def randomized_reconstruction(
    t_prime: Triangulation,
    reference: Triangulation,
    reference_path,
    rng: np.random.Generator,
    count: int = INSERT_COUNT,
) -> ReconstructionResult:
    """One attempt of the reconstruction walk on ``t_prime``.

    Starting at the root, each step moves across a uniformly chosen edge
    slot; on every arrival one of count+2 options is drawn uniformly: one of
    the count+1 horizontal-run contractions of length ``count`` touching the
    current vertex, or nothing.  Impossible contractions (level too small)
    abort the attempt.  The attempt succeeds when the walk (with positions
    tracked through the contractions) equals the reference path and the
    rebuilt triangulation equals the reference.
    """
    ref_path = tuple((int(l), int(p)) for l, p in reference_path)
    steps = len(ref_path) - 1
    cur: Vertex = (0, 0)
    walk: list[Vertex] = [cur]
    sizes, fans = _thaw(t_prime)
    contractions: list[tuple[int, int, int]] = []

    def fail() -> ReconstructionResult:
        return ReconstructionResult(False, tuple(walk), None, tuple(contractions))

    for _ in range(steps):
        slots = _neighbor_slots_raw(sizes, fans, cur)
        cur = slots[int(rng.integers(0, len(slots)))]
        walk.append(cur)
        choice = int(rng.integers(0, count + 2))
        if choice == count + 1:
            continue  # do nothing
        lvl, pos = cur
        start = pos - count + choice
        if not 1 <= lvl <= len(sizes) - 2 or sizes[lvl] < count + 1:
            return fail()
        start %= sizes[lvl]
        contractions.append((lvl, start, count))
        # collapse the run edge by edge, tracking the walk positions and the
        # current vertex through merges and shifts
        p = start
        for _ in range(count):
            k = sizes[lvl]
            p %= k
            if p == k - 1:
                _rotate_fans(sizes, fans, lvl, 1)
                _remap_walk(walk, lvl, lambda q, k=k: (q + 1) % k)
                p = 0
            _collapse_one(sizes, fans, lvl, p)
            _remap_walk(walk, lvl, lambda q, p=p: p if q == p + 1 else (q - 1 if q > p + 1 else q))
        cur = walk[-1]
    if tuple(walk) != ref_path:
        return fail()
    result = _freeze(sizes, fans)
    ok = result.canonical_key == reference.canonical_key
    return ReconstructionResult(ok, tuple(walk), result, tuple(contractions))


def _remap_walk(walk: list[Vertex], level: int, f) -> None:
    for i, (lvl, pos) in enumerate(walk):
        if lvl == level:
            walk[i] = (lvl, f(pos))


def reconstruction_probability_bound(degrees, count: int = INSERT_COUNT) -> float:
    """The guaranteed per-attempt success probability for a known pair:
    prod_j 1 / ((count + 2) * (d_j + count)) over the path degrees."""
    p = 1.0
    for d in degrees:
        p /= (count + 2) * (d + count)
    return p
