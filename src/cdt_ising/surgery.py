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
current vertex, or nothing.  An attempt's result is a function of its draws,
so each modified triangulation keeps a branch table of the walks run on it:
repeated attempts replay a finished branch from its draws, results are
shared frozen objects, and the table lives as long as the triangulation.
``reconstruction_success_probability`` enumerates every branch for the exact
success probability.

Two private routines carry the graph work on a triangulation's tuples and on
thawed lists alike.  ``_slots`` lists a vertex's edge slots by side; the path
encoding, the embedding, the insertion sites and the walk's steps all read it.
``_collapse_run`` collapses a horizontal run in place; ``collapse_run``,
``collapse_horizontal_edge`` and the reconstruction walk all run it.
``_walk`` is the reconstruction walk with its draws supplied by a callback;
the branch table and the exact enumeration both drive it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from .percolation import is_locally_geodesic
from .triangulation import Triangulation, _down_slot_entries, _rotate_fans

Vertex = tuple[int, int]


# -- mutable fan scaffolding --------------------------------------------------


def _thaw(t: Triangulation) -> tuple[list[int], list[list[list[int]]]]:
    return list(t.level_sizes), [[list(f) for f in strip] for strip in t.fans]


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


def _remap_walk(walk: list[Vertex], level: int, f) -> None:
    for i, (lvl, pos) in enumerate(walk):
        if lvl == level:
            walk[i] = (lvl, f(pos))


def _collapse_run(
    sizes: list[int], fans: list, level: int, start: int, count: int, walk: list[Vertex]
) -> None:
    """Collapse ``count`` consecutive horizontal edges from ``start``, in place.

    The wrap edge is collapsed after rotating the level by one, so the merged
    vertex and the rest of the run start at position 0.  Vertices of ``walk``
    follow every relabeling.
    """
    p = start
    for _ in range(count):
        k = sizes[level]
        p %= k
        if p == k - 1:
            _rotate_fans(sizes, fans, level, 1)
            _remap_walk(walk, level, lambda q, k=k: (q + 1) % k)
            p = 0
        _collapse_one(sizes, fans, level, p)
        _remap_walk(walk, level, lambda q, p=p: p if q == p + 1 else (q - 1 if q > p + 1 else q))


def _slots(sizes, fans, v: Vertex) -> dict[str, list[Vertex]]:
    """Edge-slot targets of ``v`` by side, with multiplicity, in slot order.

    "u": the fan, empty on the top level; "d": the down slots, parent first,
    empty on level 0; "r" and "l": the horizontal neighbours (a self-loop
    gives ``v`` itself on both sides).
    """
    lvl, pos = v
    k = sizes[lvl]
    return {
        "u": [(lvl + 1, q) for q in fans[lvl][pos]] if lvl < len(sizes) - 1 else [],
        "d": [(lvl - 1, i) for i, _ in _down_slot_entries(fans, sizes, lvl, pos)] if lvl else [],
        "r": [(lvl, (pos + 1) % k)],
        "l": [(lvl, (pos - 1) % k)],
    }


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
    if t.vertex_degree(level, pos).boundary:
        raise ValueError("insertions need an internal vertex")
    s = _slots(t.level_sizes, t.fans, (level, pos))
    return [
        InsertionSite(iu, jd, up, down)
        for iu, up in enumerate(s["u"])
        for jd, down in enumerate(s["d"])
    ]


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
    return InsertResult(Triangulation(sizes, fans), level, pos + 1, len(insertion.pairs))


def collapse_horizontal_edge(t: Triangulation, level: int, left_pos: int) -> Triangulation:
    """Collapse the horizontal edge from left_pos to left_pos+1 (mod k).

    Valid for 1 <= level <= top-1 on a level with at least two vertices; the
    wrap-around edge is collapsed after a relabeling rotation, so the result
    may differ from the "same" collapse by a rotation (compare canonically).
    """
    return collapse_run(t, level, left_pos, 1)


def collapse_run(t: Triangulation, level: int, start: int, count: int) -> Triangulation:
    """Collapse ``count`` consecutive horizontal edges starting at ``start``.

    Valid for 1 <= level <= top-1 and 0 <= start < k, the level's size; the
    run may pass the wrap edge (k-1, 0).  Fails (ValueError) when the level
    is too small: collapsing k edges needs at least k+1 vertices on the level.
    """
    if not 1 <= level < t.top_level:
        raise ValueError("collapse needs strips on both sides of the level")
    if not 0 <= start < t.level_sizes[level]:
        raise ValueError("edge position out of range")
    if count < 1:
        raise ValueError("need at least one edge")
    if t.level_sizes[level] < count + 1:
        raise ValueError("level too small for the requested run")
    sizes, fans = _thaw(t)
    _collapse_run(sizes, fans, level, start, count, [])
    return Triangulation(sizes, fans)


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


def _edge_slot(slots: dict[str, list[Vertex]], to: Vertex) -> tuple[str, int]:
    """Smallest slot leading to ``to``, on the first side that reaches it."""
    for side, targets in slots.items():
        if to in targets:
            return (side, targets.index(to))
    raise ValueError(f"{to} is not adjacent")


def path_neighborhood(t: Triangulation, path) -> PathNeighborhood:
    """Encode the 1-neighborhood of a locally geodesic path from the root."""
    path = tuple((int(l), int(p)) for l, p in path)
    if path[0] != (0, 0):
        raise ValueError("paths start at the root")
    if not is_locally_geodesic(t, path):
        raise ValueError("path is not self-avoiding locally geodesic")
    slots = [_slots(t.level_sizes, t.fans, v) for v in path]
    # only a boundary level has an empty up or down side
    splits = tuple((len(s["u"]) or None, len(s["d"]) or None) for s in slots)
    entries: list[tuple[str, int] | None] = [None]
    exits: list[tuple[str, int] | None] = []
    for j in range(len(path) - 1):
        exits.append(_edge_slot(slots[j], path[j + 1]))
        entries.append(_edge_slot(slots[j + 1], path[j]))
    exits.append(None)
    return PathNeighborhood(path, splits, tuple(entries), tuple(exits))


def embed(pn: PathNeighborhood, t: Triangulation) -> tuple[Vertex, ...] | None:
    """Trace the encoded path through a host; None when it does not embed.

    Rigidity makes the embedding unique: each step is forced by the exit
    slot, and degree splits plus entry slots must match along the way.
    """
    cur: Vertex = (0, 0)
    trace = [cur]
    for j in range(len(pn.path)):
        s = _slots(t.level_sizes, t.fans, cur)
        if (len(s["u"]) or None, len(s["d"]) or None) != pn.splits[j]:
            return None
        entry = pn.entries[j]
        if entry is not None:
            targets = s[entry[0]]
            if entry[1] >= len(targets) or targets[entry[1]] != trace[-2]:
                return None
        exit_ = pn.exits[j]
        if exit_ is None:
            break
        targets = s[exit_[0]]
        if exit_[1] >= len(targets):
            return None
        cur = targets[exit_[1]]
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


# The draws of one attempt, in order: per step the slot taken (out of the
# current vertex's slot count), then the option (out of count + 2).
Draws = tuple[int, ...]


def _walk(
    t_prime: Triangulation,
    reference_key,
    ref_path: tuple[Vertex, ...],
    count: int,
    pick: Callable[[Draws, int], int],
) -> tuple[Draws, ReconstructionResult]:
    """The reconstruction walk with its draws supplied by ``pick``.

    ``pick(prefix, n)`` returns a draw in range(n) given the draws made so
    far.  The result is a function of the draws alone; they are returned
    with it.
    """
    steps = len(ref_path) - 1
    cur: Vertex = (0, 0)
    walk: list[Vertex] = [cur]
    sizes, fans = _thaw(t_prime)
    contractions: list[tuple[int, int, int]] = []
    draws: Draws = ()

    def fail() -> tuple[Draws, ReconstructionResult]:
        return draws, ReconstructionResult(False, tuple(walk), None, tuple(contractions))

    for _ in range(steps):
        slots = [w for side in _slots(sizes, fans, cur).values() for w in side]
        slot = pick(draws, len(slots))
        draws += (slot,)
        cur = slots[slot]
        walk.append(cur)
        choice = pick(draws, count + 2)
        draws += (choice,)
        if choice == count + 1:
            continue  # do nothing
        lvl, pos = cur
        start = pos - count + choice
        if not 1 <= lvl <= len(sizes) - 2 or sizes[lvl] < count + 1:
            return fail()
        start %= sizes[lvl]
        contractions.append((lvl, start, count))
        _collapse_run(sizes, fans, lvl, start, count, walk)
        cur = walk[-1]
    if tuple(walk) != ref_path:
        return fail()
    result = Triangulation(sizes, fans)
    ok = result.canonical_key == reference_key
    return draws, ReconstructionResult(ok, tuple(walk), result, tuple(contractions))


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

    The result is a function of the draws, so each branch runs once: a
    branch table on ``t_prime``, keyed by (reference canonical key, path,
    count), maps every draw prefix met at a step boundary to the next step's
    slot count or to the finished result.  An attempt makes the same
    ``rng.integers`` calls in the same order as the plain walk; only a
    branch not yet in the table runs the walk.  Results are shared frozen
    objects (their ``triangulation`` too), and a branch table lives as long
    as its ``t_prime``, growing with the distinct branches met.
    """
    ref_path = tuple((int(l), int(p)) for l, p in reference_path)
    branches = t_prime.__dict__.setdefault("_reconstruction_branches", {})
    table = branches.setdefault((reference.canonical_key, ref_path, count), {})
    draws: Draws = ()
    node = table.get(draws)
    while isinstance(node, int):  # the slot count of the next step
        draws += (int(rng.integers(0, node)), int(rng.integers(0, count + 2)))
        node = table.get(draws)
    if node is not None:
        return node
    known = draws

    def pick(prefix: Draws, n: int) -> int:
        if len(prefix) < len(known):
            return known[len(prefix)]
        if len(prefix) % 2 == 0:
            table[prefix] = n
        return int(rng.integers(0, n))

    draws, node = _walk(t_prime, reference.canonical_key, ref_path, count, pick)
    table[draws] = node
    return node


def reconstruction_success_probability(
    t_prime: Triangulation,
    reference: Triangulation,
    reference_path,
    count: int = INSERT_COUNT,
) -> float:
    """The exact per-attempt success probability of ``randomized_reconstruction``.

    Enumerates every branch of the walk, (slot count) x (count + 2) per
    step, and sums the weights of the successful ones; a step weighs
    1 / (slot count * (count + 2)).  One walk runs per branch, and branches
    multiply along the path, so this suits small fixtures.
    """
    ref_path = tuple((int(l), int(p)) for l, p in reference_path)
    wins: list[float] = []
    pending: list[Draws] = [()]
    while pending:
        forced = pending.pop()
        weight = 1.0

        def pick(prefix: Draws, n: int) -> int:
            # follow ``forced``, then take 0 and leave the siblings for later
            nonlocal weight
            weight /= n
            if len(prefix) < len(forced):
                return forced[len(prefix)]
            pending.extend(prefix + (v,) for v in range(1, n))
            return 0

        _, result = _walk(t_prime, reference.canonical_key, ref_path, count, pick)
        if result.success:
            wins.append(weight)
    return math.fsum(wins)


def reconstruction_probability_bound(degrees, count: int = INSERT_COUNT) -> float:
    """The guaranteed per-attempt success probability for a known pair:
    prod_j 1 / ((count + 2) * (d_j + count)) over the path degrees."""
    p = 1.0
    for d in degrees:
        p /= (count + 2) * (d + count)
    return p
