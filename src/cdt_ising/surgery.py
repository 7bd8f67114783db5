"""Triangle-pair insertions, edge collapses, and randomized reconstruction.

An elementary insertion at an internal vertex v picks one upward edge slot
and one downward edge slot of v, splits v along that wedge, and fills the
slit with two triangles sharing a fresh horizontal edge.  The new vertex sits
immediately to the right of v, the two chosen neighbors each gain exactly one
edge, and the triangle count grows by 2.  Collapsing the fresh horizontal
edge undoes the insertion exactly.

A k-fold insertion applies k slot pairs at the same vertex.  With both slot
lists nondecreasing (repeats allowed) it has a closed form: the k up slots
cut the vertex's fan into k+1 consecutive pieces and the k down slots cut
its down edges likewise, producing a horizontal chain of k new vertices
whose fan intervals partition the original wedge.  The result equals k
elementary insertions applied from the largest slots down.

``apply_modification`` performs such insertions along an embedded locally
geodesic path.  A host caches its embedding of each path neighbourhood in
its ``__dict__``, so applying many plans to one host traces the path once.
``randomized_reconstruction`` is the random walk that undoes them: at each
arrival it picks one of (insert_count + 2) options -- the
(insert_count + 1) placements of a horizontal-run contraction next to the
current vertex, or nothing.  An attempt's result is a function of its draws,
so a modified triangulation keeps one branch tree per (reference, path,
count): attempts descend it with their draws and run the walk only where it
has no branch yet, and ``reconstruction_success_probability`` sums the
weights of its successful leaves, filling in every branch it lacks.  An
attempt draws straight from its generator's bit generator with the bounded
draw numpy's ``Generator.integers`` runs (``_below`` in ``rng``), so its
draws are those of ``integers`` without numpy's per-call cost.  Results
are shared frozen objects, and the tree lives as long as the triangulation.
The modified triangulation also records its last checked target, so a run
of attempts with the same reference, path items and count checks them and
hashes the reference's key once, not once per attempt; a tuple path that is
the very tuple recorded is taken at once.  Beside that record it keeps the
draw function of its last attempt, rebuilt only when an attempt's generator
has another bit generator, so a run of attempts on one generator (or on one
re-keyed ``TrialKeys`` generator) builds it once.

Private routines carry the graph work.  ``_slots`` lists a vertex's edge
slots by side, on a triangulation's strips and on scratch ones alike; the
path encoding, the embedding, the insertion sites and the walk's steps all
read it.  ``_thaw`` copies a triangulation's list of strips and no strip:
``_insert_run`` makes a k-fold insertion in one pass (``insert_pairs`` and
``apply_modification`` run it), and ``_collapse_run`` collapses a
horizontal run in one pass (``collapse_run``, ``collapse_horizontal_edge``
and the reconstruction walk run it).  Each builds the two strips it changes
once, as the tuples of tuples a result keeps, and puts them in the list in
place of the old ones: the split or merged strip is cut from tuple slices
that share every fan it leaves untouched, and the strip below is rebuilt
with its relabel.  Every other strip stays the host's, which nothing
writes.  ``_walk`` is the reconstruction walk: it takes its draws from a
known prefix and then from a callback, and writes its branch into the tree.

Arguments are checked once, at the public boundary: vertices, counts, paths,
insertion plans and slots are read as integers there, and ``_insert_run`` is
the one place that checks a slot's range, at the ends of the sorted slot
lists.  The triangulations built here come from a checked host and checked
slots, so they are built through ``Triangulation._trusted``, with no second
check of their fans.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from .percolation import is_locally_geodesic
from .rng import _below, _checked_int, _checked_ints
from .triangulation import Triangulation, _down_slot_entries, _rotate_fans

Vertex = tuple[int, int]


# -- scratch strips ------------------------------------------------------------


def _thaw(t: Triangulation) -> tuple[list[int], list]:
    """Scratch sizes and fans of ``t``: a list of ``t``'s own strips, which a
    surgery replaces, never edits."""
    return list(t.level_sizes), list(t.fans)


def _insert_run(
    sizes: list[int], fans: list, level: int, pos: int, ups: list[int], downs: list[int]
) -> None:
    """k-fold insertion at (level, pos) with nondecreasing up and down slot lists.

    The new vertices land at pos+1..pos+k.  With ups u_1..u_k, vertex pos+j
    takes the up fan slots u_j..u_{j+1} (u_0 = 0, u_{k+1} = the last slot),
    so a chosen up edge is shared by two neighbouring fans.  A down slot of
    rank r becomes the edges to pos+a..pos+b, a = #{down < r} and
    b = #{down <= r}: one edge, or a run of duplicates when r was chosen.
    Both strips are built once, as tuples; the split one shares the fans
    around ``pos``.  Sorted lists are in range when their ends are.
    """
    strip = fans[level]
    fan = strip[pos]
    down = _down_slot_entries(fans, sizes, level, pos)
    if ups and not (0 <= ups[0] and ups[-1] < len(fan) and 0 <= downs[0] and downs[-1] < len(down)):
        end = 0 if min(ups[0], downs[0]) < 0 else -1
        raise ValueError(f"slot pair ({ups[end]}, {downs[end]}) out of range for degree split")
    k = len(ups)
    cuts = [0, *ups, len(fan) - 1]
    fans[level] = strip[:pos] + tuple([fan[a:b + 1] for a, b in zip(cuts, cuts[1:])]) + strip[pos + 1:]
    below = [tuple([q + k if q > pos else q for q in lower]) for lower in fans[level - 1]]
    # right to left, so that a widened entry leaves the indices before it valid
    for (i, idx), r in sorted(zip(down, range(len(down))), reverse=True):
        widened = tuple(range(pos + bisect_left(downs, r), pos + bisect_right(downs, r) + 1))
        below[i] = below[i][:idx] + widened + below[i][idx + 1:]
    fans[level - 1] = tuple(below)
    sizes[level] += k


def _collapse_run(
    sizes: list[int], fans: list, level: int, start: int, count: int, walk: list[Vertex]
) -> None:
    """Collapse ``count`` consecutive horizontal edges from ``start``, in place.

    The run's vertices start..start+count merge into ``start``.  A run past
    the wrap edge (k-1, 0) is first relabelled to start at position 0, so
    the merged vertex lands at 0.  In the strip below, the edge to q under
    each removed triangle (q-1, q) is dropped; then one map relabels the
    level, in the fans and in ``walk`` alike.  ``fans`` holds tuple strips,
    as ``_thaw`` gives them.  Both strips are built once, as tuples; the
    merged one shares the fans outside the run.
    """
    k = sizes[level]
    start %= k
    if start + count >= k:
        _rotate_fans(sizes, fans, level, -start)
        walk[:] = [(lvl, (p - start) % k if lvl == level else p) for lvl, p in walk]
        start = 0
    end = start + count
    # labels up to start stay, the run's take start, the rest move down by count
    relabel = [*range(start + 1), *[start] * count, *range(start + 1, k - count)]
    strip = fans[level]
    run = strip[start:end + 1]
    assert all(a[-1] == b[0] for a, b in zip(run, run[1:])), "fans must share their boundary"
    fans[level] = strip[:start] + (run[0] + tuple([q for f in run[1:] for q in f[1:]]),) + strip[end + 1:]
    below = fans[level - 1]
    edges = sum(map(len, below))
    # drop the edge to q under each removed triangle (q-1, q)
    fans[level - 1] = below = tuple(tuple([relabel[q] for a, q in zip((None, *lower), lower)
                                           if not (a == q - 1 and start < q <= end)]) for lower in below)
    assert sum(map(len, below)) == edges - count, "no triangle below a collapsed edge"
    walk[:] = [(lvl, relabel[p] if lvl == level else p) for lvl, p in walk]
    sizes[level] -= count


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


def _check_internal(t: Triangulation, level: int, pos: int) -> tuple[int, int]:
    """(level, pos) as ints; ValueError unless a vertex of t off levels 0 and top."""
    level, pos = t._check_vertex(level, pos)
    if not 0 < level < t.top_level:
        raise ValueError("surgery needs an internal vertex")
    return level, pos


def insertion_sites(t: Triangulation, level: int, pos: int) -> list[InsertionSite]:
    """All d_up x d_dn elementary insertion sites at an internal vertex.

    Slots, not neighbor identities, enumerate the sites: parallel edges give
    distinct sites.
    """
    _check_internal(t, level, pos)
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
    across the list; repeated slots mean repeated use of the same edge.  The
    fields are stored as ints (numpy integers are read as ints); whether the
    slots exist at the vertex is checked when the plan is applied.
    """

    level: int
    pos: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        level = _checked_int(self.level, "insertion level", 0)
        pos = _checked_int(self.pos, "insertion position", 0)
        pairs = _checked_ints(self.pairs, "insertion slots", 2)
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError("each insertion pair must be (up slot, down slot)")
        ups, downs = [p[0] for p in pairs], [p[1] for p in pairs]
        if min(ups + downs, default=0) < 0:
            raise ValueError("insertion slots must be >= 0")
        if ups != sorted(ups) or downs != sorted(downs):
            raise ValueError("slot lists must be nondecreasing (left to right)")
        for name, value in (("level", level), ("pos", pos), ("pairs", pairs)):
            object.__setattr__(self, name, value)


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
    level, pos = _check_internal(t, insertion.level, insertion.pos)
    sizes, fans = _thaw(t)
    pairs = insertion.pairs
    _insert_run(sizes, fans, level, pos, [iu for iu, _ in pairs], [jd for _, jd in pairs])
    return InsertResult(Triangulation._trusted(sizes, fans), level, pos + 1, len(pairs))


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
    level, start = _check_internal(t, level, start)
    count = _checked_int(count, "count", 1)
    if t.level_sizes[level] < count + 1:
        raise ValueError("level too small for the requested run")
    sizes, fans = _thaw(t)
    _collapse_run(sizes, fans, level, start, count, [])
    return Triangulation._trusted(sizes, fans)


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
    path = _checked_path(path)
    if not path or path[0] != (0, 0):
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
    threshold = _checked_int(threshold, "threshold", 0)
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
    insertions stretch their levels.  The insertions share one set of thawed
    fans.  ``count``, ``threshold`` and the plans' keys are checked here, and
    each plan's slots are read once as integers and sorted; the insertion
    takes the two sorted lists as they are and refuses a slot out of the
    vertex's range (``_insert_run``).  The result is built from fans made
    from checked input, so it is not validated again.  The host caches its
    embedding of each ``pn`` (None included) for as long as it lives.
    """
    count = _checked_int(count, "count", 1)
    embeddings = t.__dict__.setdefault("_embeddings", {})
    trace = embeddings.get(pn, False)
    if trace is False:
        trace = embeddings[pn] = embed(pn, t)
    if trace is None:
        raise ValueError("path neighborhood does not embed in the host")
    eligible = modified_indices(pn, threshold)
    if sorted(plans) != eligible:
        raise ValueError(f"plans must cover exactly the eligible indices {eligible}")
    shifts: dict[int, list[tuple[int, int]]] = {}  # level -> [(pos, amount)]
    sizes, fans = _thaw(t)
    for j in reversed(eligible):
        try:
            ups, downs = plans[j]
        except TypeError:  # not a pair of slot lists
            raise ValueError(f"the plan for path index {j} must be (up slots, down slots)") from None
        ups = sorted(_checked_ints(ups, "plan slots"))
        downs = sorted(_checked_ints(downs, "plan slots"))
        if len(ups) != count or len(downs) != count:
            raise ValueError(f"vertex at path index {j} needs exactly {count} pairs")
        lvl, pos = trace[j]
        for at, amount in shifts.get(lvl, []):
            if pos > at:
                pos += amount
        _insert_run(sizes, fans, lvl, pos, ups, downs)
        shifts.setdefault(lvl, []).append((pos, count))
    return Triangulation._trusted(sizes, fans)


def enumerate_plans(t: Triangulation, vertex: Vertex, count: int):
    """All k-fold insertion plans at one vertex of the given triangulation."""
    ((level, pos),) = _checked_path((vertex,))
    deg = t.vertex_degree(*_check_internal(t, level, pos))
    count = _checked_int(count, "count", 1)
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
# current vertex's slot count), then the option (out of count + 2).  A branch
# table maps each draw prefix met at a step boundary to the next step's slot
# count, or to the finished result.
Draws = tuple[int, ...]


def _walk(
    t_prime: Triangulation,
    reference_key,
    path: tuple[Vertex, ...],
    count: int,
    table: dict[Draws, int | ReconstructionResult],
    known: Draws,
    draw: Callable[[int], int],
) -> ReconstructionResult:
    """The reconstruction walk, its draws taken from ``known`` and then from
    ``draw(n)`` (a draw in range(n)).

    Each step draws its slot and its option at the step's start.  The walk
    writes its branch into ``table``: each step's slot count under the draws
    before the step, and the result under all of them.
    """
    cur: Vertex = (0, 0)
    walk: list[Vertex] = [cur]
    sizes, fans = _thaw(t_prime)
    contractions: list[tuple[int, int, int]] = []
    draws: Draws = ()
    result = None
    for _ in range(len(path) - 1):
        slots = [w for side in _slots(sizes, fans, cur).values() for w in side]
        table[draws] = len(slots)
        slot, choice = known[len(draws):len(draws) + 2] or (draw(len(slots)), draw(count + 2))
        draws += (slot, choice)
        cur = slots[slot]
        walk.append(cur)
        if choice == count + 1:
            continue  # do nothing
        lvl, pos = cur
        if not 1 <= lvl <= len(sizes) - 2 or sizes[lvl] < count + 1:
            break  # an impossible contraction aborts the attempt
        start = (pos - count + choice) % sizes[lvl]
        contractions.append((lvl, start, count))
        _collapse_run(sizes, fans, lvl, start, count, walk)
        cur = walk[-1]
    else:
        if tuple(walk) == path:
            result = Triangulation._trusted(sizes, fans)
    ok = result is not None and result.canonical_key == reference_key
    table[draws] = node = ReconstructionResult(ok, tuple(walk), result, tuple(contractions))
    return node


def _checked_path(path) -> tuple[Vertex, ...]:
    """``path`` as a tuple of (level, pos) ints; ValueError for other coordinates."""
    path = _checked_ints(path, "path coordinates", 2)
    if any(len(v) != 2 for v in path):
        raise ValueError("path vertices must be (level, pos) pairs")
    return path


def _branches(t_prime: Triangulation, reference: Triangulation, reference_path, count):
    """The key (reference canonical key, path, count) and ``t_prime``'s branch
    table for it, empty at first; the table lives as long as ``t_prime``."""
    key = (reference.canonical_key, _checked_path(reference_path), _checked_int(count, "count", 1))
    return key, t_prime.__dict__.setdefault("_reconstruction_branches", {}).setdefault(key, {})


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

    The result is a function of the draws, so the attempt descends the one
    branch tree of (reference, path, count) on ``t_prime``: it draws each
    step's slot and option from ``rng`` as the plain walk would, and runs
    the walk only where the tree has no node for its draws yet, writing the
    new branch in.  ``reconstruction_success_probability`` fills the whole
    tree, so attempts after it run no walk.  Results are shared frozen
    objects (their ``triangulation`` too).

    ``rng`` must be a ``np.random.Generator``.  Each draw equals
    ``int(rng.integers(0, n))`` and leaves ``rng`` where that call would,
    but is taken from the bit generator's ``next_uint32`` by the ``rng``
    module's ``_below``; the attempt holds ``rng.bit_generator.lock``
    throughout, as numpy's own methods hold it per call.

    ``t_prime`` keeps a record of its last target that passed the checks
    (the reference object, the path items, the key and the branch table),
    so a run of attempts on one target checks it once.  A call reuses the
    record only for the same ``reference`` object, a plain int ``count``
    equal to the key's, and a path that is the recorded tuple itself or a
    list or tuple whose items are, one for one, the very objects recorded
    (a list edited in place is read item by item again); a record is kept
    only when every item is a plain ``(int, int)`` tuple.  Those are
    immutable and the reference is frozen, so a reused target is the one
    that was checked; any other call is checked again (``_branches``).  The
    record holds the reference for as long as ``t_prime`` lives or until
    the next target replaces it.

    Beside the record, ``t_prime`` keeps the last attempt's draw function,
    which holds its bit generator; an attempt rebuilds it only when
    ``rng.bit_generator`` is another one.  It draws through a pointer to
    the bit generator's state, which a ``state`` assignment (as
    ``TrialKeys.keyed`` makes) rewrites in place, so a re-keyed generator
    keeps it.  It is not pickled with ``t_prime``.
    """
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    kept = t_prime.__dict__
    last = kept.get("_reconstruction_last")  # (reference, items, key, table)
    if (last is not None and last[0] is reference and type(count) is int and count == last[2][2]
            and (reference_path is last[1]
                 or type(reference_path) in (list, tuple) and len(reference_path) == len(last[1])
                 and all(map(operator.is_, reference_path, last[1])))):
        key, table = last[2], last[3]
    else:
        key, table = _branches(t_prime, reference, reference_path, count)
        if type(reference_path) in (list, tuple) and all(
                type(v) is tuple and len(v) == 2 and type(v[0]) is int and type(v[1]) is int
                for v in reference_path):
            kept["_reconstruction_last"] = (reference, tuple(reference_path), key, table)
    bits = rng.bit_generator
    below = kept.get("_reconstruction_below")
    if below is None or below.bit_generator is not bits:
        below = kept["_reconstruction_below"] = _below(rng)
    options = key[2] + 2
    draws: Draws = ()
    with bits.lock:
        node = table.get(draws)
        while isinstance(node, int):  # the slot count of the next step
            draws += (below(node), below(options))
            node = table.get(draws)
        if node is None:
            node = _walk(t_prime, *key, table, draws, below)
    return node


def reconstruction_success_probability(
    t_prime: Triangulation,
    reference: Triangulation,
    reference_path,
    count: int = INSERT_COUNT,
) -> float:
    """The exact per-attempt success probability of ``randomized_reconstruction``.

    Sums the weights of the successful leaves of the branch tree that
    attempts descend, depth first; a step weighs 1 / (slot count *
    (count + 2)).  A node not yet in the tree is filled by one walk that
    takes draw 0 past it, so the tree is left complete on ``t_prime`` and
    one walk runs per branch.  Branches multiply along the path, so this
    suits small fixtures.
    """
    key, table = _branches(t_prime, reference, reference_path, count)
    wins: list[float] = []
    pending: list[tuple[Draws, float]] = [((), 1.0)]
    while pending:
        draws, weight = pending.pop()
        if draws not in table:
            _walk(t_prime, *key, table, draws, lambda n: 0)
        node = table[draws]
        if isinstance(node, int):  # one child per slot and option
            pending += [(draws + (s, c), weight / node / (key[2] + 2))
                        for s in range(node) for c in range(key[2] + 2)]
        elif node.success:
            wins.append(weight)
    return math.fsum(wins)


def reconstruction_probability_bound(degrees, count: int = INSERT_COUNT) -> float:
    """The guaranteed per-attempt success probability for a known pair:
    prod_j 1 / ((count + 2) * (d_j + count)) over the path degrees, each
    at least 2 (a vertex's two horizontal slots)."""
    count = _checked_int(count, "count", 1)
    p = 1.0
    for d in degrees:
        p /= (count + 2) * (_checked_int(d, "path degrees", 2) + count)
    return p
