"""Critical geometric branching process: laws, generating functions, samplers.

The offspring law is Geom(1/2) on {0, 1, 2, ...}, i.e. p_k = (1/2)^(k+1).
Its mean is exactly 1, so the process is critical.  Conditioning the process
to survive forever yields a tree with a single infinite spine; each spine
vertex carries an independent pair of finite-subtree lists, one list on each
side of the spine child.  Truncating everything at a finite height gives the
``SpineForest`` sampled here.

``sample_spine_forest`` draws that tree level by level: per level, the
spine's (left, right) side-child counts, then one batch of Geom(1/2) child
counts for the whole level in planar order, one double per variate, read
from one ``rng.random`` block that ``_grow`` extends as the tree needs.

``_spine_passes`` is the trial driver of every Monte Carlo command that
draws these trees per trial: it walks the tree of ``stream(seed, i)`` for
many trials at once, one row of uniforms per trial, and grows a row, from
the trial's Philox key, when its tree outgrows it.  ``percolation``'s reach
estimator and the level-size histograms of ``sample`` and ``stats`` read it.

Two exact laws are exposed for validation:

* ``psi_n(n, s)``: generating function of the generation-n population of the
  unconditioned process, (n - (n-1)s) / (n+1 - ns).
* ``level_size_pmf(n, k)``: law of the generation-n size of the conditioned
  process, k * n^(k-1) / (n+1)^(k+1), the coefficient law of s * psi_n'(s).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .rng import TrialKeys, _checked_int, _checked_ints


def offspring_pmf(k: int) -> float:
    """P(offspring count = k) for the critical geometric law, k >= 0."""
    k = _checked_int(k, "offspring count", 0)
    return 0.5 ** (k + 1)


def offspring_gf(s: float) -> float:
    """Generating function sum_k (1/2)^(k+1) s^k = 1 / (2 - s)."""
    return 1.0 / (2.0 - s)


def psi_n(n: int, s: float) -> float:
    """Generating function of the generation-n size, started from one particle.

    Closed form of the n-fold iterate of ``offspring_gf``:
    (n - (n-1)s) / (n+1 - ns).  In particular psi_n(0) = n/(n+1) is the
    probability of extinction by generation n.
    """
    n = _checked_int(n, "generation index", 1)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"argument must lie in [0, 1], got {s}")
    return (n - (n - 1) * s) / (n + 1 - n * s)


def level_size_pmf(n: int, k: int) -> float:
    """P(generation-n size = k) for the process conditioned to survive.

    Equals k * n^(k-1) / (n+1)^(k+1), k >= 1: the size-biased version of the
    unconditioned generation-n law.  The conditioned process never dies, so
    k = 0 is rejected.
    """
    n = _checked_int(n, "generation index", 1)
    k = _checked_int(k, "conditioned level size", 1)
    # Big-int powers keep the ratio exact before the final float division.
    return k * pow(n, k - 1) / pow(n + 1, k + 1)


def size_biased_pmf(k: int) -> float:
    """Size-biased offspring law k * (1/2)^(k+1), k >= 1 (root law on the spine)."""
    k = _checked_int(k, "size-biased count", 1)
    return k * 0.5 ** (k + 1)


@dataclass(frozen=True)
class FiniteTree:
    """A finite rooted plane tree, nodes indexed in depth-first preorder.

    ``out_degrees[i]`` is the child count of node i and ``heights[i]`` its
    distance from the root.  The preorder out-degree sequence fully encodes
    the tree; heights are stored for convenience and validated on creation.
    """

    out_degrees: tuple[int, ...]
    heights: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.out_degrees:
            raise ValueError("a tree has at least its root")
        if len(self.out_degrees) != len(self.heights):
            raise ValueError("out_degrees and heights must have equal length")
        if self.heights[0] != 0:
            raise ValueError("root height must be 0")
        # Decode the preorder sequence with an explicit stack; this checks
        # that the encoding is a single well-formed tree and that each child
        # sits one level above its parent.
        stack = [(0, self.out_degrees[0])]
        for i in range(1, len(self.out_degrees)):
            while stack and stack[-1][1] == 0:
                stack.pop()
            if not stack:
                raise ValueError("out-degree sequence encodes more than one tree")
            parent, remaining = stack[-1]
            if self.heights[i] != self.heights[parent] + 1:
                raise ValueError("child height must be parent height + 1")
            stack[-1] = (parent, remaining - 1)
            stack.append((i, self.out_degrees[i]))
        while stack and stack[-1][1] == 0:
            stack.pop()
        if stack:
            raise ValueError("out-degree sequence is truncated")

    @property
    def node_count(self) -> int:
        return len(self.out_degrees)

    @property
    def max_height(self) -> int:
        return max(self.heights)


@dataclass(frozen=True)
class SpineForest:
    """The survive-forever tree truncated at height ``levels``.

    ``out_degrees[n][i]`` is the child count of the i-th vertex at level n,
    n = 0..levels-1, in planar order; the children of vertex i occupy
    consecutive positions at level n+1, as in ``LevelForest``.
    ``spine_positions[n]`` is the planar position of the spine vertex at
    level n = 0..levels.  ``left[i]`` / ``right[i]`` are the finite trees
    hanging off spine vertex i, rooted at level i+1, to the left and right of
    the spine child, each truncated at absolute height ``levels``; they are
    derived on first access.
    """

    levels: int
    out_degrees: tuple[tuple[int, ...], ...]
    spine_positions: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError("need at least one level")
        if len(self.out_degrees) != self.levels or len(self.spine_positions) != self.levels + 1:
            raise ValueError("need out-degrees for levels 0..levels-1 and a spine position per level")

    def spine_child_count(self, i: int) -> int:
        return self.out_degrees[i][self.spine_positions[i]]

    @cached_property
    def level_sizes(self) -> tuple[int, ...]:
        return (1, *map(sum, self.out_degrees))

    def to_forest(self) -> "LevelForest":
        return LevelForest(self.out_degrees)

    @cached_property
    def _sides(self) -> tuple[tuple[tuple[FiniteTree, ...], ...], tuple[tuple[FiniteTree, ...], ...]]:
        # first child position of every vertex, per level
        firsts = [list(accumulate(d[:-1], initial=0)) for d in self.out_degrees]

        def subtree(level: int, pos: int) -> FiniteTree:
            degs: list[int] = []
            heights: list[int] = []
            stack = [(level, pos)]
            while stack:
                n, i = stack.pop()
                d = self.out_degrees[n][i] if n < self.levels else 0
                degs.append(d)
                heights.append(n - level)
                if d:
                    s = firsts[n][i]
                    stack.extend((n + 1, c) for c in range(s + d - 1, s - 1, -1))
            return FiniteTree(tuple(degs), tuple(heights))

        lefts = []
        rights = []
        for i in range(self.levels):
            s = firsts[i][self.spine_positions[i]]
            child = self.spine_positions[i + 1]
            lefts.append(tuple(subtree(i + 1, c) for c in range(s, child)))
            end = s + self.spine_child_count(i)
            rights.append(tuple(subtree(i + 1, c) for c in range(child + 1, end)))
        return tuple(lefts), tuple(rights)

    @property
    def left(self) -> tuple[tuple[FiniteTree, ...], ...]:
        return self._sides[0]

    @property
    def right(self) -> tuple[tuple[FiniteTree, ...], ...]:
        return self._sides[1]


@dataclass(frozen=True)
class LevelForest:
    """A plane forest given by per-level out-degree lists (single level-0 root).

    ``out_degrees[n][i]`` is the child count of the i-th vertex at level n;
    the children of vertex i occupy consecutive positions at level n+1.  The
    root alone is ``LevelForest(())``, with no levels and level sizes (1,).
    """

    out_degrees: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "out_degrees", _checked_ints(self.out_degrees, "out-degrees", 2))
        if self.out_degrees and len(self.out_degrees[0]) != 1:
            raise ValueError("forest must have exactly one root at level 0")
        sizes = self.level_sizes
        for n, k in enumerate(sizes):
            if k < 1:
                raise ValueError(f"level {n} is empty")
        for n, lst in enumerate(self.out_degrees):
            if len(lst) != sizes[n]:
                raise ValueError(f"out-degree list at level {n} has wrong length")
            if any(d < 0 for d in lst):
                raise ValueError("out-degrees must be >= 0")

    @cached_property
    def level_sizes(self) -> tuple[int, ...]:
        sizes = [1]
        for lst in self.out_degrees:
            sizes.append(sum(lst))
        return tuple(sizes)

    @property
    def levels(self) -> int:
        return len(self.out_degrees)


def _geometric_half(u: np.ndarray) -> np.ndarray:
    """``rng.geometric(0.5) - 1`` from the uniforms that call consumes.

    numpy draws Geom(p), p >= 1/3, by search: one double U per variate and
    X = the first x with U <= 1 - 2^-x, sums that are exact at p = 1/2.  So
    X - 1 = max(0, 1022 - e), e the biased exponent of 1 - U.
    """
    e = (1.0 - u).view(np.int64)
    e >>= 52
    np.subtract(1022, e, out=e)
    return np.maximum(e, 0, out=e)


def _prefix_sums(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Geom(1/2) counts of a uniform block ``u`` (or of each row of a
    2-D one) and their prefix sums along the row, led by a 0."""
    g = _geometric_half(u)
    c = np.zeros((*u.shape[:-1], u.shape[-1] + 1), np.int64)
    np.cumsum(g, axis=-1, out=c[..., 1:])
    return g, c


def _walk(c, levels: int, sizes: list[int], spine: list[int], o: int) -> int:
    """Walk the levels of ``sample_spine_forest`` that fit in a block.

    ``c`` holds the prefix sums of the block's Geom(1/2) counts and o the
    index of the next level's spine pair.  Level n reads 2 + k_n doubles
    (spine pair, then one per vertex) in O(1) reads of c; each level that
    fits appends k_{n+1} to ``sizes`` and the spine's position to ``spine``,
    until ``levels`` levels are walked.  Returns the index after the last
    level walked.
    """
    n = len(c) - 1
    k, p = sizes[-1], spine[-1]
    for _ in range(levels + 1 - len(sizes)):
        s = o + 2
        e = s + k
        if e > n:
            break
        a, q = c[o], c[s + p]
        # the level's counts, the spine's replaced by its total left + 1 + right
        k = c[e] - c[s + p + 1] + q - a + 1
        p = q - c[s] + c[o + 1] - a
        sizes.append(k)
        spine.append(p)
        o = e
    return o


def _degrees(g: np.ndarray, c, sizes: list[int], spine: list[int]) -> np.ndarray:
    """The flat out-degrees of the walked levels: each level's counts in
    ``g`` past its spine pair, the spine's entry set to its total (g is
    overwritten there)."""
    o, pairs, spots, totals = 0, [], [], []
    for k, p in zip(sizes, spine[:-1]):
        pairs += (o, o + 1)
        spots.append(o + 2 + p)
        totals.append(c[o + 2] - c[o] + 1)
        o += 2 + k
    g[spots] = totals
    keep = np.ones(o, bool)
    keep[pairs] = False
    return g[:o][keep]


def _first_block(levels: int) -> int:
    """Doubles drawn up front for a tree walked to ``levels``: about twice
    what its forest reads on average, about what a reach trial's forest and
    marks read."""
    return 2 * (levels + 1) ** 2


def _grow(rng: np.random.Generator, levels: int, u, sizes: list[int], spine: list[int], o: int):
    """Walk the tree of ``sample_spine_forest`` on to ``levels`` from index
    o of the block ``u``, ``sizes`` and ``spine`` holding the levels walked
    so far.  ``rng`` continues the block, which is at least doubled whenever
    a level runs past it.  Returns (u, g, c, end): the block, its counts and
    prefix sums, and the count of doubles the forest read."""
    while True:
        g, c = _prefix_sums(u)
        c = memoryview(c)
        o = _walk(c, levels, sizes, spine, o)
        if len(sizes) > levels:
            return u, g, c, o
        u = np.concatenate((u, rng.random(max(len(u), o + 2 + sizes[-1] - len(u)))))


_PASS = 2**16  # doubles per pass of _spine_passes (one row if a row is longer)


def _spine_passes(keys: TrialKeys, trials: range, levels: int):
    """The trees of ``sample_spine_forest(stream(seed, i), levels)`` for i in
    ``trials``, ``keys`` being ``TrialKeys(seed)``, in passes of one or more
    trials.

    Each trial's first ``_first_block(levels)`` doubles fill a row of one
    array, turned into Geom(1/2) counts and prefix sums at once, and
    ``_walk`` reads the tree from each row; a tree that outgrows its row is
    grown from the trial's Philox key at the row's end.  A pass holds at
    most ``_PASS`` doubles in each of its three arrays: about 1.5 MiB.
    Yields per pass a list of (sizes, spine, key, u, g, c, end) per trial,
    as ``_grow`` returns them, the row ``u`` continuing the stream past the
    forest.
    """
    row = _first_block(levels)
    step = max(1, _PASS // row)
    for lo in range(trials.start, trials.stop, step):
        trial_keys = [keys.key(i) for i in range(lo, min(lo + step, trials.stop))]
        u = np.empty((len(trial_keys), row))
        for key, r in zip(trial_keys, u):
            keys.keyed(key).random(out=r)
        g, c = _prefix_sums(u)
        walks = []
        for key, r, gt, ct in zip(trial_keys, u, g, map(memoryview, c)):
            sizes, spine = [1], [0]
            end = _walk(ct, levels, sizes, spine, 0)
            if len(sizes) <= levels:
                r, gt, ct, end = _grow(keys.keyed(key, row), levels, r, sizes, spine, end)
            walks.append((sizes, spine, key, r, gt, ct, end))
        yield walks


def sample_spine_forest(rng: np.random.Generator, levels: int) -> SpineForest:
    """Sample the conditioned tree up to ``levels``, one level at a time.

    At each level n = 0..levels-1 the spine vertex draws its left and right
    side-child counts as two independent Geom(1/2) variables, and every
    other vertex draws its child count from Geom(1/2).  The spine's total
    k = left + 1 + right is then size-biased geometric and its child sits
    uniformly among the k children, at (children of the vertices left of
    the spine) + left.  The non-spine vertices of a level are the roots and
    inner nodes of independent unconditioned side trees, so this is the law
    of the spine plus side trees truncated at height ``levels``.

    Draw order per level n (pinned for reproducibility): the spine pair
    ``rng.geometric(0.5, size=2)``, then one ``rng.geometric(0.5, size=k_n)``
    batch in planar order, whose entry at the spine position is replaced by
    the spine's total.  numpy takes one double per Geom(1/2) variate, so
    the tree is read from one ``rng.random`` block, and ``rng`` is left where
    those calls leave it: the same stream and trees as before.
    """
    levels = _checked_int(levels, "levels", 1)
    state = rng.bit_generator.state
    sizes, spine = [1], [0]
    _, g, _, end = _grow(rng, levels, rng.random(_first_block(levels)), sizes, spine, 0)
    rng.bit_generator.state = state
    rng.random(end)
    flat = g[:end].tolist()
    out = []
    o = 0
    for k, p in zip(sizes, spine[:-1]):  # level n: spine pair at o, then k_n counts
        level = flat[o + 2 : o + 2 + k]
        level[p] = flat[o] + flat[o + 1] + 1
        out.append(tuple(level))
        o += 2 + k
    return SpineForest(levels, tuple(out), tuple(spine))
