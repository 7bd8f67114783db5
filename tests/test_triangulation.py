"""Tests for the forest <-> triangulation codec, degrees, dual graph, and
exhaustive enumeration."""

import math
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdt_ising.branching import LevelForest, sample_spine_forest
from cdt_ising.ising import gibbs_exact
from cdt_ising.rng import stream
from cdt_ising.surgery import Insertion, insert_pairs, insertion_sites
from cdt_ising.triangulation import (
    MU_CRITICAL,
    Triangulation,
    enumerate_triangulations,
    forest_to_triangulation,
    forest_weight_product,
    from_text,
    rotate_level,
    to_text,
    triangulation_to_forest,
)


def csr_rows(offsets, *columns) -> tuple[tuple, ...]:
    """A CSR table as one tuple per row: the row's entries of the one
    column, or per entry a tuple across the columns."""
    offsets = offsets.tolist()
    cells = columns[0].tolist() if len(columns) == 1 else list(zip(*(c.tolist() for c in columns)))
    return tuple(tuple(cells[lo:hi]) for lo, hi in zip(offsets, offsets[1:]))


def assert_checked_like_user_input(t: Triangulation) -> None:
    """A library-built triangulation passes every check of the public
    constructor, holds tuples all the way down, and equals and hashes like
    the checked copy."""
    t._validate()
    assert type(t.level_sizes) is tuple and type(t.fans) is tuple
    assert all(type(s) is tuple and all(type(f) is tuple for f in s) for s in t.fans)
    assert all(type(x) is int for x in (*t.level_sizes, *(q for s in t.fans for f in s for q in f)))
    checked = Triangulation(t.level_sizes, t.fans)
    assert checked == t and hash(checked) == hash(t)


def dual_rows(t: Triangulation) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """``t.dual`` as one tuple per triangle of (crossed, neighbour, seam)."""
    offsets, neighbour, crossed, seam = t.dual
    return csr_rows(offsets, crossed, neighbour, seam)


def sum_deg_plus_one(t: Triangulation) -> int:
    return sum(
        t.out_degree(n, i) + 1
        for n in range(t.top_level)
        for i in range(t.level_sizes[n])
    )


def count_forests_recursive(levels: int, width_cap: int) -> int:
    """Independent enumerator: count out-degree assignments vertex by vertex
    (no composition formulas, no shared code with the library)."""

    def assign(level: int, k_cur: int) -> int:
        if level == levels:
            return 1
        total = 0
        for k_next in range(1, width_cap + 1):
            # distribute k_next children over k_cur ordered vertices
            def place(vertex: int, remaining: int) -> int:
                if vertex == k_cur - 1:
                    return assign(level + 1, k_next)
                acc = 0
                for d in range(remaining + 1):
                    acc += place(vertex + 1, remaining - d)
                return acc

            total += place(0, k_next)
        return total

    return assign(0, 1)


def test_all_ones_chain():
    t = forest_to_triangulation(((1,), (1,)))
    assert t.level_sizes == (1, 1, 1)
    assert t.triangle_count == 4
    assert [len(strip) for strip in fan_walk_triangles(t)] == [2, 2]
    assert len(dual_rows(t)) == 4
    d = t.vertex_degree(1, 0)
    assert (d.up, d.down, d.total) == (2, 2, 6)


def test_root_fan_width():
    t = forest_to_triangulation(((3,),))
    assert t.level_sizes == (1, 3)
    assert t.triangle_count == 4  # k_0 + k_1 per strip


def test_boundary_degrees_flagged():
    t = forest_to_triangulation(((2,), (1, 1)))
    root = t.vertex_degree(0, 0)
    assert root.boundary and root.total is None and root.down is None
    top = t.vertex_degree(2, 0)
    assert top.boundary and top.up is None


def test_internal_degrees_positive():
    for i in range(50):
        t = forest_to_triangulation(sample_spine_forest(stream(21, i), 4))
        for n in range(1, t.top_level):
            for p in range(t.level_sizes[n]):
                d = t.vertex_degree(n, p)
                assert d.up >= 1 and d.down >= 1
                assert d.total == d.up + d.down + 2


def test_up_degree_sums_count_strip_triangles():
    for i in range(50):
        t = forest_to_triangulation(sample_spine_forest(stream(22, i), 5))
        for n in range(t.top_level):
            s = sum(len(t.fans[n][i_]) for i_ in range(t.level_sizes[n]))
            assert s == t.level_sizes[n] + t.level_sizes[n + 1]


def fan_edge_pairs(t: Triangulation) -> list[tuple[int, int]]:
    """Reference edge list, walking the fans: flat endpoints of each level's
    horizontal edges, then of each strip's fan entries in fan order, loops
    included, diagonals from their lower end."""
    offs = t.level_offsets
    pairs = [(offs[n] + c, offs[n] + (c + 1) % k) for n, k in enumerate(t.level_sizes) for c in range(k)]
    for n, strip in enumerate(t.fans):
        for i, fan in enumerate(strip):
            pairs.extend((offs[n] + i, offs[n + 1] + q) for q in fan)
    return pairs


def fan_walk_triangles(t: Triangulation) -> list[list[tuple[int, int, int]]]:
    """Reference triangles, walking the fans: per strip, each triangle's
    (diagonal before it, diagonal after it, horizontal edge) as indices into
    ``fan_edge_pairs``.  The triangle after a fan entry closes on the fan's
    next entry over a horizontal edge of the upper level; after a fan's last
    entry, on the next fan's first entry over one of the lower level."""
    pairs = fan_edge_pairs(t)
    horizontal = {pair: e for e, pair in enumerate(pairs[: t.vertex_count])}
    offs = t.level_offsets
    strips, e = [], t.vertex_count
    for n, strip in enumerate(t.fans):
        first, size = e, sum(map(len, strip))
        tris = []
        for i, fan in enumerate(strip):
            for j, q in enumerate(fan):
                if j + 1 < len(fan):
                    h = (offs[n + 1] + q, offs[n + 1] + fan[j + 1])
                else:
                    h = (offs[n] + i, offs[n] + (i + 1) % t.level_sizes[n])
                tris.append((e, first + (e + 1 - first) % size, horizontal[h]))
                e += 1
        strips.append(tris)
    return strips


def brute_force_tables(t: Triangulation, pairs):
    """Edge-keyed adjacency, degree split, distinct neighbours and
    loop-doubled degrees, read off the reference edge list."""
    adjacency = [[] for _ in range(t.vertex_count)]
    for e, (a, b) in enumerate(pairs):
        adjacency[a].append((e, b))
        if b != a:
            adjacency[b].append((e, a))
    level_of = [n for n, k in enumerate(t.level_sizes) for _ in range(k)]
    up, down, nbrs, total = [], [], [], []
    for v, edges in enumerate(adjacency):
        others = [level_of[o] for _, o in edges]
        up.append(others.count(level_of[v] + 1))
        down.append(others.count(level_of[v] - 1))
        nbrs.append(tuple(sorted({o for _, o in edges if o != v})))
        total.append(len(edges) + sum(1 for _, o in edges if o == v))
    return tuple(map(tuple, adjacency)), tuple(up), tuple(down), tuple(nbrs), total


def reference_dual(t: Triangulation) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Reference dual rows (crossed edge, neighbour, seam step) over the
    fan-walk triangles, matched by shared edge, in the documented order.
    The seam climbs from the root along fan starts: in each strip it is the
    first fan entry of the vertex the previous strip's seam ended on."""
    pairs = fan_edge_pairs(t)
    strips = fan_walk_triangles(t)
    sides: dict[int, list[int]] = {}
    for g, tri in enumerate(tri for strip in strips for tri in strip):
        for e in tri:
            sides.setdefault(e, []).append(g)
    rows, anchor = [], 0
    for strip in strips:
        seam = next(e for e in range(strip[0][0], len(pairs)) if pairs[e][0] == anchor)
        anchor = pairs[seam][1]
        for before, after, h in strip:
            g = len(rows)
            row = [(e, sum(sides[e]) - g, (e == after) - (e == before) if e == seam else 0)
                   for e in (before, after, h) if len(sides[e]) == 2]
            if before == strip[0][0]:  # the strip's first triangle
                row[:2] = row[1::-1]
            rows.append(tuple(row))
    return tuple(rows)


def reference_free_graph(t: Triangulation, pairs):
    """Every field of ``free_graph`` but the memo, edge by edge and vertex by vertex."""
    n_free = t.level_offsets[t.top_level]
    ia, ib, bv, bpos = [], [], [], []
    loops = 0
    nbrs = [[] for _ in range(n_free)]
    for a, b in pairs:
        if a >= n_free:
            continue
        if b >= n_free:
            bv.append(a)
            bpos.append(b - n_free)
        elif a == b:
            loops += 1
        else:
            ia.append(a)
            ib.append(b)
            nbrs[a].append(b)
            nbrs[b].append(a)
    classes = [[] for _ in range(6)]
    for n, k in enumerate(t.level_sizes[:-1]):
        for p in range(k):
            classes[3 * (n % 2) + (2 if p == k - 1 and k % 2 else p % 2)].append(t.level_offsets[n] + p)
    degree = [len(x) + bv.count(v) for v, x in enumerate(nbrs)]
    return (n_free, ia, ib, loops, bv, bpos, tuple(map(tuple, nbrs)),
            tuple(tuple(c) for c in classes if c), max(degree, default=0))


def relabelled(t: Triangulation) -> list[Triangulation]:
    """The same triangulation with every level rotated, and one with a pair
    inserted halfway up: strips whose first fan does not start at 0."""
    rotated = t
    for level in range(1, t.top_level + 1):
        rotated = rotate_level(rotated, level, level)
    level = t.top_level // 2
    sites = insertion_sites(t, level, 0)
    site = sites[len(sites) // 2]
    inserted = insert_pairs(t, Insertion(level, 0, ((site.up_slot, site.down_slot),)))
    return [rotated, inserted.triangulation]


@pytest.mark.parametrize("levels", [5, 31])
def test_graph_tables_match_primal_adjacency(levels):
    for i in range(10):
        sampled = forest_to_triangulation(sample_spine_forest(stream(25, levels, i), levels))
        for t in [sampled, *relabelled(sampled)]:
            pairs = fan_edge_pairs(t)
            a, b = t.edges
            assert list(zip(a.tolist(), b.tolist())) == pairs
            fg = t.free_graph
            for table in (t.primal_adjacency, t.neighbors, fg.neighbors, t.dual):
                assert not any(x.flags.writeable for x in table)
            assert not a.flags.writeable and not b.flags.writeable
            adjacency, up, down, nbrs, total = brute_force_tables(t, pairs)
            offsets, other, edge = t.primal_adjacency
            assert csr_rows(offsets, edge, other) == adjacency
            assert t.degree_split == (up, down)
            assert csr_rows(*t.neighbors) == nbrs
            assert dual_rows(t) == reference_dual(t)
            n_free = t.vertex_count - t.level_sizes[-1]
            assert t.mark_degrees.tolist() == total[:n_free]
            got = (fg.n_free, fg.ia.tolist(), fg.ib.tolist(), fg.n_loops, fg.bv.tolist(),
                   fg.bpos.tolist(), csr_rows(*fg.neighbors), fg.colour_classes, fg.max_degree)
            assert got == reference_free_graph(t, pairs)
            for v in range(t.vertex_count):
                level, pos = t.vertex_at(v)
                assert t.flat_index(level, pos) == v and 0 <= pos < t.level_sizes[level]
    assert any(strip[0][0] for t in relabelled(sampled) for strip in t.fans)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), levels=st.integers(1, 6), data=st.data())
def test_rotate_level_inverse_and_canonical(seed, levels, data):
    t = forest_to_triangulation(sample_spine_forest(stream(seed), levels))
    level = data.draw(st.integers(1, levels))
    shift = data.draw(st.integers(-3 * t.level_sizes[level], 3 * t.level_sizes[level]))
    r = rotate_level(t, level, shift)
    assert r.canonical_key == t.canonical_key
    assert rotate_level(r, level, -shift) == t


def test_roundtrip_and_sumdeg_random():
    for i in range(1000):
        sf = sample_spine_forest(stream(23, i), 6)
        t = forest_to_triangulation(sf)
        assert triangulation_to_forest(t).out_degrees == sf.to_forest().out_degrees
        assert sum_deg_plus_one(t) == t.triangle_count


def test_roundtrip_enumerated():
    for t, _ in enumerate_triangulations(2, 4):
        forest = triangulation_to_forest(t)
        assert forest_to_triangulation(forest) == t
        assert sum_deg_plus_one(t) == t.triangle_count


@st.composite
def out_degree_lists(draw):
    """Per-level out-degree lists of a forest with one root and no empty level."""
    lists = []
    k = 1
    for _ in range(draw(st.integers(1, 5))):
        degs = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
        if sum(degs) == 0:
            degs[draw(st.integers(0, k - 1))] = 1
        lists.append(tuple(degs))
        k = sum(degs)
    return tuple(lists)


@settings(max_examples=100, deadline=None)
@given(lists=out_degree_lists())
@example(lists=((1,), (1,), (1,)))  # one vertex on every level
@example(lists=((3,), (1, 1, 1)))  # an odd level of three
@example(lists=((2,), (1, 1), (0, 3)))  # an even level under an odd one
def test_colour_classes_are_a_proper_colouring(lists):
    t = forest_to_triangulation(lists)
    fg = t.free_graph
    classes = fg.colour_classes
    assert 1 <= len(classes) <= 6 and all(classes)
    assert sorted(v for c in classes for v in c) == list(range(fg.n_free))
    assert all(list(c) == sorted(c) for c in classes)  # flat order inside a class
    colour = {v: i for i, c in enumerate(classes) for v in c}
    nbrs = csr_rows(*t.neighbors)
    for v in range(fg.n_free):
        assert all(colour[j] != colour[v] for j in nbrs[v] if j < fg.n_free)


def test_free_graphs_compare_by_identity():
    # compared field by field, the numpy arrays made == raise ValueError
    t = forest_to_triangulation(((2,), (1, 2)))
    other = forest_to_triangulation(((2,), (1, 2)))
    assert t.free_graph == t.free_graph and hash(t.free_graph) == hash(t.free_graph)
    assert t.free_graph != other.free_graph
    assert len({t.free_graph, other.free_graph, t.free_graph}) == 2


def modular_fans(lists) -> tuple:
    """Reference codec: vertex i's fan is S_i..S_{i+1} reduced mod k_top."""
    fans = []
    for n, degs in enumerate(lists):
        k_top = sum(degs)
        starts = [sum(degs[:i]) for i in range(len(degs))]
        fans.append(tuple(tuple(q % k_top for q in range(s, s + d + 1))
                          for s, d in zip(starts, degs)))
    return tuple(fans)


def seed_validation_error(sizes, fans) -> str | None:
    """Reference validator: the first error of the per-entry modular check."""
    for n, strip in enumerate(fans):
        k_bot, k_top = sizes[n], sizes[n + 1]
        if len(strip) != k_bot:
            return f"strip {n} needs {k_bot} fans"
        if sum(len(f) - 1 for f in strip) != k_top:
            return f"strip {n} out-degrees must sum to {k_top}"
        if not all(strip):
            return "every vertex has at least its fan-start edge"
        for i, fan in enumerate(strip):
            for a, b in zip(fan, fan[1:]):
                if (a + 1) % k_top != b:
                    return f"fan of vertex ({n},{i}) is not contiguous"
            if fan[-1] != strip[(i + 1) % k_bot][0]:
                return f"fans of strip {n} do not tile the upper level"
    return None


@settings(max_examples=200, deadline=None)
@given(lists=out_degree_lists())
def test_codec_roundtrip_on_arbitrary_forests(lists):
    t = forest_to_triangulation(lists)
    assert t.fans == modular_fans(lists)
    assert triangulation_to_forest(t).out_degrees == lists


@settings(max_examples=300, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_single_entry_perturbation_rejected_like_seed_validator(lists, data):
    t = forest_to_triangulation(lists)
    fans = [[list(fan) for fan in strip] for strip in t.fans]
    n = data.draw(st.integers(0, t.top_level - 1))
    i = data.draw(st.integers(0, len(fans[n]) - 1))
    j = data.draw(st.integers(0, len(fans[n][i]) - 1))
    k_top = t.level_sizes[n + 1]
    old = fans[n][i][j]
    # shifts by multiples of k_top keep the entry's residue: only the
    # modular and tiling checks can tell those apart
    new = data.draw(
        st.integers(-2 * k_top - 1, 3 * k_top + 1).filter(lambda v: v != old)
        | st.integers(-2, 2).filter(bool).map(lambda m: old + m * k_top)
    )
    fans[n][i][j] = new
    expected = seed_validation_error(t.level_sizes, fans)
    assert expected is not None
    with pytest.raises(ValueError) as exc:
        Triangulation(t.level_sizes, fans)
    assert str(exc.value) == expected


@pytest.mark.parametrize("sizes, fans", [
    ((1, 3), [[(-2, -1, 0, 1)]]),  # negative entries that form a range
    ((1, 2, 3), [[(0, 1, 0)], [(-2, -1, 0), (0, 1)]]),
    ((1, 2), [[(1, 2, 3)]]),  # a range past k_top
    ((1, 2, 2), [[(0, 1, 0)], [(0, 1), (1, 2)]]),
    ((1, 2, 1), [[(0, 1, 0)], [(0, 0, 0), ()]]),  # an empty fan after a full one
])
def test_malformed_fans_rejected_like_seed_validator(sizes, fans):
    with pytest.raises(ValueError) as exc:
        Triangulation(sizes, fans)
    assert str(exc.value) == seed_validation_error(sizes, fans)


@st.composite
def near_valid_fans(draw):
    """Level sizes and fans of a rotated valid triangulation with up to three
    faults: fans with an entry dropped, added or moved to another fan, empty
    fans, out-of-range or shifted entries, and fans removed from, repeated
    in or swapped within a strip."""
    t = forest_to_triangulation(draw(out_degree_lists()))
    for level in range(1, t.top_level + 1):
        t = rotate_level(t, level, draw(st.integers(0, t.level_sizes[level] - 1)))
    fans = [[list(fan) for fan in strip] for strip in t.fans]
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, t.top_level - 1))
        strip, k_top = fans[n], t.level_sizes[n + 1]
        if not strip:
            continue
        i = draw(st.integers(0, len(strip) - 1))
        fan = strip[i]
        i2 = draw(st.integers(0, len(strip) - 1))
        j = draw(st.integers(0, max(len(fan) - 1, 0)))
        fault = draw(st.sampled_from(
            ["pop", "push", "move", "empty", "entry", "shift", "remove", "repeat", "swap"]))
        if fault == "pop" and fan:
            fan.pop()
        elif fault == "move" and fan:  # keeps the strip's out-degree sum
            strip[i2].append(fan.pop())
        elif fault == "push":
            fan.append(draw(st.integers(-1, k_top)))
        elif fault == "empty":
            fan.clear()
        elif fault == "entry" and fan:
            fan[j] = draw(st.integers(-k_top - 1, 2 * k_top + 1))
        elif fault == "shift" and fan:
            fan[j] += draw(st.sampled_from([-k_top, k_top]))
        elif fault == "remove":
            del strip[i]
        elif fault == "repeat":
            strip.insert(i, list(fan))
        elif fault == "swap":
            strip[i], strip[i2] = strip[i2], fan
    return t.level_sizes, fans


@settings(max_examples=500, deadline=None)
@given(case=near_valid_fans())
def test_near_valid_fans_judged_like_seed_validator(case):
    sizes, fans = case
    expected = seed_validation_error(sizes, fans)
    if expected is None:
        assert Triangulation(sizes, fans).fans == tuple(tuple(map(tuple, strip)) for strip in fans)
        return
    with pytest.raises(ValueError) as exc:
        Triangulation(sizes, fans)
    assert str(exc.value) == expected


@pytest.mark.parametrize("sizes, fans", [
    ((1.9, 1), [[[0.5, 0.7]]]),  # int() would truncate these to (1, 1) and (0, 0)
    ((1, 1), [[[0.0, 0.0]]]),  # whole floats are still floats
    ((1, 2), [[["0", "1", "0"]]]),  # int() would parse these
    (("1", 2), [[[0, 1, 0]]]),
])
def test_non_integer_input_rejected(sizes, fans):
    with pytest.raises(ValueError, match="must be integers"):
        Triangulation(sizes, fans)


@pytest.mark.parametrize("lists", [
    ((2.7,), (1.2, "1")),  # int() would truncate and parse these
    ((2,), (1.0, 1)),  # whole floats are still floats
    ((2,), (1, "1")),
    (("1",), (1,)),
])
def test_forest_input_must_be_integers(lists):
    with pytest.raises(ValueError, match="must be integers"):
        forest_to_triangulation(lists)


def test_numpy_integer_forest_accepted():
    lists = (np.array([2]), (np.int64(1), np.int32(1)))
    t = forest_to_triangulation(lists)
    assert t == forest_to_triangulation(((2,), (1, 1)))
    assert all(type(d) is int for lst in triangulation_to_forest(t).out_degrees for d in lst)


def test_public_constructor_checks_after_a_trusted_instance_of_the_same_shape():
    t = forest_to_triangulation(((2,), (1, 2), (1, 1, 1)))
    assert Triangulation._trusted(t.level_sizes, t.fans) == t
    fans = [[list(fan) for fan in strip] for strip in t.fans]
    fans[1][1][0] += 1  # the fan no longer starts where the one before it ends
    with pytest.raises(ValueError, match="not contiguous|do not tile"):
        Triangulation(t.level_sizes, fans)
    fans[1][1][0] -= 0.5
    with pytest.raises(ValueError, match="must be integers"):
        Triangulation(t.level_sizes, fans)


def test_numpy_integers_accepted():
    t = Triangulation(np.array([1, 2]), [np.array([[0, 1, 0]])])
    assert t == forest_to_triangulation(((2,),))
    assert all(type(q) is int for q in (*t.level_sizes, *t.fans[0][0]))


@pytest.mark.parametrize("query, args", [
    *(pytest.param(query, (level, pos), id=f"{query}-{level}-{pos}")
      for query in ("vertex_degree", "down_slots", "flat_index")
      for level, pos in ((1, 5), (1, -1), (4, 0), (-1, 0))),
    # flat ids one past either end of the 9 vertices
    pytest.param("vertex_at", (-1,), id="vertex_at--1"),
    pytest.param("vertex_at", (9,), id="vertex_at-9"),
])
def test_vertex_queries_reject_missing_vertex(query, args):
    t = forest_to_triangulation(((2,), (1, 2), (1, 1, 1)))
    with pytest.raises(ValueError):
        getattr(t, query)(*args)


@pytest.mark.parametrize("level, pos, match", [
    (-1, 0, "no vertex"),  # was the last strip's fan, by negative indexing
    (1, 0.5, "must be integers"),  # was a TypeError
    (3, 0, "top-level"),  # was an IndexError: the top level has no fan
    (1, 2, "no vertex"),
])
def test_out_degree_checks_its_vertex(level, pos, match):
    t = forest_to_triangulation(((2,), (1, 2), (1, 1, 1)))
    with pytest.raises(ValueError, match=match):
        t.out_degree(level, pos)
    assert [t.out_degree(2, p) for p in range(3)] == [1, 1, 1]


def test_vertex_at_reads_integers_only():
    t = forest_to_triangulation(((2,), (1, 2), (1, 1, 1)))
    with pytest.raises(ValueError, match="must be integers"):
        t.vertex_at(2.5)  # was read as (1, 1.5)
    assert t.vertex_at(np.int64(4)) == (2, 1)
    assert all(type(x) is int for x in t.vertex_at(np.int64(4)))


@pytest.mark.parametrize(
    "call",
    [
        lambda t: t.flat_index(1, 0.5),  # was 1.5
        lambda t: t.flat_index(1.0, 0),
        lambda t: t.down_slots(1.0, 0),
        lambda t: t.vertex_degree(1, 0.0),
        lambda t: gibbs_exact(t, 0.5, "plus").marginal_plus(1.0, 0),
    ],
    ids=["flat_index_pos", "flat_index_level", "down_slots", "vertex_degree", "marginal_plus"],
)
def test_vertex_coordinates_read_integers_only(call):
    t = forest_to_triangulation(((2,), (1, 2), (1, 1, 1)))
    with pytest.raises(ValueError, match="must be integers"):
        call(t)
    assert t.flat_index(np.int64(1), np.int32(1)) == 2
    assert type(t.flat_index(np.int64(1), 0)) is type(t.flat_index(1, np.int64(0))) is int


def test_parent_is_leftmost_down_slot():
    t = forest_to_triangulation(((2,), (1, 1)))
    # both level-1 vertices hang off the root
    assert t.parent(1, 0) == 0 and t.parent(1, 1) == 0
    assert t.out_degree(0, 0) == 2


def test_canonical_key_rotation_invariant():
    t = forest_to_triangulation(((3,), (2, 0, 1), (1, 2, 0)))
    for lvl in (1, 2, 3):
        for shift in range(1, t.level_sizes[lvl]):
            r = rotate_level(t, lvl, shift)
            assert r.canonical_key == t.canonical_key
            assert r.canonical() == t.canonical()


def reference_canonical_key(t: Triangulation):
    """The forest-based key: each level's out-degrees read in the rotation
    anchored by the chain of fan-start targets, through ``LevelForest``."""
    anchor = 0
    lists = []
    for n in range(t.top_level):
        k = t.level_sizes[n]
        order = [(anchor + i) % k for i in range(k)]
        lists.append(tuple(t.out_degree(n, i) for i in order))
        anchor = t.fans[n][anchor][0]
    return (t.level_sizes, LevelForest(tuple(lists)).out_degrees)


def test_canonical_key_matches_forest_key():
    enumerated = [t for cap in ((3, 4), (2, 5)) for t, _ in enumerate_triangulations(*cap)]
    for t in enumerated:
        assert t.canonical_key == reference_canonical_key(t)
        for level in range(1, t.top_level + 1):
            for shift in range(1, t.level_sizes[level]):
                r = rotate_level(t, level, shift)
                assert r.canonical_key == reference_canonical_key(r)
    for i in range(50):
        t = forest_to_triangulation(sample_spine_forest(stream(26, i), 12))
        assert t.canonical_key == reference_canonical_key(t)
        for level in range(1, t.top_level + 1):
            r = rotate_level(t, level, level)
            assert r.canonical_key == reference_canonical_key(r)


@pytest.mark.parametrize("level, shift, what", [
    (1, 1.5, "shift"), (1, "1", "shift"), (1, None, "shift"), (1.0, 1, "level"), ("1", 1, "level"),
])
def test_rotate_level_rejects_non_integer_arguments(level, shift, what):
    # each raised TypeError from tuple indexing
    t = forest_to_triangulation(((2,), (5, 1), (1,) * 6))
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        rotate_level(t, level, shift)
    # numpy integers are integers, and a shift may be negative
    assert rotate_level(t, np.int64(2), np.int32(-2)) == rotate_level(t, 2, 4)


def test_serialization_roundtrip():
    # the root alone, with no strip, then sampled triangulations
    sampled = (forest_to_triangulation(sample_spine_forest(stream(24, i), 4)) for i in range(100))
    for t in (Triangulation((1,), ()), *sampled):
        text = to_text(t)
        assert from_text(text) == t
        assert to_text(from_text(text)) == text


@settings(max_examples=100, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_text_roundtrip_gives_canonical_form(lists, data):
    t = forest_to_triangulation(lists)
    for level in range(1, t.top_level + 1):
        t = rotate_level(t, level, data.draw(st.integers(0, t.level_sizes[level] - 1)))
    assert from_text(to_text(t)) == t.canonical()


def test_root_alone_round_trips_through_the_codec():
    # the forest of the root alone has no levels; the codec and the text
    # format refused it as "not exactly one root"
    t = Triangulation((1,), ())
    assert LevelForest(()).level_sizes == (1,)
    assert forest_to_triangulation(LevelForest(())) == forest_to_triangulation(()) == t
    assert triangulation_to_forest(t) == LevelForest(())
    assert t.canonical() == t
    assert to_text(t) == "0 1\n" and from_text("0 1\n") == t
    with pytest.raises(ValueError, match="one root"):
        LevelForest(((1, 1),))  # two roots


def test_serialization_rejects_malformed():
    with pytest.raises(ValueError):
        from_text("")
    with pytest.raises(ValueError):
        from_text("2 1 1\n1\n")  # missing a level line
    with pytest.raises(ValueError):
        from_text("1 1 2\n1\n")  # sizes inconsistent with degrees


def test_forest_rejects_empty_level():
    with pytest.raises(ValueError):
        forest_to_triangulation(((0,),))


def test_dual_two_parallel_edges_on_minimal_strip():
    t = forest_to_triangulation(((1,),))
    a, b = t.edges
    # two triangles joined across both diagonals, parallel edges 2 and 3
    assert (a[2], b[2]) == (a[3], b[3]) == (0, 1)
    assert dual_rows(t) == (((3, 1, 0), (2, 1, -1)), ((3, 0, 0), (2, 0, 1)))


def on_boundary_circle(t: Triangulation, horizontal: int) -> bool:
    """True when the horizontal edge lies on the root or the top circle."""
    return horizontal < t.level_offsets[1] or horizontal >= t.level_offsets[t.top_level]


def test_tables_of_the_root_alone():
    # no strip: one vertex with its self-loop, and no triangle
    t = Triangulation((1,), ())
    assert dual_rows(t) == ()
    offsets, other, edge = t.primal_adjacency
    assert csr_rows(offsets, edge, other) == (((0, 0),),)
    assert csr_rows(*t.neighbors) == ((),)
    assert csr_rows(*t.free_graph.neighbors) == ()


def test_dual_degrees():
    for i in range(30):
        t = forest_to_triangulation(sample_spine_forest(stream(25, i), 4))
        tris = [tri for strip in fan_walk_triangles(t) for tri in strip]
        dual = dual_rows(t)
        assert len(dual) == len(tris) == t.triangle_count
        for row, (_, _, h) in zip(dual, tris):
            assert len(row) == (2 if on_boundary_circle(t, h) else 3)


@settings(max_examples=100, deadline=None)
@given(lists=out_degree_lists(), shifts=st.lists(st.integers(0, 9), min_size=5, max_size=5))
@example(lists=((1,),), shifts=[0] * 5)  # one strip of two triangles, joined twice
@example(lists=((1,), (1,), (1,)), shifts=[0] * 5)  # one vertex on every level
@example(lists=((3,), (0, 2, 1)), shifts=[2, 1, 0, 0, 0])
def test_dual_crosses_fan_walk_edges(lists, shifts):
    t = forest_to_triangulation(lists)
    for level in range(1, t.top_level + 1):  # strips whose first fan may not start at 0
        t = rotate_level(t, level, shifts[level - 1])
    strips = fan_walk_triangles(t)
    tris = [tri for strip in strips for tri in strip]
    containing: dict[int, list[int]] = {}
    for g, tri in enumerate(tris):
        for e in tri:
            containing.setdefault(e, []).append(g)
    # every edge but the horizontals of the root and the top circle is
    # crossed by one dual edge, listed once from each of its two triangles
    dual = dual_rows(t)
    crossed = Counter(e for row in dual for e, _, _ in row)
    boundary = {e for e in range(t.vertex_count) if on_boundary_circle(t, e)}
    assert crossed == {e: 2 for e in range(len(t.edges[0])) if e not in boundary}
    for g, row in enumerate(dual):
        assert len(row) == (2 if on_boundary_circle(t, tris[g][2]) else 3)
        for e, nbr, step in row:
            assert sorted(containing[e]) == sorted((g, nbr))
            assert (e, g, -step) in dual[nbr]
    # walking each strip across the diagonal after each triangle crosses
    # the seam once, forwards
    g = 0
    for strip in strips:
        steps = []
        for _, after, _ in strip:
            steps += [step for e, _, step in dual[g] if e == after]
            g += 1
        assert len(steps) == len(strip) and sum(steps) == 1


def test_enumerate_minimal_class():
    ts = enumerate_triangulations(1, 1)
    assert len(ts) == 1
    t, w = ts[0]
    assert t.triangle_count == 2
    assert abs(w - math.exp(-MU_CRITICAL * 2)) < 1e-15


def reference_enumeration(levels: int, width_cap: int) -> list[Triangulation]:
    """Every out-degree list set in enumeration order, each decoded by the
    public codec: compositions read off ``itertools.product`` (no code shared
    with the library's), k_{n+1} before the lists of level n."""
    out = []

    def grow(lists: list, k: int) -> None:
        if len(lists) == levels:
            out.append(forest_to_triangulation(lists))
            return
        for k_next in range(1, width_cap + 1):
            for degs in product(range(k_next + 1), repeat=k):
                if sum(degs) == k_next:
                    grow([*lists, degs], k_next)

    grow([], 1)
    return out


@pytest.mark.parametrize("levels, width_cap", [
    *((levels, cap) for levels in (1, 2, 3) for cap in (1, 2, 3, 4)), (2, 5)])
def test_enumeration_equals_the_public_codec(levels, width_cap):
    enum = enumerate_triangulations(levels, width_cap)
    ref = reference_enumeration(levels, width_cap)
    assert len(enum) == len(ref)
    for (t, w), r in zip(enum, ref):
        assert t == r and hash(t) == hash(r)
        assert w == math.exp(-MU_CRITICAL * r.triangle_count)  # bit for bit
        assert_checked_like_user_input(t)
    # each strip is built once: equal strips are one object
    strips = [s for t, _ in enum for s in t.fans]
    assert len({id(s) for s in strips}) == len(set(strips))


def test_enumerate_counts_match_recursive_oracle():
    for levels, cap in ((1, 4), (2, 3), (2, 4), (3, 2)):
        assert len(enumerate_triangulations(levels, cap)) == count_forests_recursive(levels, cap)


def test_enumerate_weights_match_product_form():
    enum = enumerate_triangulations(2, 4)
    z_w = sum(w for _, w in enum)
    z_p = sum(forest_weight_product(t) for t, _ in enum)
    for t, w in enum:
        assert abs(w / z_w - forest_weight_product(t) / z_p) < 1e-12


def test_enumerate_guards():
    with pytest.raises(ValueError):
        enumerate_triangulations(4, 2)
    with pytest.raises(ValueError):
        enumerate_triangulations(2, 6)


@pytest.mark.parametrize("levels, width_cap, what", [(1.5, 2, "levels"), (2, 2.5, "width_cap")])
def test_enumerate_rejects_non_integer_counts(levels, width_cap, what):
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        enumerate_triangulations(levels, width_cap)


def test_distinct_enumerated_triangulations():
    keys = {t.canonical_key for t, _ in enumerate_triangulations(2, 3)}
    assert len(keys) == len(enumerate_triangulations(2, 3))
