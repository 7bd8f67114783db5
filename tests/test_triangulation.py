"""Tests for the forest <-> triangulation codec, degrees, dual graph, and
exhaustive enumeration."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdt_ising.branching import sample_spine_forest
from cdt_ising.rng import stream
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
    for n in range(2):
        strip = t.triangles(n)
        assert len(strip) == 2
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


def brute_force_tables(t: Triangulation):
    """Degree split, distinct neighbours and loop-doubled degrees, read off
    the edge-keyed ``primal_adjacency``."""
    level_of = [n for n, k in enumerate(t.level_sizes) for _ in range(k)]
    up, down, nbrs, total = [], [], [], []
    for v, edges in enumerate(t.primal_adjacency):
        others = [level_of[o] for _, o in edges]
        up.append(others.count(level_of[v] + 1))
        down.append(others.count(level_of[v] - 1))
        nbrs.append(tuple(sorted({o for _, o in edges if o != v})))
        total.append(len(edges) + sum(1 for _, o in edges if o == v))
    return tuple(up), tuple(down), tuple(nbrs), total


@pytest.mark.parametrize("levels", [5, 31])
def test_graph_tables_match_primal_adjacency(levels):
    for i in range(10):
        t = forest_to_triangulation(sample_spine_forest(stream(25, levels, i), levels))
        up, down, nbrs, total = brute_force_tables(t)
        assert t.degree_split == (up, down)
        assert t.neighbors == nbrs
        n_free = t.vertex_count - t.level_sizes[-1]
        assert t.mark_degrees.tolist() == total[:n_free]
        for v in range(t.vertex_count):
            level, pos = t.vertex_at(v)
            assert t.flat_index(level, pos) == v and 0 <= pos < t.level_sizes[level]


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
])
def test_malformed_fans_rejected_like_seed_validator(sizes, fans):
    with pytest.raises(ValueError) as exc:
        Triangulation(sizes, fans)
    assert str(exc.value) == seed_validation_error(sizes, fans)


@pytest.mark.parametrize("level, pos", [(1, 5), (1, -1), (4, 0), (-1, 0)])
@pytest.mark.parametrize("query", ["vertex_degree", "down_slots", "flat_index"])
def test_vertex_queries_reject_missing_vertex(query, level, pos):
    t = forest_to_triangulation(((2,), (1, 2), (1, 1, 1)))
    with pytest.raises(ValueError):
        getattr(t, query)(level, pos)


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


def test_serialization_roundtrip():
    for i in range(100):
        t = forest_to_triangulation(sample_spine_forest(stream(24, i), 4))
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
    dual = t.dual
    assert len(dual.vertices) == 2
    assert len(dual.edges) == 2
    assert all({e.a, e.b} == {(0, 0), (0, 1)} for e in dual.edges)
    crossed = {e.primal for e in dual.edges}
    assert crossed == {("d", 0, 0), ("d", 0, 1)}


def test_dual_degrees():
    for i in range(30):
        t = forest_to_triangulation(sample_spine_forest(stream(25, i), 4))
        dual = t.dual
        assert len(dual.vertices) == t.triangle_count
        top = t.top_level
        for (n, idx) in dual.vertices:
            tri = t.triangles(n)[idx]
            deg = dual.degree((n, idx))
            if n == 0 and tri.kind == "up":
                assert deg == 2  # sits on the root circle
            elif n == top - 1 and tri.kind == "down":
                assert deg == 2  # sits on the top circle
            else:
                assert deg == 3


def test_dual_angular_positions():
    t = forest_to_triangulation(((2,), (1, 1)))
    dual = t.dual
    angles = [dual.angular_position(v) for v in dual.vertices if v[0] == 0]
    assert all(0 <= a < 2 * math.pi for a in angles)
    assert len(set(angles)) == len(angles)


def test_enumerate_minimal_class():
    ts = enumerate_triangulations(1, 1)
    assert len(ts) == 1
    t, w = ts[0]
    assert t.triangle_count == 2
    assert abs(w - math.exp(-MU_CRITICAL * 2)) < 1e-15


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
    with pytest.raises(ValueError):
        enumerate_triangulations(2, 2, mu=0.5)


def test_distinct_enumerated_triangulations():
    keys = {t.canonical_key for t, _ in enumerate_triangulations(2, 3)}
    assert len(keys) == len(enumerate_triangulations(2, 3))
