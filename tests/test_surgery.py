"""Tests for insertions, collapses, path-neighborhood modifications, and the
randomized reconstruction walk."""

import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdt_ising import surgery
from cdt_ising.rng import TrialKeys, stream
from cdt_ising.surgery import (
    INSERT_COUNT,
    Insertion,
    ReconstructionResult,
    _collapse_run,
    _slots,
    _thaw,
    apply_modification,
    collapse_horizontal_edge,
    collapse_run,
    embed,
    enumerate_plans,
    insert_pairs,
    insertion_sites,
    modified_indices,
    path_neighborhood,
    randomized_reconstruction,
    reconstruction_probability_bound,
    reconstruction_success_probability,
)
from cdt_ising.branching import sample_spine_forest
from cdt_ising.triangulation import (
    Triangulation,
    _down_slot_entries,
    _rotate_fans,
    enumerate_triangulations,
    forest_to_triangulation,
    rotate_level,
)
from test_rng import _plain
from test_triangulation import assert_checked_like_user_input, csr_rows, out_degree_lists


# -- reference surgery: one edge at a time --------------------------------------


def thaw_lists(t):
    """Sizes and fans of ``t`` as lists all the way down, for the references,
    which edit fans in place."""
    return list(t.level_sizes), [[list(f) for f in strip] for strip in t.fans]


def reference_insert_one(sizes, fans, level, pos, iu, jd):
    """Elementary insertion at (level, pos) with up slot iu and down slot jd.

    The new vertex lands at position pos+1; it takes the up slots iu..end
    (the slot-iu edge is duplicated) and the down slots jd..end (likewise).
    """
    fan_v = fans[level][pos]
    down = _down_slot_entries(fans, sizes, level, pos)
    fans[level].insert(pos + 1, fan_v[iu:])
    fans[level][pos] = fan_v[: iu + 1]
    # entries beyond pos shift right; entries at pos with slot rank > jd move
    # to the new vertex; the slot-jd edge duplicates
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


def reference_insert_pairs(t, insertion):
    """A k-fold insertion as k elementary ones, from the largest slots down."""
    level, pos = insertion.level, insertion.pos
    deg = t.vertex_degree(level, pos)
    assert not deg.boundary
    assert all(0 <= iu < deg.up and 0 <= jd < deg.down for iu, jd in insertion.pairs)
    sizes, fans = thaw_lists(t)
    for iu, jd in sorted(insertion.pairs, reverse=True):
        reference_insert_one(sizes, fans, level, pos, iu, jd)
    return Triangulation(sizes, fans)


def reference_collapse_one(sizes, fans, level, pos):
    """Collapse the horizontal edge (pos, pos+1) with pos+1 < k: merge pos+1 into pos."""
    fan_v, fan_w = fans[level][pos], fans[level][pos + 1]
    assert fan_v[-1] == fan_w[0]
    fans[level][pos] = fan_v + fan_w[1:]
    del fans[level][pos + 1]
    # delete the edge under the removed triangle, then retarget pos+1 to pos
    # and shift everything beyond
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
    assert removed
    for fan in below:
        for idx, q in enumerate(fan):
            if q == pos + 1:
                fan[idx] = pos
            elif q > pos + 1:
                fan[idx] = q - 1
    sizes[level] -= 1


def reference_remap_walk(walk, level, f):
    for i, (lvl, pos) in enumerate(walk):
        if lvl == level:
            walk[i] = (lvl, f(pos))


def reference_collapse_run(sizes, fans, level, start, count, walk):
    """``count`` single-edge collapses; the wrap edge is collapsed after
    rotating the level by one."""
    p = start
    for _ in range(count):
        k = sizes[level]
        p %= k
        if p == k - 1:
            _rotate_fans(sizes, fans, level, 1)
            reference_remap_walk(walk, level, lambda q, k=k: (q + 1) % k)
            p = 0
        reference_collapse_one(sizes, fans, level, p)
        reference_remap_walk(walk, level, lambda q, p=p: p if q == p + 1 else (q - 1 if q > p + 1 else q))


def vertex_degree_map(t):
    out = {}
    for n in range(len(t.level_sizes)):
        for p in range(t.level_sizes[n]):
            d = t.vertex_degree(n, p)
            out[(n, p)] = (d.up or 0) + (d.down or 0) + 2
    return out


FIXTURE = forest_to_triangulation(((2,), (5, 1), (1,) * 6))
FIX_PATH = path_neighborhood(FIXTURE, [(0, 0), (1, 0)])
FIX_PLAN = {1: ((5,) * 10, (1,) * 10)}
FIX_MOD = apply_modification(FIXTURE, FIX_PATH, FIX_PLAN, threshold=8, count=10)
CHAIN = forest_to_triangulation(((1,),) * 4)
CHAIN_PATH = ((0, 0), (1, 0), (2, 0), (3, 0))


def test_insertion_sites_product_count():
    t = forest_to_triangulation(((2,), (1, 2), (1, 1, 1)))
    for pos in range(t.level_sizes[1]):
        d = t.vertex_degree(1, pos)
        sites = insertion_sites(t, 1, pos)
        assert len(sites) == d.up * d.down
    with pytest.raises(ValueError):
        insertion_sites(t, 0, 0)


def test_insertion_validates_ordering():
    with pytest.raises(ValueError):
        Insertion(1, 0, ((2, 0), (1, 1)))


def test_elementary_insert_f_plus_two():
    t = forest_to_triangulation(((1,), (1,)))
    site = insertion_sites(t, 1, 0)[0]
    res = insert_pairs(t, Insertion(1, 0, ((site.up_slot, site.down_slot),)))
    t2 = res.triangulation
    assert t2.triangle_count == t.triangle_count + 2
    assert t2.level_sizes[1] == t.level_sizes[1] + 1


def test_insert_neighbor_degrees_grow_by_at_most_one():
    t = forest_to_triangulation(((2,), (2, 1), (1, 1, 1)))
    before = vertex_degree_map(t)
    for site in insertion_sites(t, 1, 0):
        t2 = insert_pairs(t, Insertion(1, 0, ((site.up_slot, site.down_slot),))).triangulation
        after = vertex_degree_map(t2)
        # up neighbor lives at level 2, unaffected by the level-1 renumbering
        un = site.up_neighbor
        assert after[un] == before[un] + 1
        # level-0 down neighbor is the root
        dn = site.down_neighbor
        assert after[dn] == before[dn] + 1


def test_roundtrip_all_enumerated():
    failures = 0
    for t, _ in enumerate_triangulations(2, 4):
        for pos in range(t.level_sizes[1]):
            for site in insertion_sites(t, 1, pos):
                res = insert_pairs(t, Insertion(1, pos, ((site.up_slot, site.down_slot),)))
                if collapse_run(res.triangulation, *res.new_horizontal_run) != t:
                    failures += 1
    assert failures == 0


def test_roundtrip_level_two_enumerated():
    # at a vertex whose parent's fan wraps onto it, the parent's own fan-start
    # edge is the last down slot; ordering it first broke these round trips
    sites = 0
    for t, _ in enumerate_triangulations(3, 3):
        for pos in range(t.level_sizes[2]):
            for site in insertion_sites(t, 2, pos):
                res = insert_pairs(t, Insertion(2, pos, ((site.up_slot, site.down_slot),)))
                assert collapse_run(res.triangulation, *res.new_horizontal_run) == t
                sites += 1
    assert sites == 3891


def test_tenfold_insert_and_undo():
    t = forest_to_triangulation(((2,), (4, 1), (1,) * 5))
    d = t.vertex_degree(1, 0)
    pairs = tuple(zip(sorted([0, 1, 1, 2, 3, 3, 4, 4, 4, 4]), sorted([0, 0, 0, 1, 1, 1, 1, 1, 1, 1])))
    res = insert_pairs(t, Insertion(1, 0, pairs))
    assert res.triangulation.triangle_count == t.triangle_count + 20
    assert collapse_run(res.triangulation, *res.new_horizontal_run) == t


def internal_vertex(data, t):
    level = data.draw(st.integers(1, t.top_level - 1))
    return level, data.draw(st.integers(0, t.level_sizes[level] - 1))


@settings(max_examples=200, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_insert_then_collapse_restores_arbitrary_triangulation(lists, data):
    t = forest_to_triangulation(lists)
    assume(t.top_level >= 2)
    level, pos = internal_vertex(data, t)
    d = t.vertex_degree(level, pos)
    k = data.draw(st.integers(1, 3))
    ups = sorted(data.draw(st.lists(st.integers(0, d.up - 1), min_size=k, max_size=k)))
    downs = sorted(data.draw(st.lists(st.integers(0, d.down - 1), min_size=k, max_size=k)))
    insertion = Insertion(level, pos, tuple(zip(ups, downs)))
    res = insert_pairs(t, insertion)
    # exact sizes and fans, labels included
    assert res.triangulation == reference_insert_pairs(t, insertion)
    assert res.triangulation.triangle_count == t.triangle_count + 2 * k
    assert collapse_run(res.triangulation, *res.new_horizontal_run) == t


@settings(max_examples=200, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_collapse_run_matches_single_edge_collapses(lists, data):
    t = forest_to_triangulation(lists)
    assume(t.top_level >= 2)
    level, _ = internal_vertex(data, t)
    k = t.level_sizes[level]
    assume(k >= 2)
    count = data.draw(st.integers(1, min(3, k - 1)))
    # the last two starts run through the wrap edge (k-1, 0)
    for start in {data.draw(st.integers(0, k - 1)), k - count, k - 1}:
        # reference: relabel so the run starts at 0, then collapse its first
        # edge count times
        ref = rotate_level(t, level, -start)
        for _ in range(count):
            ref = collapse_horizontal_edge(ref, level, 0)
        assert collapse_run(t, level, start, count).canonical_key == ref.canonical_key
        # exact sizes, fans and walk of a run on ``_thaw``'s scratch fans,
        # whose strips are still t's tuples, against single-edge collapses on
        # scratch fans that are lists throughout, with a walk holding every
        # vertex of every level (the strips a collapse writes come back as
        # tuples)
        sizes, fans = thaw_lists(t)
        walk = [(n, p) for n, size in enumerate(sizes) for p in range(size)]
        want = (sizes, fans, walk)
        reference_collapse_run(sizes, fans, level, start, count, walk)
        sizes, fans = _thaw(t)
        walk = [(n, p) for n, size in enumerate(sizes) for p in range(size)]
        _collapse_run(sizes, fans, level, start, count, walk)
        assert (sizes, [[list(f) for f in strip] for strip in fans], walk) == want


@settings(max_examples=100, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_library_built_triangulations_pass_the_public_checks(lists, data):
    # every producer builds its result unchecked, from input it has checked,
    # and writes only to its own copies of the strips it changes, which it
    # builds as tuples all the way down
    t = forest_to_triangulation(lists)
    host = host_record(t)
    level = data.draw(st.integers(1, t.top_level))
    built = [t, rotate_level(t, level, data.draw(st.integers(-5, 5)))]
    if t.top_level >= 2:
        level, pos = internal_vertex(data, t)
        d = t.vertex_degree(level, pos)
        k = data.draw(st.integers(1, 3))
        ups = sorted(data.draw(st.lists(st.integers(0, d.up - 1), min_size=k, max_size=k)))
        downs = sorted(data.draw(st.lists(st.integers(0, d.down - 1), min_size=k, max_size=k)))
        res = insert_pairs(t, Insertion(level, pos, tuple(zip(ups, downs))))
        built += [res.triangulation, collapse_run(res.triangulation, *res.new_horizontal_run)]
        size = t.level_sizes[level]
        if size >= 2:
            start = data.draw(st.integers(0, size - 1))
            count = data.draw(st.integers(1, min(3, size - 1)))
            built += [collapse_horizontal_edge(t, level, start), collapse_run(t, level, start, count),
                      collapse_run(t, level, size - 1, count)]  # through the wrap edge
        # scratch collapses through the wrap edge at level n + 1, whose
        # rotation turns strip n into lists, and then at level n
        for n in range(1, t.top_level - 1):
            if t.level_sizes[n] >= 2 and t.level_sizes[n + 1] >= 2:
                sizes, fans = _thaw(t)
                _collapse_run(sizes, fans, n + 1, sizes[n + 1] - 1, 1, [])
                _collapse_run(sizes, fans, n, 0, 1, [])
                assert all(type(s) is tuple and all(type(f) is tuple for f in s) for s in fans)
                built.append(Triangulation._trusted(sizes, fans))
        # a path that climbs one level per step, modified at its eligible
        # vertices, and every walk that undoes the modification
        path = [(0, 0)]
        for _ in range(data.draw(st.integers(1, min(2, t.top_level)))):
            path.append((path[-1][0] + 1, data.draw(st.sampled_from(t.fans[path[-1][0]][path[-1][1]]))))
        pn = path_neighborhood(t, path)
        threshold, count = data.draw(st.integers(0, 8)), data.draw(st.integers(1, 2))
        plans = {}
        for j in modified_indices(pn, threshold):
            d = t.vertex_degree(*path[j])  # degrees only grow as farther vertices are modified
            plans[j] = tuple(sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=count,
                                                       max_size=count))) for n in (d.up, d.down))
        t_prime = apply_modification(t, pn, plans, threshold, count)
        built.append(t_prime)
        if len(plans) <= 1:  # a few thousand walks at most
            reconstruction_success_probability(t_prime, t, path, count)
            table = next(iter(t_prime.__dict__["_reconstruction_branches"].values()))
            walked = [node.triangulation for node in table.values()
                      if isinstance(node, ReconstructionResult) and node.triangulation is not None]
            assert walked
            built += walked
    for out in built:
        assert_checked_like_user_input(out)
    assert_host_unchanged(t, host)


def host_record(t):
    """``t``'s sizes, strips and fans as objects, and the strips' values."""
    return t.level_sizes, t.fans, copy.deepcopy(t.fans), [f for s in t.fans for f in s]


def assert_host_unchanged(t, host):
    """``t`` holds the very sizes, strips and fans of ``host_record``, with
    the recorded values."""
    level_sizes, fans, value, fan_objects = host
    assert t.level_sizes is level_sizes and t.fans is fans and t.fans == value
    assert all(a is b for a, b in zip((f for s in t.fans for f in s), fan_objects, strict=True))


@settings(max_examples=100, deadline=None)
@given(lists=out_degree_lists(), data=st.data())
def test_rotations_and_insertions_share_the_untouched_strips(lists, data):
    t = forest_to_triangulation(lists)
    level, shift = data.draw(st.integers(1, t.top_level)), data.draw(st.integers(-5, 5))
    rotated = rotate_level(t, level, shift)
    # the strip below is retargeted and the one above reordered, unless the
    # shift is a whole turn
    written = {level - 1, level} if shift % t.level_sizes[level] else set()
    assert all(rotated.fans[n] is strip for n, strip in enumerate(t.fans) if n not in written)
    if t.top_level >= 2:
        level = data.draw(st.integers(1, t.top_level - 1))
        pos = data.draw(st.integers(0, t.level_sizes[level] - 1))
        d = t.vertex_degree(level, pos)
        out = insert_pairs(t, Insertion(level, pos, ((0, 0), (d.up - 1, d.down - 1)))).triangulation
        assert all(out.fans[n] is strip for n, strip in enumerate(t.fans) if n not in (level - 1, level))


def test_surgery_on_an_enumerated_host_writes_to_no_other_output():
    # enumerated triangulations share their strips, so a surgery on one of
    # them must leave every other one as it was
    enum = [t for t, _ in enumerate_triangulations(3, 4)]
    checked = [Triangulation(t.level_sizes, t.fans) for t in enum]
    base = forest_to_triangulation(((2,), (3, 1), (1,) * 4))
    pn = path_neighborhood(base, [(0, 0), (1, 0)])
    assert modified_indices(pn, threshold=5) == [1]
    hosts = [t for t in enum if embed(pn, t) is not None][::10]
    assert len(hosts) == 11
    for host in hosts:
        record = host_record(host)
        for level in (1, 2):
            for pos in range(host.level_sizes[level]):
                d = host.vertex_degree(level, pos)
                insert_pairs(host, Insertion(level, pos, ((0, 0), (d.up - 1, d.down - 1))))
        vertex = embed(pn, host)[1]
        for plan in enumerate_plans(host, vertex, 2)[::5]:
            apply_modification(host, pn, {1: plan}, threshold=5, count=2)
        assert_host_unchanged(host, record)
    assert all(t == c for t, c in zip(enum, checked, strict=True))


def test_collapse_decreases_f_by_two():
    t = forest_to_triangulation(((3,), (1, 2, 0), (2, 1, 1)))
    for pos in range(t.level_sizes[1]):
        c = collapse_horizontal_edge(t, 1, pos)
        assert c.triangle_count == t.triangle_count - 2
        assert c.level_sizes[1] == t.level_sizes[1] - 1


def test_collapse_guards():
    t = forest_to_triangulation(((1,), (1,)))
    with pytest.raises(ValueError):
        collapse_horizontal_edge(t, 1, 0)  # self-loop level
    with pytest.raises(ValueError):
        collapse_horizontal_edge(t, 2, 0)  # top level
    t2 = forest_to_triangulation(((2,), (1, 1)))
    with pytest.raises(ValueError):
        collapse_horizontal_edge(t2, 1, 5)
    with pytest.raises(ValueError):
        collapse_run(t2, 1, 0, 2)  # needs k >= count+1


@pytest.mark.parametrize("call", [
    lambda t: insertion_sites(t, 1, 5),
    lambda t: collapse_run(t, 5, 0, 1),
    lambda t: collapse_run(t, 1, 7, 1),
    lambda t: collapse_run(t, 1, -3, 1),
    lambda t: insert_pairs(t, Insertion(1, 0, ((2, 0),))),
    lambda t: insert_pairs(t, Insertion(1, 0, ((0, 0), (0, 2)))),
], ids=["insertion_sites", "collapse_run", "collapse_run_start_past_level", "collapse_run_negative_start",
        "insert_pairs_up_slot_past_fan", "insert_pairs_down_slot_past_edges"])
def test_surgery_rejects_missing_vertex_or_level(call):
    t = forest_to_triangulation(((2,), (1, 2), (1, 1, 1)))
    with pytest.raises(ValueError):
        call(t)


@pytest.mark.parametrize("call", [
    lambda t: enumerate_plans(t, (0, 0), 1),
    lambda t: enumerate_plans(t, (3, 0), 1),
    lambda t: enumerate_plans(t, (1, 0), 1.5),
    lambda t: enumerate_plans(t, 5, 1),
    lambda t: enumerate_plans(t, (1,), 1),
    lambda t: enumerate_plans(t, (1, 0, 0), 1),
    lambda t: path_neighborhood(t, []),
    lambda t: collapse_run(t, 2.0, 0, 1),
    lambda t: collapse_run(t, 2, 0.0, 1),
    lambda t: collapse_run(t, 2, 0, 1.0),
    lambda t: Insertion(1.0, 0, ((0, 0),)),
    lambda t: Insertion(1, 0, ((0.5, 0),)),
    lambda t: Insertion(1, 0, ((0,),)),
    lambda t: Insertion(1, 0, ((0, 1, 2),)),  # the third slot was ignored
    lambda t: Insertion(1, 0, (5,)),
    lambda t: reconstruction_probability_bound([3], count=-2),
    lambda t: reconstruction_probability_bound([-10, 3]),
    lambda t: reconstruction_probability_bound([2.5, 3]),
    lambda t: reconstruction_probability_bound([1, 3]),
    lambda t: apply_modification(FIXTURE, FIX_PATH, FIX_PLAN, threshold=8, count=2.5),
    lambda t: apply_modification(FIXTURE, FIX_PATH, FIX_PLAN, threshold=8, count=10.0),
    lambda t: apply_modification(FIXTURE, FIX_PATH, FIX_PLAN, threshold=8.5, count=10),
    lambda t: apply_modification(FIXTURE, FIX_PATH, {1: ((5.0,) * 10, (1,) * 10)}, threshold=8, count=10),
    lambda t: apply_modification(FIXTURE, FIX_PATH, {1: ((-1,) + (5,) * 9, (1,) * 10)}, threshold=8, count=10),
    lambda t: apply_modification(FIXTURE, FIX_PATH, {1: ((5,) * 10, (1,) * 9 + (2,))}, threshold=8, count=10),
    lambda t: apply_modification(FIXTURE, FIX_PATH, {1: ((5,) * 9 + (6,), (1,) * 10)}, threshold=8, count=10),
    lambda t: apply_modification(FIXTURE, FIX_PATH, {1: 5}, threshold=8, count=10),
    lambda t: modified_indices(FIX_PATH, "x"),
    lambda t: modified_indices(FIX_PATH, -1),
    lambda t: reconstruction_success_probability(CHAIN, CHAIN, CHAIN_PATH, count=0),
    lambda t: reconstruction_success_probability(CHAIN, CHAIN, CHAIN_PATH, count=2.0),
    lambda t: randomized_reconstruction(FIX_MOD, FIXTURE, FIX_PATH.path, stream(98), count=0),
    lambda t: randomized_reconstruction(FIX_MOD, FIXTURE, FIX_PATH.path, stream(98), count=10.0),
    lambda t: randomized_reconstruction(FIX_MOD, FIXTURE, FIX_PATH.path, 98),
    lambda t: randomized_reconstruction(FIX_MOD, FIXTURE, FIX_PATH.path, np.random.RandomState(98)),
    lambda t: randomized_reconstruction(FIX_MOD, FIXTURE, FIX_PATH.path, stream(98), count=2**63 - 1),
    lambda t: randomized_reconstruction(FIX_MOD, FIXTURE, FIX_PATH.path, stream(98), count=2**64),
], ids=["enumerate_plans_level_0", "enumerate_plans_top_level", "enumerate_plans_float_count",
        "enumerate_plans_vertex_not_a_pair", "enumerate_plans_one_coordinate",
        "enumerate_plans_three_coordinates",
        "path_neighborhood_empty", "collapse_run_float_level", "collapse_run_float_start",
        "collapse_run_float_count", "insertion_float_level", "insertion_float_slot",
        "insertion_one_slot", "insertion_three_slots", "insertion_pair_not_a_sequence",
        "probability_bound_negative_count", "probability_bound_negative_degree",
        "probability_bound_float_degree", "probability_bound_degree_below_two",
        "modification_float_count", "modification_integral_float_count",
        "modification_float_threshold", "modification_float_slot",
        "modification_negative_slot", "modification_slot_past_edges", "modification_up_slot_past_fan",
        "modification_plan_not_a_pair",
        "modified_indices_string_threshold", "modified_indices_negative_threshold",
        "success_probability_zero_count", "success_probability_float_count",
        "reconstruction_zero_count", "reconstruction_float_count",
        "reconstruction_seed_for_rng", "reconstruction_legacy_random_state",
        "reconstruction_count_past_int64_draws", "reconstruction_count_past_uint64"])
def test_surgery_rejects_bad_arguments_at_the_boundary(call):
    # each raised TypeError, IndexError, AttributeError (an rng that is not
    # a Generator) or ZeroDivisionError from inside, was accepted (the
    # three-slot pair, integral float counts, count 0, float or negative
    # thresholds, float or small degrees), or (count 2.5) asked for 2.5 pairs;
    # a count whose range of count + 2 is past int64 draws is refused as
    # ``Generator.integers`` refuses that range
    t = forest_to_triangulation(((2,), (1, 2), (1, 1, 1)))
    with pytest.raises(ValueError):
        call(t)


@pytest.mark.parametrize("ups, downs, named", [
    ((-1,) + (5,) * 9, (1,) * 10, "(-1, 1)"),
    ((5,) * 9 + (6,), (1,) * 10, "(6, 1)"),
    ((5,) * 10, (0,) * 9 + (2,), "(5, 2)"),
], ids=["low_end", "up_high_end", "down_high_end"])
def test_slot_range_is_checked_at_the_ends_of_the_sorted_lists(ups, downs, named):
    # (1, 0) of the fixture has up slots 0..5 and down slots 0..1; the
    # refusal names the pair at the end that is out of range
    with pytest.raises(ValueError, match=f"slot pair {re.escape(named)} out of range"):
        apply_modification(FIXTURE, FIX_PATH, {1: (ups, downs)}, threshold=8, count=10)


def test_apply_modification_takes_numpy_integer_slots():
    # (1, 0) of the fixture has up slots 0..5 and down slots 0..1
    plan = {1: (np.full(10, 5, dtype=np.int64), tuple(np.int32(1) for _ in range(10)))}
    out = apply_modification(FIXTURE, FIX_PATH, plan, threshold=8, count=10)
    assert out == FIX_MOD
    assert all(type(q) is int for strip in out.fans for fan in strip for q in fan)


def test_insertions_build_no_degree_table(monkeypatch):
    # the internal-vertex test reads the level alone, so a fresh
    # triangulation's degree table stays unbuilt
    def fresh():
        return forest_to_triangulation(((2,), (1, 2), (1, 1, 1)))

    def run(t):
        return [(site, insert_pairs(t, Insertion(1, 1, ((site.up_slot, site.down_slot),))))
                for site in insertion_sites(t, 1, 1)]

    want = run(fresh())

    def boom(self):
        raise RuntimeError("degree_split built")

    monkeypatch.setattr(Triangulation, "degree_split", property(boom))
    t = fresh()
    assert run(t) == want
    for level, pos in ((0, 0), (3, 1), (1, 5), (4, 0), (-1, 0)):
        with pytest.raises(ValueError):
            insertion_sites(t, level, pos)
        with pytest.raises(ValueError):
            insert_pairs(t, Insertion(level, pos, ((0, 0),)))


def test_collapse_then_reinsert_closure():
    # collapsing a plain edge and re-inserting at the boundary slots restores
    # the original triangulation
    for i in range(60):
        t = forest_to_triangulation(sample_spine_forest(stream(91, i), 4))
        lvl = 1 if t.level_sizes[1] >= 2 else (2 if t.level_sizes[2] >= 2 else None)
        if lvl is None or lvl >= t.top_level:
            continue
        v = t.vertex_degree(lvl, 0)
        c = collapse_horizontal_edge(t, lvl, 0)
        back = insert_pairs(c, Insertion(lvl, 0, ((v.up - 1, v.down - 1),))).triangulation
        assert back.canonical_key == t.canonical_key


def test_path_neighborhood_requires_geodesic():
    t = forest_to_triangulation(((2,), (1, 1)))
    with pytest.raises(ValueError):
        path_neighborhood(t, [(0, 0), (1, 0), (1, 1)])


def test_path_coordinates_must_be_integers():
    # truncation would read (1.9, 0.2) as (1, 0) and accept the path
    bad = [(0, 0), (1.9, 0.2)]
    with pytest.raises(ValueError, match="integers"):
        path_neighborhood(FIXTURE, bad)
    with pytest.raises(ValueError, match="integers"):
        randomized_reconstruction(FIX_MOD, FIXTURE, bad, stream(96, 0))
    with pytest.raises(ValueError, match="integers"):
        reconstruction_success_probability(CHAIN, CHAIN, [(0, 0), (1.9, 0)])
    # numpy integers are integers
    numpy_path = [(np.int64(level), np.int32(pos)) for level, pos in FIX_PATH.path]
    assert path_neighborhood(FIXTURE, numpy_path) == FIX_PATH
    assert (randomized_reconstruction(FIX_MOD, FIXTURE, numpy_path, stream(96, 0))
            == randomized_reconstruction(FIX_MOD, FIXTURE, FIX_PATH.path, stream(96, 0)))
    assert (reconstruction_success_probability(CHAIN, CHAIN, np.array(CHAIN_PATH))
            == reconstruction_success_probability(CHAIN, CHAIN, CHAIN_PATH))


def test_embedding_unique_and_checks_degrees():
    t = forest_to_triangulation(((1,), (1,), (1,)))
    pn = path_neighborhood(t, [(0, 0), (1, 0), (2, 0)])
    assert embed(pn, t) == ((0, 0), (1, 0), (2, 0))
    other = forest_to_triangulation(((1,), (1,), (2,)))
    assert embed(pn, other) is None  # top split differs


def test_embedding_into_larger_host():
    # extending the triangulation above the path keeps the embedding alive
    t = forest_to_triangulation(((1,), (1,), (1,)))
    pn = path_neighborhood(t, [(0, 0), (1, 0)])
    host = forest_to_triangulation(((1,), (1,), (2,)))
    assert embed(pn, host) == ((0, 0), (1, 0))


def test_encoding_injective_within_host():
    # distinct locally geodesic paths never share an encoding
    for i in range(20):
        t = forest_to_triangulation(sample_spine_forest(stream(92, i), 4))
        seen = {}
        # depth-first over self-avoiding geodesic paths up to length 3
        adj = csr_rows(*t.neighbors)
        stack = [[0]]
        while stack:
            flat_path = stack.pop()
            path = [t.vertex_at(f) for f in flat_path]
            try:
                pn = path_neighborhood(t, path)
            except ValueError:
                continue
            key = (pn.splits, pn.entries, pn.exits)
            assert seen.setdefault(key, tuple(path)) == tuple(path)
            assert embed(pn, t) == tuple(path)
            if len(flat_path) <= 3:
                for u in adj[flat_path[-1]]:
                    if u not in flat_path:
                        stack.append(flat_path + [u])


def test_encoding_count_bound():
    # the (split, entry, exit) encoding never exceeds d^3 options per vertex
    t = FIXTURE
    pn = FIX_PATH
    degrees = pn.degrees()
    bound = 1
    for d in degrees:
        bound *= d**3
    # count the possible encodings of this degree sequence realized in t
    assert bound >= 1  # structural; each coordinate ranges over at most d values
    for j, (up, down) in enumerate(pn.splits):
        d = degrees[j]
        assert (up or 0) <= d and (down or 0) <= d
        for slot in (pn.entries[j], pn.exits[j]):
            if slot is not None:
                assert slot[1] < d


def test_apply_modification_empty_when_below_threshold():
    t = forest_to_triangulation(((1,), (1,), (1,)))
    pn = path_neighborhood(t, [(0, 0), (1, 0)])
    assert apply_modification(t, pn, {}, threshold=100, count=10) == t
    with pytest.raises(ValueError):
        apply_modification(t, pn, {1: ((0,), (0,))}, threshold=100, count=1)
    # an empty insertion has no slot list ends to check, and changes nothing
    res = insert_pairs(t, Insertion(1, 0, ()))
    assert res.triangulation == t and res.count == 0


def test_apply_modification_f_increase_and_measure_inequality():
    assert FIX_MOD.triangle_count == FIXTURE.triangle_count + 20
    mu = math.log(2.0)
    n = FIX_PATH.length
    lhs = math.exp(-mu * FIX_MOD.triangle_count)
    rhs = math.exp(-20.0 * n * mu) * math.exp(-mu * FIXTURE.triangle_count)
    assert lhs >= rhs * (1.0 - 1e-12)


def test_apply_modification_two_vertices():
    # eligible vertices on levels 1 and 2: both insertions write strip 1
    t = forest_to_triangulation(((3,), (2, 2, 2), (1, 1, 1, 1, 1, 1)))
    host = host_record(t)
    pn = path_neighborhood(t, [(0, 0), (1, 0), (2, 1)])
    eligible = modified_indices(pn, threshold=5)
    assert eligible == [1, 2]
    for near in enumerate_plans(t, (1, 0), 2):
        for far in enumerate_plans(t, (2, 1), 2):
            out = apply_modification(t, pn, {1: near, 2: far}, threshold=5, count=2)
            assert out.triangle_count == t.triangle_count + 2 * 2 * 2
            assert_checked_like_user_input(out)
            # the far vertex first; its level-2 insertion moves no level-1 label
            ref = reference_insert_pairs(t, Insertion(2, 1, tuple(zip(*far))))
            assert out == reference_insert_pairs(ref, Insertion(1, 0, tuple(zip(*near))))
    assert_host_unchanged(t, host)


@pytest.mark.parametrize("host_index", [0, 88])
def test_apply_modification_matches_elementary_insertions(host_index):
    # every plan of criterion 9c on two of its hosts (88 is the base itself)
    count = 10
    base = forest_to_triangulation(((2,), (3, 1), (1,) * 4))
    pn = path_neighborhood(base, [(0, 0), (1, 0)])
    hosts = [h for h, _ in enumerate_triangulations(3, 4) if embed(pn, h) is not None]
    host = hosts[host_index]
    assert host_index != 88 or host == base
    level, pos = embed(pn, host)[1]
    for ups, downs in enumerate_plans(host, (level, pos), count):
        out = apply_modification(host, pn, {1: (ups, downs)}, threshold=8, count=count)
        assert out == reference_insert_pairs(host, Insertion(level, pos, tuple(zip(ups, downs))))


def test_apply_modification_matches_chained_insertions_on_one_level():
    # two eligible path vertices on level 2; the far one, (2, 2), goes first
    # and pushes the near one, (2, 3), to position 3 + count
    count = 2
    t = forest_to_triangulation(((2,), (3, 1), (3, 3, 3, 3)))
    pn = path_neighborhood(t, [(0, 0), (1, 1), (2, 3), (2, 2)])
    assert modified_indices(pn, threshold=6) == [2, 3]
    for near in enumerate_plans(t, (2, 3), count):
        for far in enumerate_plans(t, (2, 2), count):
            out = apply_modification(t, pn, {2: near, 3: far}, threshold=6, count=count)
            ref = reference_insert_pairs(t, Insertion(2, 2, tuple(zip(*far))))
            ref = reference_insert_pairs(ref, Insertion(2, 3 + count, tuple(zip(*near))))
            assert out == ref


def test_cached_embedding_gives_the_same_results(monkeypatch):
    # criterion 9c's path on every tenth host: a fresh copy per plan (cold
    # cache) against one host object reused for every plan (warm cache)
    count = 10
    base = forest_to_triangulation(((2,), (3, 1), (1,) * 4))
    pn = path_neighborhood(base, [(0, 0), (1, 0)])
    hosts = [h for h, _ in enumerate_triangulations(3, 4) if embed(pn, h) is not None][::10]
    traced = []
    monkeypatch.setattr(surgery, "embed", lambda p, t: traced.append(t) or embed(p, t))
    for host in hosts:
        warm = Triangulation(host.level_sizes, host.fans)
        for plan in enumerate_plans(host, (1, 0), count)[::7]:
            cold = apply_modification(Triangulation(host.level_sizes, host.fans), pn,
                                      {1: plan}, threshold=8, count=count)
            out = apply_modification(warm, pn, {1: plan}, threshold=8, count=count)
            assert (out.level_sizes, out.fans) == (cold.level_sizes, cold.fans)
        assert sum(t is warm for t in traced) == 1  # traced once, however many plans


def test_non_embedding_host_raises_on_every_call():
    t = forest_to_triangulation(((1,), (1,), (1,)))
    pn = path_neighborhood(t, [(0, 0), (1, 0), (2, 0)])
    other = forest_to_triangulation(((1,), (1,), (2,)))
    for _ in range(2):  # the second call finds the cached None
        with pytest.raises(ValueError, match="does not embed"):
            apply_modification(other, pn, {}, threshold=100, count=10)


def test_reconstruction_trivial_success():
    t = FIXTURE
    r = randomized_reconstruction(t, t, [(0, 0)], stream(93, 0))
    assert r.success and r.contractions == ()


def test_reconstruction_frequency_beats_bound():
    attempts = 20000
    wins = 0
    for i in range(attempts):
        r = randomized_reconstruction(FIX_MOD, FIXTURE, FIX_PATH.path, stream(94, i))
        wins += r.success
    freq = wins / attempts
    bound = reconstruction_probability_bound(FIX_PATH.degrees())
    se = math.sqrt(max(freq * (1 - freq), 1e-12) / attempts)
    assert freq >= bound - 3 * se
    assert freq > 0
    exact = reconstruction_success_probability(FIX_MOD, FIXTURE, FIX_PATH.path)
    assert abs(freq - exact) <= 4 * math.sqrt(exact * (1 - exact) / attempts)


@pytest.mark.parametrize("t_prime, reference, path", [
    (FIX_MOD, FIXTURE, FIX_PATH.path),
    (CHAIN, CHAIN, CHAIN_PATH),
], ids=["modified", "chain"])
def test_exact_success_probability_beats_bound(t_prime, reference, path):
    exact = reconstruction_success_probability(t_prime, reference, path)
    assert exact >= reconstruction_probability_bound(path_neighborhood(reference, path).degrees())


def test_exact_success_probability_of_chain():
    # each step takes one of the two parallel edges upward, out of 4 slots at
    # the root and 6 above it, then does nothing: every contraction on a
    # one-vertex level aborts
    exact = reconstruction_success_probability(CHAIN, CHAIN, CHAIN_PATH)
    assert exact == pytest.approx((2 / 4) * (2 / 6) * (2 / 6) / 12**3, rel=1e-12)


def plain_reconstruction(t_prime, reference, reference_path, rng, count=INSERT_COUNT):
    """Reference: the reconstruction walk drawing straight from ``rng``, with
    no branch table."""
    ref_path = tuple((int(l), int(p)) for l, p in reference_path)
    cur = (0, 0)
    walk = [cur]
    sizes, fans = _thaw(t_prime)
    contractions = []

    def fail():
        return ReconstructionResult(False, tuple(walk), None, tuple(contractions))

    for _ in range(len(ref_path) - 1):
        slots = [w for side in _slots(sizes, fans, cur).values() for w in side]
        cur = slots[int(rng.integers(0, len(slots)))]
        walk.append(cur)
        choice = int(rng.integers(0, count + 2))
        if choice == count + 1:
            continue
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
    ok = result.canonical_key == reference.canonical_key
    return ReconstructionResult(ok, tuple(walk), result, tuple(contractions))


def _fixture_calls():
    return [(FIX_MOD, FIXTURE, FIX_PATH.path, 10), (CHAIN, CHAIN, CHAIN_PATH, 10)] * 1500


def _count_two_calls():
    calls = []
    for i in range(20):
        t = forest_to_triangulation(sample_spine_forest(stream(96, i), 6))
        wider = insert_pairs(t, Insertion(1, 0, ((0, 0), (0, 0)))).triangulation
        path = ((0, 0), (1, 0), (2, t.fans[1][0][0]))
        calls += [(wider, t, path, 2), (t, t, path, 2)] * 60
    return calls


def _two_reference_calls():
    # one path, so only the reference tells the two tables apart
    return [(FIX_MOD, FIXTURE, FIX_PATH.path, 10), (FIX_MOD, FIX_MOD, FIX_PATH.path, 10)] * 1500


def _copy_calls():
    copy = Triangulation(FIX_MOD.level_sizes, FIX_MOD.fans)
    assert copy == FIX_MOD and copy is not FIX_MOD
    return [(FIX_MOD, FIXTURE, FIX_PATH.path, 10), (copy, FIXTURE, FIX_PATH.path, 10)] * 1500


@pytest.mark.parametrize("calls", [_fixture_calls, _count_two_calls, _two_reference_calls, _copy_calls],
                         ids=["fixtures", "count_two", "two_references", "equal_copy"])
def test_branch_table_matches_plain_walk(calls):
    # the same draws in the same order from one shared stream; dataclass
    # equality compares success, walk, rebuilt triangulation and contractions
    memo_rng, plain_rng = stream(97), stream(97)
    successes = 0
    for t_prime, reference, path, count in calls():
        got = randomized_reconstruction(t_prime, reference, path, memo_rng, count)
        want = plain_reconstruction(t_prime, reference, path, plain_rng, count)
        assert got == want
        successes += got.success
    assert successes > 0
    assert memo_rng.random() == plain_rng.random()


class ScriptedDraws:
    """A stand-in generator: ``integers(0, n)`` returns the next draw of the
    script, 0 past its end, and records n."""

    def __init__(self, script):
        self.script = script
        self.ranges = []

    def integers(self, low, high):
        assert low == 0
        i = len(self.ranges)
        self.ranges.append(high)
        return self.script[i] if i < len(self.script) else 0


def enumerated_success_probability(t_prime, reference, path, count):
    """Sum over every draw sequence of ``plain_reconstruction``, depth first:
    a run follows its script, then draws 0 and leaves each nonzero sibling
    of those draws for a later run.  A sequence weighs prod 1 / n over the
    ranges it drew from."""
    wins = []
    pending = [()]
    while pending:
        script = pending.pop()
        rng = ScriptedDraws(script)
        result = plain_reconstruction(t_prime, reference, path, rng, count)
        for i in range(len(script), len(rng.ranges)):
            zeros = (0,) * (i - len(script))
            pending += [script + zeros + (v,) for v in range(1, rng.ranges[i])]
        if result.success:
            weight = 1.0
            for n in rng.ranges:
                weight /= n
            wins.append(weight)
    return math.fsum(wins)


def _distinct(calls):
    """Each (t_prime, reference, path, count) once, in first-seen order."""
    return list({(id(t_prime), id(ref), path, count): (t_prime, ref, path, count)
                 for t_prime, ref, path, count in calls}.values())


@pytest.mark.parametrize("calls", [
    lambda: [(FIX_MOD, FIXTURE, FIX_PATH.path, 10), (CHAIN, CHAIN, CHAIN_PATH, 10)],
    lambda: _distinct(_count_two_calls()),
], ids=["fixtures", "count_two"])
def test_exact_success_probability_matches_enumerated_plain_walks(calls):
    # an oracle that runs no _walk and reads no branch table
    wins = 0
    for t_prime, reference, path, count in calls():
        want = enumerated_success_probability(t_prime, reference, path, count)
        got = reconstruction_success_probability(t_prime, reference, path, count)
        assert got == pytest.approx(want, rel=1e-15, abs=0)
        wins += want > 0
    assert wins > 0


@pytest.mark.parametrize("t_prime, reference, path", [
    (FIX_MOD, FIXTURE, FIX_PATH.path),
    (CHAIN, CHAIN, CHAIN_PATH),
], ids=["modified", "chain"])
def test_exact_enumeration_fills_the_tree_attempts_descend(monkeypatch, t_prime, reference, path):
    # fresh copies, so no table of another test is read
    exact_first = Triangulation(t_prime.level_sizes, t_prime.fans)
    attempts_first = Triangulation(t_prime.level_sizes, t_prime.fans)
    exact = reconstruction_success_probability(exact_first, reference, path)
    assert list(exact_first.__dict__["_reconstruction_branches"]) == [
        (reference.canonical_key, tuple(path), INSERT_COUNT)]
    # attempts on the exact enumeration's copy run no walk
    memo_rng, plain_rng = stream(99), stream(99)
    with monkeypatch.context() as m:
        m.setattr(surgery, "_walk", lambda *args: pytest.fail("a walk ran"))
        for _ in range(2000):
            got = randomized_reconstruction(exact_first, reference, path, memo_rng)
            assert got == plain_reconstruction(exact_first, reference, path, plain_rng)
        assert reconstruction_success_probability(exact_first, reference, path) == exact
    assert memo_rng.random() == plain_rng.random()
    # attempts first, then the exact value: the same float
    rng = stream(99)
    for _ in range(2000):
        randomized_reconstruction(attempts_first, reference, path, rng)
    assert reconstruction_success_probability(attempts_first, reference, path) == exact


def test_reconstruction_checks_a_repeated_target_once(monkeypatch):
    # attempts with the same reference, path and count objects pass through
    # _branches once and return the very nodes of attempts checked on every
    # call; a fresh copy of t_prime returns equal results
    t_prime = Triangulation(FIX_MOD.level_sizes, FIX_MOD.fans)
    fresh = Triangulation(FIX_MOD.level_sizes, FIX_MOD.fans)
    path = list(FIX_PATH.path)
    exact = reconstruction_success_probability(t_prime, FIXTURE, path)
    branches, checked = surgery._branches, []
    monkeypatch.setattr(surgery, "_branches", lambda *args: checked.append(args) or branches(*args))
    rng = stream(98)
    got = [randomized_reconstruction(t_prime, FIXTURE, path, rng) for _ in range(5000)]
    assert len(checked) == 1 and sum(r.success for r in got) > 0
    rng = stream(98)  # new path items on every call: each one is checked
    again = [randomized_reconstruction(t_prime, FIXTURE, [(lvl, pos) for lvl, pos in path], rng)
             for _ in range(5000)]
    assert len(checked) == 5001
    assert all(a is b for a, b in zip(got, again, strict=True))
    rng = stream(98)
    assert [randomized_reconstruction(fresh, FIXTURE, path, rng) for _ in range(5000)] == got
    # the exact value reads the same tree, before attempts and after them
    assert reconstruction_success_probability(t_prime, FIXTURE, path) == exact
    assert reconstruction_success_probability(fresh, FIXTURE, path) == exact


def test_reconstruction_record_keeps_the_boundary():
    t_prime = Triangulation(FIX_MOD.level_sizes, FIX_MOD.fans)
    path = list(FIX_PATH.path)
    rng = stream(98)
    randomized_reconstruction(t_prime, FIXTURE, path, rng)
    good = path[1]
    path[1] = (1.9, 0)  # the recorded list, edited in place
    with pytest.raises(ValueError, match="integers"):
        randomized_reconstruction(t_prime, FIXTURE, path, rng)
    path[1] = good
    for count in (10.0, 0):
        with pytest.raises(ValueError, match="count"):
            randomized_reconstruction(t_prime, FIXTURE, path, rng, count)
    # a numpy path reads as the tuple path and descends the same tree
    array_rng, tuple_rng = stream(99), stream(99)
    wins = 0
    for _ in range(2000):
        got = randomized_reconstruction(t_prime, FIXTURE, np.array(FIX_PATH.path), array_rng)
        assert got is randomized_reconstruction(t_prime, FIXTURE, FIX_PATH.path, tuple_rng)
        wins += got.success
    assert wins > 0


def integers_descent(t_prime, reference, path, rng, count=INSERT_COUNT):
    """The node of ``t_prime``'s branch tree that draws of
    ``rng.integers(0, n)`` reach, as attempts draw them: per step the slot,
    then the option."""
    table = t_prime.__dict__["_reconstruction_branches"][(reference.canonical_key, tuple(path), count)]
    draws = ()
    node = table[draws]
    while isinstance(node, int):
        draws += (int(rng.integers(0, node)), int(rng.integers(0, count + 2)))
        node = table[draws]
    return node


@pytest.mark.parametrize("t_prime, reference, path", [
    (FIX_MOD, FIXTURE, FIX_PATH.path),
    (CHAIN, CHAIN, CHAIN_PATH),
], ids=["modified", "chain"])
def test_reconstruction_keeps_its_draw_function_across_generators(t_prime, reference, path):
    # t_prime keeps its last attempt's draw function and must rebuild it
    # whenever the generator changes; each attempt, on a fresh copy whose
    # walks still run, lands on the node that integers() draws reach in the
    # tree it wrote, and each generator ends where integers() leaves it
    t_prime = Triangulation(t_prime.level_sizes, t_prime.fans)
    gens, refs = (stream(98), stream(99)), (stream(98), stream(99))
    leaves = set()
    for i in range(3000):
        side = (i // 3 + i) % 2  # runs of one and of two attempts per generator
        got = randomized_reconstruction(t_prime, reference, path, gens[side])
        assert got is integers_descent(t_prime, reference, path, refs[side])
        leaves.add(id(got))
    assert len(leaves) > 100
    assert [_plain(g.bit_generator.state) for g in gens] == [_plain(r.bit_generator.state) for r in refs]
    assert [g.random() for g in gens] == [r.random() for r in refs]


def test_reconstruction_keeps_its_draw_function_across_rekeying():
    # surgery-selftest re-keys one TrialKeys generator per attempt: a state
    # assignment rewrites the bit generator's state in place, so the kept
    # draw function stays valid; another generator between re-keyings makes
    # the attempt rebuild it and the next re-keyed one rebuild it again
    t_prime = Triangulation(FIX_MOD.level_sizes, FIX_MOD.fans)
    keys, other, other_ref = TrialKeys(23), stream(97), stream(97)
    wins = 0
    for i in range(3000):
        rng, ref = keys.stream(i), stream(23, i)
        got = randomized_reconstruction(t_prime, FIXTURE, FIX_PATH.path, rng)
        assert got is integers_descent(t_prime, FIXTURE, FIX_PATH.path, ref)
        assert _plain(rng.bit_generator.state) == _plain(ref.bit_generator.state)
        wins += got.success
        if i % 5 == 0:
            got = randomized_reconstruction(t_prime, FIXTURE, FIX_PATH.path, other)
            assert got is integers_descent(t_prime, FIXTURE, FIX_PATH.path, other_ref)
    assert wins > 0
    assert _plain(other.bit_generator.state) == _plain(other_ref.bit_generator.state)


def test_reconstruction_identity_hit_keeps_the_boundary(monkeypatch):
    # a tuple path that is the recorded tuple skips the item scan, but a
    # changed count or another reference object still goes through _branches
    t_prime = Triangulation(FIX_MOD.level_sizes, FIX_MOD.fans)
    path = FIX_PATH.path
    branches, checked = surgery._branches, []
    monkeypatch.setattr(surgery, "_branches", lambda *args: checked.append(args) or branches(*args))
    rng = stream(98)
    first = [randomized_reconstruction(t_prime, FIXTURE, path, rng) for _ in range(50)]
    assert len(checked) == 1 and t_prime.__dict__["_reconstruction_last"][1] is path
    for count in (10.0, 0, 2**64):
        with pytest.raises(ValueError, match="count|range"):
            randomized_reconstruction(t_prime, FIXTURE, path, rng, count)
    assert len(checked) == 4
    want_rng = stream(99)
    got = randomized_reconstruction(t_prime, FIXTURE, path, stream(99), 2)
    assert got == plain_reconstruction(t_prime, FIXTURE, path, want_rng, 2)
    assert len(checked) == 5
    twin = Triangulation(FIXTURE.level_sizes, FIXTURE.fans)
    rng = stream(98)
    again = [randomized_reconstruction(t_prime, twin, path, rng) for _ in range(50)]
    assert len(checked) == 6 and t_prime.__dict__["_reconstruction_last"][0] is twin
    assert all(a is b for a, b in zip(first, again, strict=True))  # an equal key: the same tree


def test_reconstruction_target_pickles_without_its_draw_function():
    # the kept draw function calls into a generator by pointer; a pickled
    # t_prime leaves it out and its copy draws what the original draws
    t_prime = Triangulation(FIX_MOD.level_sizes, FIX_MOD.fans)
    randomized_reconstruction(t_prime, FIXTURE, FIX_PATH.path, stream(98))
    assert "_reconstruction_below" in t_prime.__dict__
    copy_ = pickle.loads(pickle.dumps(t_prime))
    assert copy_ == t_prime and "_reconstruction_below" not in copy_.__dict__
    a, b = stream(99), stream(99)
    for _ in range(500):
        assert (randomized_reconstruction(t_prime, FIXTURE, FIX_PATH.path, a)
                == randomized_reconstruction(copy_, FIXTURE, FIX_PATH.path, b))


def test_reconstruction_success_rebuilds_reference():
    # every reported success carries a rebuilt triangulation equal to the
    # reference, and the contraction log is a single level-1 run
    seen = 0
    for i in range(4000):
        r = randomized_reconstruction(FIX_MOD, FIXTURE, FIX_PATH.path, stream(94, i))
        if r.success:
            seen += 1
            assert r.triangulation.canonical_key == FIXTURE.canonical_key
            assert len(r.contractions) == 1 and r.contractions[0][0] == 1
    assert seen > 0


def test_reconstruction_unreachable_reference_never_succeeds():
    # the walk cannot jump two levels in one step
    wrong = [(0, 0), (2, 0)]
    for i in range(500):
        r = randomized_reconstruction(FIX_MOD, FIXTURE, wrong, stream(95, i))
        assert not r.success


def test_overcount_bounded_on_tiny_class():
    # enumerate (host, plan) pairs over a small class containing the path
    # neighborhood; no modified triangulation may be hit more often than
    # prod (count+2) * (d_j + count)
    count = 2
    t = forest_to_triangulation(((2,), (3, 1), (1,) * 4))
    pn = path_neighborhood(t, [(0, 0), (1, 0)])
    hosts = [
        host
        for host, _ in enumerate_triangulations(3, 4)
        if embed(pn, host) is not None
    ]
    assert t.canonical_key in {h.canonical_key for h in hosts}
    eligible = modified_indices(pn, threshold=8)
    assert eligible == [1]
    images = {}
    for host in hosts:
        for plan in enumerate_plans(host, (1, 0), count):
            out = apply_modification(host, pn, {1: plan}, threshold=8, count=count)
            images.setdefault(out.canonical_key, 0)
            images[out.canonical_key] += 1
    bound = 1.0
    for d in pn.degrees():
        bound *= (count + 2) * (d + count)
    assert max(images.values()) <= bound
