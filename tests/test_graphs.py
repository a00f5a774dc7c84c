import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, strategies as st

from priodpa import (
    GridGraph,
    Instance,
    InvalidParameterError,
    InvalidRequestError,
    InvalidTreeError,
    PathGraph,
    PriodpaError,
    Request,
    Solution,
    TreeGraph,
    edge_set,
    gain,
    instance_from_json,
    instance_hash,
    instance_to_json,
    intersects,
    ratio,
    request_length,
    unique_path,
    validate_solution,
)
from priodpa.graphs import graph_from_json, graph_to_json

from helpers import NESTED_EDGES, all_pairs, random_tree


def test_request_normalizes_endpoint_order():
    g = PathGraph(5)
    assert Request(g, 4, 1) == Request(g, 1, 4)
    assert Request(g, 4, 1).key == (1, 4)


def test_request_rejects_equal_endpoints():
    g = PathGraph(5)
    with pytest.raises(InvalidRequestError):
        Request(g, 0, 0)


def test_request_rejects_unknown_vertex():
    g = PathGraph(5)
    with pytest.raises(InvalidRequestError):
        Request(g, 0, 6)


def test_unique_path_on_path_graph():
    g = PathGraph(5)
    assert unique_path(g, Request(g, 2, 5)) == ((2, 3), (3, 4), (4, 5))


def test_unique_path_on_tree():
    t = TreeGraph(NESTED_EDGES)
    assert unique_path(t, Request(t, 12, 13)) == ((12, 7), (7, 13))


def test_intersects_on_path():
    g = PathGraph(5)
    assert intersects(Request(g, 0, 2), Request(g, 1, 3))
    assert not intersects(Request(g, 0, 2), Request(g, 2, 5))


def test_intersects_on_tree():
    t = TreeGraph(NESTED_EDGES)
    assert not intersects(Request(t, 6, 8), Request(t, 12, 13))


def test_intersects_rejects_cross_graph():
    a, b = PathGraph(5), PathGraph(7)
    with pytest.raises(InvalidRequestError):
        intersects(Request(a, 0, 2), Request(b, 0, 2))


@given(st.data())
def test_intersects_matches_edge_set_computation(data):
    n = data.draw(st.integers(min_value=4, max_value=20))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    t = random_tree(n, rng)
    pairs = all_pairs(t)
    r1 = data.draw(st.sampled_from(pairs))
    r2 = data.draw(st.sampled_from(pairs))
    expect = bool(edge_set(t, r1) & edge_set(t, r2))
    assert intersects(r1, r2) == expect
    assert intersects(r2, r1) == expect


@given(st.data())
def test_unique_path_is_connected_and_has_distance_length(data):
    n = data.draw(st.integers(min_value=2, max_value=16))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    t = random_tree(n, rng)
    r = data.draw(st.sampled_from(all_pairs(t)))
    walk = unique_path(t, r)
    assert walk[0][0] == r.x and walk[-1][1] == r.y
    for (a, b), (c, d) in zip(walk, walk[1:]):
        assert b == c
    assert len(walk) == request_length(t, r)
    assert len({v for e in walk for v in e}) == len(walk) + 1


def test_gain_modes():
    g = PathGraph(5)
    sol = Solution(g, frozenset({Request(g, 0, 2), Request(g, 2, 5)}), {})
    assert gain(sol, "count") == 2
    assert gain(sol, "length") == 5
    empty = Solution(g, frozenset(), {})
    assert gain(empty, "count") == 0 and gain(empty, "length") == 0


def test_ratio_is_exact_and_infinite_without_gain():
    assert ratio(3, 0) == inf
    assert ratio(12, 5) == Fraction(12, 5)


@pytest.mark.parametrize("obj", [
    {"graph": {"kind": "grid", "rows": True, "cols": 3}, "requests": []},
    {"graph": {"kind": "tree", "edges": [[0, 1], [1, True]]}, "requests": []},
    {"graph": {"kind": "path", "length": 4}, "requests": [[False, 2]]},
    {"graph": {"kind": "grid", "rows": 3, "cols": 3}, "requests": [[[0, True], [2, 2]]]},
])
def test_instance_json_rejects_bool_for_int(obj):
    with pytest.raises(PriodpaError):
        instance_from_json(obj)


def test_validate_solution_rejects_shared_edge():
    g = PathGraph(5)
    r1, r2 = Request(g, 0, 2), Request(g, 1, 3)
    inst = Instance(g, [r1, r2])
    assert not validate_solution(inst, Solution(g, frozenset({r1, r2}), {}))
    assert validate_solution(inst, Solution(g, frozenset(), {}))
    assert validate_solution(inst, Solution(g, frozenset({r1}), {}))


def test_validate_solution_rejects_foreign_acceptance():
    g = PathGraph(5)
    inst = Instance(g, [Request(g, 0, 2)])
    stray = Solution(g, frozenset({Request(g, 3, 5)}), {})
    assert not validate_solution(inst, stray)


def test_grid_allocations_checked_for_overlap():
    gg = GridGraph(3, 3)
    r1, r2 = Request(gg, (0, 0), (1, 2)), Request(gg, (2, 0), (1, 1))
    inst = Instance(gg, [r1, r2])
    top = (((0, 0), (0, 1)), ((0, 1), (0, 2)), ((0, 2), (1, 2)))
    short = (((2, 0), (2, 1)), ((2, 1), (1, 1)))
    detour = (
        ((2, 0), (2, 1)), ((2, 1), (2, 2)), ((2, 2), (1, 2)),
        ((1, 2), (0, 2)), ((0, 2), (0, 1)), ((0, 1), (1, 1)),
    )
    ok = Solution(gg, frozenset({r1, r2}), {r1: top, r2: short})
    crossing = Solution(gg, frozenset({r1, r2}), {r1: top, r2: detour})
    assert validate_solution(inst, ok)
    assert not validate_solution(inst, crossing)


def test_instance_sorts_requests():
    g = PathGraph(5)
    inst = Instance(g, [Request(g, 1, 3), Request(g, 0, 2)])
    assert [r.key for r in inst.requests] == [(0, 2), (1, 3)]


def test_instance_rejects_duplicates():
    g = PathGraph(5)
    with pytest.raises(InvalidRequestError):
        Instance(g, [Request(g, 0, 2), Request(g, 2, 0)])


def test_instance_rejects_foreign_graph():
    g, h = PathGraph(5), PathGraph(7)
    with pytest.raises(InvalidRequestError):
        Instance(g, [Request(h, 0, 2)])


def test_path_graph_rejects_bad_length():
    for bad in (0, -3):
        with pytest.raises(InvalidParameterError):
            PathGraph(bad)


def test_tree_graph_roots_at_smallest_leaf():
    t = TreeGraph(NESTED_EDGES)
    assert t.root == 0
    assert t.depth[1] == 1 and t.depth[7] == 3 and t.depth[13] == 4
    assert t.parent[7] == 2


def test_tree_graph_rejects_cycles_and_forests():
    with pytest.raises(InvalidTreeError):
        TreeGraph([(0, 1), (1, 2), (2, 0)])
    with pytest.raises(InvalidTreeError):
        TreeGraph([(0, 1), (2, 3)])


def test_grid_graph_shape():
    gg = GridGraph(3, 3)
    assert len(gg.vertices()) == 9
    assert len(gg.edge_list()) == 12


def test_graph_json_roundtrip():
    for g in (PathGraph(9), TreeGraph(NESTED_EDGES), GridGraph(3, 3)):
        assert graph_from_json(graph_to_json(g)) == g


def test_instance_json_roundtrip_normalizes_pairs():
    g = PathGraph(6)
    inst = Instance(g, [Request(g, 5, 2), Request(g, 0, 1)])
    blob = instance_to_json(inst)
    assert blob["requests"] == [[0, 1], [2, 5]]
    assert instance_from_json(blob) == inst


def test_instance_hash_is_stable_and_sensitive():
    g = PathGraph(6)
    a = Instance(g, [Request(g, 0, 2)])
    b = Instance(g, [Request(g, 0, 2)])
    c = Instance(g, [Request(g, 0, 3)])
    assert instance_hash(a) == instance_hash(b)
    assert instance_hash(a) != instance_hash(c)
    assert len(instance_hash(a)) == 12


@given(st.data())
def test_length_gain_never_exceeds_path_length(data):
    l = data.draw(st.integers(min_value=1, max_value=10))
    g = PathGraph(l)
    pairs = all_pairs(g)
    subset = data.draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    inst = Instance(g, subset)
    accepted = []
    used = set()
    for r in inst.requests:
        es = edge_set(g, r)
        if not (es & used):
            accepted.append(r)
            used |= es
    sol = Solution(g, frozenset(accepted), {})
    assert validate_solution(inst, sol)
    assert gain(sol, "length") <= l
