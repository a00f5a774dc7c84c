import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations
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
    Session,
    Solution,
    TreeGraph,
    gain,
    instance_from_json,
    instance_hash,
    instance_to_json,
    ratio,
    validate_solution,
)
from priodpa.graphs import graph_from_json, graph_to_json
from priodpa.grid import GridRouter

from helpers import (
    NESTED_EDGES, all_pairs, canonical_trees, edge_set, path_edges, random_tree, simple_paths,
)


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


def _walk_mask(graph, req):
    """The request's edge mask from the parent walk: bit i is the path edge
    {i, i+1}, bit v the tree edge from v to its parent."""
    if graph.kind == "path":
        return sum(1 << min(e) for e in edge_set(graph, req))
    return sum(1 << (a if graph.parent[a] == b else b) for a, b in edge_set(graph, req))


def test_stored_mask_matches_the_walk_on_every_small_host():
    hosts = [PathGraph(length) for length in range(1, 9)]
    hosts += [TreeGraph(edges) for n in range(2, 8) for edges in canonical_trees(n)]
    for g in hosts:
        for r in all_pairs(g):
            expect = _walk_mask(g, r)
            assert r.mask == expect
            assert Request(g, r.y, r.x).mask == expect
            assert r.mask.bit_count() == len(path_edges(g, r))


def test_a_grid_request_has_no_mask():
    grid = GridGraph()
    r = Request(grid, (0, 0), (1, 2))
    assert r.mask is None
    with pytest.raises(InvalidRequestError):
        Session(GridRouter(), grid).fits(r)


def test_route_mask_is_the_walked_edge_set_on_every_host():
    hosts = [PathGraph(length) for length in range(1, 7)]
    hosts += [TreeGraph(edges) for n in range(2, 7) for edges in canonical_trees(n)]
    for g in hosts:
        for r in all_pairs(g):
            expect = _walk_mask(g, r)
            # a cycle-free host has one route per request, whatever is named
            for route in (None, (), path_edges(g, r)):
                assert g.route_mask(r, route) == expect
    grid = GridGraph()
    bit = {frozenset(e): 1 << i for i, e in enumerate(grid.edge_list())}
    vs = grid.vertices()
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            r = Request(grid, a, b)
            for p in simple_paths(grid, a, b):
                assert grid.route_mask(r, p) == sum(bit[frozenset(e)] for e in p)


def test_requests_are_immutable():
    g = PathGraph(5)
    r = Request(g, 1, 3)
    for name, value in (("x", 0), ("y", 4), ("mask", 0), ("graph", PathGraph(6)), ("z", 1)):
        with pytest.raises(AttributeError):
            setattr(r, name, value)
    with pytest.raises(AttributeError):
        del r.x
    assert (r.graph, r.x, r.y, r.mask) == (g, 1, 3, 0b110)
    # copies are built through the constructor, as for the frozen dataclass
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert twin == r and twin.mask == r.mask


def test_requests_compare_by_host_value_and_hash_as_before():
    for make in (lambda: PathGraph(6), lambda: TreeGraph(NESTED_EDGES)):
        g, h = make(), make()
        assert g is not h
        r, s = Request(g, 4, 2), Request(h, 2, 4)
        assert r == s and not r != s and hash(r) == hash(s) == hash((g, 2, 4))
        assert len({r, s}) == 1
        assert r != Request(g, 2, 5)
    assert Request(PathGraph(6), 1, 3) != Request(PathGraph(7), 1, 3)
    assert Request(PathGraph(6), 1, 3) != Request(TreeGraph(NESTED_EDGES), 1, 3)
    assert Request(PathGraph(6), 1, 3) != (PathGraph(6), 1, 3)
    assert repr(Request(PathGraph(6), 3, 1)) == "Request(1, 3)"


def _intersects(r1, r2):
    return bool(r1.mask & r2.mask)


def test_unique_path_on_path_graph():
    g = PathGraph(5)
    assert path_edges(g, Request(g, 2, 5)) == ((2, 3), (3, 4), (4, 5))
    assert Request(g, 2, 5).mask.bit_count() == 3


def test_unique_path_on_tree():
    t = TreeGraph(NESTED_EDGES)
    assert path_edges(t, Request(t, 12, 13)) == ((12, 7), (7, 13))
    assert Request(t, 12, 13).mask.bit_count() == 2


def test_intersects_on_path():
    g = PathGraph(5)
    assert _intersects(Request(g, 0, 2), Request(g, 1, 3))
    assert not _intersects(Request(g, 0, 2), Request(g, 2, 5))


def test_intersects_on_tree():
    t = TreeGraph(NESTED_EDGES)
    assert not _intersects(Request(t, 6, 8), Request(t, 12, 13))


@given(st.data())
def test_intersects_matches_edge_set_computation(data):
    n = data.draw(st.integers(min_value=4, max_value=20))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    t = random_tree(n, rng)
    pairs = all_pairs(t)
    r1 = data.draw(st.sampled_from(pairs))
    r2 = data.draw(st.sampled_from(pairs))
    expect = bool(edge_set(t, r1) & edge_set(t, r2))
    assert _intersects(r1, r2) == expect
    assert _intersects(r2, r1) == expect


@given(st.data())
def test_unique_path_is_connected_and_has_distance_length(data):
    n = data.draw(st.integers(min_value=2, max_value=16))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    t = random_tree(n, rng)
    r = data.draw(st.sampled_from(all_pairs(t)))
    walk = path_edges(t, r)
    assert walk[0][0] == r.x and walk[-1][1] == r.y
    for (a, b), (c, d) in zip(walk, walk[1:]):
        assert b == c
    assert len(walk) == r.mask.bit_count()
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
    # nothing to gain and nothing gained: the algorithm is optimal
    assert ratio(0, 0) == 1 and isinstance(ratio(0, 0), Fraction)


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
    gg = GridGraph()
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


def test_a_grid_solution_without_routes_is_invalid():
    gg = GridGraph()
    r = Request(gg, (0, 0), (0, 1))
    inst = Instance(gg, [r])
    assert not validate_solution(inst, Solution(gg, (r,)))
    assert not validate_solution(inst, Solution(gg, ()))
    assert validate_solution(inst, Solution(gg, (), {}))
    assert validate_solution(inst, Solution(gg, (r,), {r: (((0, 0), (0, 1)),)}))


def test_instance_sorts_requests():
    g = PathGraph(5)
    inst = Instance(g, [Request(g, 1, 3), Request(g, 0, 2)])
    assert [r.key for r in inst.requests] == [(0, 2), (1, 3)]


def test_instance_rejects_duplicates():
    g = PathGraph(5)
    with pytest.raises(InvalidRequestError):
        Instance(g, [Request(g, 0, 2), Request(g, 2, 0)])
    # also on equal but distinct host objects, and on the grid
    edges, shuffled = [(0, 1), (1, 2), (1, 3), (3, 4)], [(3, 4), (2, 1), (1, 0), (3, 1)]
    for g, h in ((PathGraph(5), PathGraph(5)), (TreeGraph(edges), TreeGraph(shuffled))):
        assert g is not h and g == h
        for requests in ([Request(g, 0, 2), Request(h, 2, 0)],
                         [Request(h, 1, 4), Request(g, 0, 3), Request(g, 4, 1)]):
            with pytest.raises(InvalidRequestError, match="duplicate request in instance"):
                Instance(g, requests)
    gg = GridGraph()
    with pytest.raises(InvalidRequestError, match="duplicate request in instance"):
        Instance(gg, [Request(gg, (0, 0), (2, 1)), Request(GridGraph(), (2, 1), (0, 0))])
    # two distinct requests that share an endpoint are no duplicate
    assert len(Instance(gg, [Request(gg, (0, 0), (2, 1)), Request(gg, (0, 0), (1, 2))])) == 2


def test_building_an_instance_hashes_no_request(monkeypatch):
    calls = [0]

    def counted(self):
        calls[0] += 1
        return hash((self.graph, self.x, self.y))

    monkeypatch.setattr(Request, "__hash__", counted)
    grid = GridGraph()
    cases = [(g, all_pairs(g)) for g in (PathGraph(9), TreeGraph(NESTED_EDGES))]
    cases.append((grid, [Request(grid, v, w) for v, w in combinations(grid.vertices(), 2)]))
    for g, requests in cases:
        assert len({*requests}) == len(requests) == calls[0]  # the counter counts
        calls[0] = 0
        assert len(Instance(g, requests)) == len(requests)
        assert calls[0] == 0


def test_hosts_repr_as_the_call_that_builds_them():
    for g in (PathGraph(6), TreeGraph(NESTED_EDGES), GridGraph()):
        assert eval(repr(g)) == g


def test_equal_instances_hash_equal_and_repr_their_host_and_size():
    g = PathGraph(5)
    inst = Instance(g, [Request(g, 1, 3), Request(g, 0, 2)])
    twin = Instance(PathGraph(5), [Request(g, 0, 2), Request(g, 1, 3)])
    assert inst == twin and hash(inst) == hash(twin)
    assert repr(inst) == "Instance(PathGraph(5), 2 requests)"


def test_instance_rejects_foreign_graph():
    g, h = PathGraph(5), PathGraph(7)
    with pytest.raises(InvalidRequestError):
        Instance(g, [Request(h, 0, 2)])
    # a mixed host is named before a duplicate
    with pytest.raises(InvalidRequestError, match="instance mixes host graphs"):
        Instance(g, [Request(g, 0, 2), Request(g, 0, 2), Request(h, 0, 2)])


def test_path_graph_rejects_bad_length():
    for bad in (0, -3):
        with pytest.raises(InvalidParameterError):
            PathGraph(bad)


def test_hosts_read_from_files_are_bounded():
    assert graph_from_json({"kind": "path", "length": (1 << 15) - 1}).length == (1 << 15) - 1
    with pytest.raises(InvalidParameterError):
        graph_from_json({"kind": "path", "length": 1 << 15})
    with pytest.raises(InvalidParameterError):  # 2**15 + 1 vertices
        graph_from_json({"kind": "tree", "edges": [[v, v + 1] for v in range(1 << 15)]})
    assert PathGraph(10**18).length == 10**18  # the constructor stays unbounded


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


def test_a_forest_with_a_cycle_is_not_connected():
    # 3 and 4 are leaves, so the cycle check passes and the walk from
    # root 3 never meets the triangle
    with pytest.raises(InvalidTreeError) as exc:
        TreeGraph([(0, 1), (1, 2), (2, 0), (3, 4)])
    assert str(exc.value) == "edge list is not connected"


def test_unknown_modes_and_kinds_are_named():
    g = PathGraph(3)
    with pytest.raises(InvalidParameterError) as exc:
        gain(Solution(g, ()), "weight")
    assert str(exc.value) == "unknown gain mode 'weight'"
    with pytest.raises(InvalidParameterError) as exc:
        graph_from_json({"kind": "cube"})
    assert str(exc.value) == "unknown graph kind 'cube'"


def test_tree_graph_reports_the_first_fault_as_before():
    # the integer check covers the whole list first; then each edge is
    # checked in input order, for range before repetition
    faults = {
        "bad edge (0, 5) for 4 vertices": [(0, 5), (1, 2), (2, 1)],
        "duplicate edge (1, 2)": [(1, 2), (2, 1), (0, 9)],
        "tree vertices must be integers": [(0, 9), (1, "a"), (1, 2)],
        "bad edge (1, 1) for 3 vertices": [(1, 1), (0, 1)],
        "a tree needs at least one edge here": [],
    }
    for message, edges in faults.items():
        with pytest.raises(InvalidTreeError) as exc:
            TreeGraph(edges)
        assert str(exc.value) == message


def test_tree_children_follow_the_parents():
    rng = random.Random(11)
    for _ in range(40):
        t = random_tree(rng.randint(2, 25), rng)
        assert t.children == {v: tuple(w for w in range(t.n) if t.parent[w] == v)
                              for v in range(t.n)}
        assert t.adj == {v: tuple(sorted(w for e in t.edges if v in e for w in e if w != v))
                         for v in range(t.n)}
        assert all(type(a) is dict for a in (t.adj, t.degree, t.parent, t.depth))


def test_grid_graph_shape():
    gg = GridGraph()
    assert len(gg.vertices()) == 9
    assert len(gg.edge_list()) == 12


@pytest.mark.parametrize("rows, cols", [(2, 3), (4, 3), (3, 2), (3.0, 3)])
def test_a_grid_file_names_the_3x3_grid(rows, cols):
    with pytest.raises(InvalidParameterError, match="exactly 3 rows and 3 cols"):
        graph_from_json({"kind": "grid", "rows": rows, "cols": cols})


def test_graph_json_roundtrip():
    for g in (PathGraph(9), TreeGraph(NESTED_EDGES), GridGraph()):
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
