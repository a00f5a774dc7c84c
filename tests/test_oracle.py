import copy
import gc
import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from priodpa import (
    Decision,
    GridGraph,
    Instance,
    InstanceTooLargeError,
    InvalidParameterError,
    OracleResult,
    PabParams,
    PathGraph,
    RatioReport,
    Request,
    Solution,
    TreeGraph,
    brute_force_opt,
    exhaustive_verify_3x3,
    gain,
    greedy_cat,
    greedy_lwdpa,
    greedy_lwdpa_algorithm,
    greedy_paths,
    greediest_opt,
    max_allocatable,
    run,
    run_guess,
    validate_solution,
)
from priodpa.battery import battery
from priodpa.grid import GridCase
from priodpa.reduction import BlockRecord
from priodpa.lwdpa import lwdpa_order
from priodpa import graphs, oracle
from priodpa.oracle import _components, _conflicts, _routable_size, _routings
from priodpa.paths import right_end_order
from priodpa.trees import cat_order

from helpers import (
    STAR4_EDGES,
    all_pairs,
    edge_set,
    prefix_walk_greediest,
    random_instance,
    random_tree,
    reference_max_allocatable,
    reference_routings,
    replaced,
    scan_opt,
    value_fields,
)


def _direct_optimum(instance, mode):
    """Independent reference: plain subset enumeration, no decomposition."""
    g = instance.graph
    reqs = instance.requests
    best = 0
    for k in range(len(reqs), 0, -1):
        for combo in itertools.combinations(reqs, k):
            if all(
                not (edge_set(g, a) & edge_set(g, b))
                for a, b in itertools.combinations(combo, 2)
            ):
                w = (
                    len(combo)
                    if mode == "count"
                    else sum(r.mask.bit_count() for r in combo)
                )
                best = max(best, w)
    return best


def test_count_and_length_optimum_on_path():
    g = PathGraph(5)
    inst = Instance(g, [Request(g, 0, 2), Request(g, 1, 3), Request(g, 2, 5)])
    assert brute_force_opt(inst, "count").optimum == 2
    res = brute_force_opt(inst, "length")
    assert res.optimum == 5
    assert sorted(r.key for r in res.witness.accepted) == [(0, 2), (2, 5)]


def test_single_request_is_its_own_optimum():
    g = PathGraph(6)
    inst = Instance(g, [Request(g, 1, 4)])
    assert brute_force_opt(inst, "count").optimum == 1
    assert brute_force_opt(inst, "length").optimum == 3


def test_empty_instance_optimum_zero():
    g = PathGraph(4)
    inst = Instance(g, [])
    res = brute_force_opt(inst, "count")
    assert res.optimum == 0 and not res.witness.accepted


def test_witness_is_smallest_bitmask_maximizer():
    # Two optimal pairings exist; the witness must use the requests that come
    # first in sorted order, not the ones a take-first-then-backtrack search
    # would stumble on.
    s = TreeGraph(STAR4_EDGES)
    inst = Instance(
        s,
        [Request(s, 1, 2), Request(s, 1, 3), Request(s, 2, 4), Request(s, 3, 4)],
    )
    res = brute_force_opt(inst, "count")
    assert res.optimum == 2
    assert sorted(r.key for r in res.witness.accepted) == [(1, 3), (2, 4)]


def test_witness_always_valid_and_optimal():
    rng = random.Random(7)
    for _ in range(50):
        g = PathGraph(rng.randint(2, 9))
        inst = random_instance(g, 7, rng)
        for mode in ("count", "length"):
            res = brute_force_opt(inst, mode)
            assert validate_solution(inst, res.witness)
            assert gain(res.witness, mode) == res.optimum


@given(st.data())
def test_matches_direct_enumeration(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    if data.draw(st.booleans()):
        graph = PathGraph(rng.randint(2, 8))
    else:
        graph = random_tree(rng.randint(3, 8), rng)
    inst = random_instance(graph, 7, rng)
    mode = data.draw(st.sampled_from(["count", "length"]))
    assert brute_force_opt(inst, mode).optimum == _direct_optimum(inst, mode)


@given(st.data())
def test_optimum_monotone_under_request_addition(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = PathGraph(rng.randint(2, 8))
    pairs = all_pairs(g)
    rng.shuffle(pairs)
    cut = rng.randint(0, min(6, len(pairs) - 1))
    small = Instance(g, pairs[:cut])
    large = Instance(g, pairs[: cut + 1])
    mode = data.draw(st.sampled_from(["count", "length"]))
    assert (
        brute_force_opt(small, mode).optimum <= brute_force_opt(large, mode).optimum
    )


def test_cap_governs_instance_size():
    g = PathGraph(23)
    units = [Request(g, i, i + 1) for i in range(23)]
    inst = Instance(g, units)
    with pytest.raises(InstanceTooLargeError):
        brute_force_opt(inst, "count")


def test_oracle_guards_name_the_unsupported_input():
    p, gg = PathGraph(4), GridGraph()
    path_inst = Instance(p, [Request(p, 0, 2)])
    grid_inst = Instance(gg, [Request(gg, (0, 0), (1, 2))])
    faults = [
        (lambda: brute_force_opt(path_inst, "weight"), "unknown gain mode 'weight'"),
        (lambda: brute_force_opt(grid_inst, "length"), "grid oracle supports count gain only"),
        (lambda: greediest_opt(grid_inst, right_end_order(p)),
         "greediest_opt is only defined on cycle-free hosts"),
    ]
    for call, message in faults:
        with pytest.raises(InvalidParameterError) as exc:
            call()
        assert str(exc.value) == message


def test_dense_component_up_to_the_cap_is_solved():
    # 21 requests that all share edge 0-1 form one conflict component
    g = PathGraph(21)
    inst = Instance(g, [Request(g, 0, i) for i in range(1, 22)])
    res = brute_force_opt(inst, "count")
    assert res.optimum == 1
    assert [r.key for r in res.witness.accepted] == [(0, 1)]


def test_long_request_over_its_units():
    # one 22-request component: [0, 21] over 21 units, whose 2^21 unit
    # subsets are all conflict-free
    g = PathGraph(21)
    units = [Request(g, i, i + 1) for i in range(21)]
    inst = Instance(g, [Request(g, 0, 21)] + units)
    res = brute_force_opt(inst, "count")
    assert res.optimum == 21 and res.witness.accepted == tuple(units)
    res = brute_force_opt(inst, "length")
    assert res.optimum == 21
    assert [r.key for r in res.witness.accepted] == [(0, 21)]


def _fixed_battery_orders(graph):
    problems = ("dpa-path", "lwdpa") if graph.kind == "path" else ("cat",)
    orders = {}
    for problem in problems:
        for alg in battery(problem):
            if alg.readapt is None:
                order = alg.initial_order(graph, None)
                orders.setdefault(order.name, order)
    return list(orders.values())


def test_witnesses_match_the_reference_scans():
    """Both rules against the plain increasing-mask scan and the prefix
    walk, on paths and trees, in both modes, under every fixed order of
    the battery (reversed and sha orders included)."""
    rng = random.Random(2026)
    compared = 0
    for _ in range(300):
        if rng.random() < 0.5:
            graph = PathGraph(rng.randint(2, 9))
        else:
            graph = random_tree(rng.randint(3, 10), rng)
        inst = random_instance(graph, 14, rng)
        orders = _fixed_battery_orders(graph)
        for mode in ("count", "length"):
            res = brute_force_opt(inst, mode)
            best, optima = scan_opt(inst.requests, mode)
            smallest = [r for i, r in enumerate(inst.requests) if optima[0] >> i & 1]
            assert (res.optimum, list(res.witness.accepted)) == (best, smallest)
            for order in orders:
                sol = greediest_opt(inst, order, mode)
                assert list(sol.accepted) == prefix_walk_greediest(inst.requests, order, optima)
            compared += 1 + len(orders)
    assert compared > 8000


def test_conflict_components_solved_independently():
    g = PathGraph(20)
    left = [Request(g, 0, 2), Request(g, 1, 3), Request(g, 2, 4)]
    right = [Request(g, 10, 13), Request(g, 12, 15), Request(g, 14, 16)]
    inst = Instance(g, left + right)
    assert brute_force_opt(inst, "count").optimum == _direct_optimum(inst, "count")
    assert brute_force_opt(inst, "length").optimum == _direct_optimum(
        inst, "length"
    )


def test_components_group_requests_that_meet_through_any_chain():
    # disjoint masks stay apart, a chain joins, and a bridge merges two groups
    assert _components(_conflicts([0b11, 0b1100, 0b110000])) == [0b1, 0b10, 0b100]
    assert _components(_conflicts([0b11, 0b110, 0b1100])) == [0b111]
    assert _components(_conflicts([0b1, 0b1000, 0b100000, 0b1001])) == [0b1011, 0b100]
    assert _components(_conflicts([])) == []


def test_conflict_table_holds_each_request_and_those_it_meets():
    assert _conflicts([0b11, 0b110, 0b1000, 0b1001]) == [0b1011, 0b11, 0b1100, 0b1101]
    rng = random.Random(19)
    for g in (PathGraph(9), random_tree(10, rng), random_tree(12, rng)):
        reqs = random_instance(g, 12, rng).requests
        meets = _conflicts([r.mask for r in reqs])
        for i, a in enumerate(reqs):
            for j, b in enumerate(reqs):
                assert meets[i] >> j & 1 == (i == j or bool(edge_set(g, a) & edge_set(g, b)))


def test_walk_decides_only_requests_that_still_fit(monkeypatch):
    """A deterministic work count: ``_walk`` recurses through the module
    name, so wrapping ``oracle._walk`` counts every node of the searches.
    A walk that decides every request, fitting or not, and sums its bound
    afresh at each node makes 231, 40 and 3,068 nodes here."""
    calls = []
    walk = oracle._walk

    def counted(*args):
        calls.append(1)
        return walk(*args)

    def nodes(search):
        calls.clear()
        search()
        return len(calls)

    monkeypatch.setattr(oracle, "_walk", counted)
    g = PathGraph(22)
    fan = Instance(g, [Request(g, 0, i) for i in range(1, 22)])
    assert nodes(lambda: brute_force_opt(fan, "length")) <= 21
    assert nodes(lambda: greediest_opt(fan, right_end_order(g))) <= 21
    steps = Instance(g, [Request(g, i, i + 2) for i in range(20)])
    for mode in ("count", "length"):
        assert nodes(lambda: brute_force_opt(steps, mode)) <= 2046


def test_searches_and_route_fill_leave_no_cyclic_garbage(monkeypatch):
    """The exact searches, the greedy runs, the grid route fill and the 3x3
    verify free everything they build by reference counting alone: with
    the collector off, a collection afterwards finds nothing.  The grid's
    shared route table starts empty here, so all 72 fills run with the
    collector off."""
    routes = {}
    monkeypatch.setattr(graphs, "_GRID_ROUTES", routes)
    rng = random.Random(18)
    paths = [random_instance(PathGraph(l), 6, rng) for l in (3, 5, 8)]
    trees = [random_instance(random_tree(n, rng), 6, rng) for n in (4, 6, 9)]
    gc.collect()
    gc.disable()
    try:
        for inst in paths + trees:
            for mode in ("count", "length"):
                brute_force_opt(inst, mode)
        for inst in paths:
            greediest_opt(inst, right_end_order(inst.graph))
            greediest_opt(inst, lwdpa_order(inst.graph), "length")
            greedy_paths(inst)
            greedy_lwdpa(inst)
        for inst in trees:
            greediest_opt(inst, cat_order(inst.graph))
            greedy_cat(inst)
        vertices = GridGraph().vertices()
        for x in vertices:
            for y in vertices:
                if x != y:
                    GridGraph().routes(x, y)
        assert len(routes) == 72
        exhaustive_verify_3x3()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_value_types_compare_and_hash_by_fields_and_are_not_frozen():
    """``Solution``, ``OracleResult``, ``GridCase`` and ``BlockRecord`` are
    plain ``__slots__`` value types: equal and hash equal by fields, their
    fields can be assigned, and no other attribute can be added."""
    g = PathGraph(4)
    a, b = Request(g, 0, 2), Request(g, 2, 4)
    sol, twin = Solution(g, (a, b)), Solution(PathGraph(4), (a, b))
    assert sol == twin and hash(sol) == hash(twin) == hash((g, (a, b), None))
    assert sol != Solution(g, (a,)) and len(sol) == 2
    res, res_twin = OracleResult(2, sol), OracleResult(2, twin)
    assert res == res_twin and hash(res) == hash(res_twin) == hash((2, sol))
    assert res != OracleResult(1, sol)
    assert brute_force_opt(Instance(g, [a, b])) == res
    case = exhaustive_verify_3x3().cases[0]
    fields = tuple(getattr(case, name) for name in value_fields(case))
    case_twin = GridCase(*fields)
    assert case == case_twin and hash(case) == hash(case_twin) == hash(fields)
    assert case != replaced(case, ok=not case.ok)
    (rec,) = run_guess(greedy_lwdpa_algorithm(), "1").records
    rec_fields = tuple(getattr(rec, name) for name in value_fields(rec))
    rec_twin = BlockRecord(*rec_fields)
    assert rec == rec_twin and hash(rec) == hash(rec_twin) == hash(rec_fields)
    assert rec != replaced(rec, alg_gain=2)
    for obj, field, value in ((sol, "accepted", (a,)), (res, "optimum", 1), (case, "opt", 0),
                              (rec, "alg_gain", 2)):
        setattr(obj, field, value)
        assert getattr(obj, field) == value
        with pytest.raises(AttributeError):
            obj.extra = 0
        assert not hasattr(obj, "__dict__")
    assert sol == Solution(g, (a,)) and res == OracleResult(1, sol)
    assert case == replaced(case_twin, opt=0) != case_twin
    assert rec == replaced(rec_twin, alg_gain=2) != rec_twin
    # grid allocations are a dict, so a grid witness does not hash
    with pytest.raises(TypeError):
        hash(Solution(GridGraph(), (), {}))


# the value types that are unhashable, and those that refuse assignment
UNHASHABLE = {"Decision", "RunResult", "AdversaryOutcome", "Grid3x3Report"}
FROZEN = {"PabParams", "RatioReport"}


def test_every_value_type_compares_hashes_and_prints_by_its_fields():
    """The ten value types share ``graphs.Value``.  A copy through the
    constructor is equal, and a change to any one field makes it unequal;
    an object of another class compares as NotImplemented.  A hashable type
    hashes as the tuple of its fields, and four types do not hash.  Two
    types refuse assignment and deletion, no type takes another attribute,
    copies and pickles are equal, and each prints as
    ``Name(field=value, ...)``."""
    g = PathGraph(4)
    a, b = Request(g, 0, 2), Request(g, 2, 4)
    inst = Instance(g, [a, b])
    guess, grid = run_guess(greedy_lwdpa_algorithm(), "1"), exhaustive_verify_3x3()
    params = PabParams(3, 3)
    params.universe  # the memo is no field: copies without it stay equal
    samples = (Solution(g, (a, b)), Decision(a, True), run(greedy_lwdpa_algorithm(), inst),
               guess, grid, grid.cases[0], params, brute_force_opt(inst), guess.records[0],
               RatioReport("path:4", "greedy", "ab12", 1, 2, advice_bits=3, ms=4))
    assert sorted(type(v).__name__ for v in samples) == sorted(
        UNHASHABLE | FROZEN | {"Solution", "GridCase", "OracleResult", "BlockRecord"})
    for v in samples:
        names = value_fields(v)
        values = tuple(getattr(v, name) for name in names)
        twin = replaced(v)
        assert twin == v and not twin != v
        assert copy.copy(v) == pickle.loads(pickle.dumps(v)) == v
        for name, value in zip(names, values):
            other = value + 1 if type(value) is int else object()
            assert replaced(v, **{name: other}) != v, name
        assert v.__eq__(values) is NotImplemented and v != values
        assert all(w != v for w in samples if w is not v)
        if type(v).__name__ in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(v)
        else:
            assert hash(v) == hash(twin) == hash(values)
        if type(v).__name__ in FROZEN:
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(v, name, getattr(v, name))
                with pytest.raises(AttributeError):
                    delattr(v, name)
        with pytest.raises(AttributeError):
            v.extra = 0
        assert not hasattr(v, "__dict__")
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(v) == f"{type(v).__name__}({fields})"
    assert repr(samples[1]) == "Decision(request=Request(0, 2), accept=True, allocation=None)"
    assert repr(params) == "PabParams(a=3, b=3)" and params.universe is params.universe


def test_greediest_keeps_the_highest_priority_optimum():
    g = PathGraph(3)
    inst = Instance(
        g,
        [Request(g, 0, 3), Request(g, 0, 1), Request(g, 1, 2), Request(g, 2, 3)],
    )
    sol = greediest_opt(inst, lwdpa_order(g), "length")
    assert sorted(r.key for r in sol.accepted) == [(0, 3)]


def test_greediest_returns_unique_optimum_whatever_the_order():
    g = PathGraph(6)
    inst = Instance(g, [Request(g, 0, 3), Request(g, 3, 5)])
    expected = [(0, 3), (3, 5)]
    for order in (right_end_order(g), lwdpa_order(g), lwdpa_order(g).reversed()):
        sol = greediest_opt(inst, order, "count")
        assert sorted(r.key for r in sol.accepted) == expected


def test_greediest_of_empty_instance_is_empty():
    g = PathGraph(4)
    sol = greediest_opt(Instance(g, []), right_end_order(g), "count")
    assert not sol.accepted


def test_greediest_matches_optimum_exhaustively(path_sweep):
    """Every path instance with l <= 6 and at most 5 requests."""
    orders = {l: right_end_order(PathGraph(l)) for l in range(1, 7)}
    for l, inst, opt, _ in path_sweep:
        sol = greediest_opt(inst, orders[l], "count")
        assert validate_solution(inst, sol)
        assert gain(sol, "count") == opt


def _pairwise_disjoint(graph, requests):
    masks = [edge_set(graph, r) for r in requests]
    return all(
        not (masks[i] & masks[j])
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
    )


def test_excluded_request_cannot_swap_into_the_greediest_optimum():
    """If p was passed over while a lower-priority p' made the cut, swapping
    p for p' must break disjointness."""
    rng = random.Random(11)
    checked = 0
    for _ in range(120):
        if rng.random() < 0.5:
            graph = PathGraph(rng.randint(3, 7))
            order = right_end_order(graph)
        else:
            graph = random_tree(rng.randint(4, 8), rng)
            order = cat_order(graph)
        inst = random_instance(graph, 6, rng)
        if not inst.requests:
            continue
        chosen = set(greediest_opt(inst, order, "count").accepted)
        seq = list(order.sort(inst.requests))
        for i, p in enumerate(seq):
            if p in chosen:
                continue
            for q in seq[i + 1:]:
                if q in chosen:
                    swapped = (chosen - {q}) | {p}
                    assert not _pairwise_disjoint(graph, swapped)
                    checked += 1
    assert checked > 50


def test_grid_allocation_search():
    from priodpa import GridGraph

    gg = GridGraph()
    reqs = [
        Request(gg, (0, 0), (1, 2)),
        Request(gg, (0, 1), (0, 2)),
        Request(gg, (1, 1), (2, 0)),
    ]
    res = max_allocatable(gg, reqs)
    assert res.optimum == 3 and len(res.witness.accepted) == 3
    used = [e for path in res.witness.allocations.values() for e in path]
    assert len(used) == len({frozenset(e) for e in used})

    thirteen = [Request(gg, (0, 0), (r, c)) for r in range(3) for c in range(3) if (r, c) != (0, 0)] + [Request(gg, (0, 1), (1, c)) for c in range(3)] + [Request(gg, (0, 1), (2, 0)), Request(gg, (0, 1), (2, 1))]
    assert len(thirteen) == 13
    with pytest.raises(InstanceTooLargeError, match="capped at 12 requests"):
        max_allocatable(gg, thirteen)
    with pytest.raises(InstanceTooLargeError, match="capped at 12 requests"):
        _routable_size(_mask_lists(gg, thirteen))
    assert _routable_size(_mask_lists(gg, thirteen[:12])) >= 1


def _mask_lists(graph, requests):
    """Each request's route masks, the lists ``_routable_size`` reads."""
    return [list(graph.routes(r.x, r.y).values()) for r in requests]


def test_grid_oracle_matches_the_subset_and_product_reference():
    from priodpa import GridGraph

    gg = GridGraph()
    vs = gg.vertices()
    every_edge = (1 << len(gg.edge_list())) - 1
    rng = random.Random(13)
    cases = [((), 0), ((), every_edge)]
    for k in range(2000):
        reqs = tuple(Request(gg, *rng.sample(vs, 2)) for _ in range(rng.randint(0, 8)))
        if k % 100 == 0:
            blocked = every_edge
        elif k % 2:
            blocked = 0
        else:
            blocked = sum(1 << e for e in rng.sample(range(12), rng.randint(1, 6)))
        cases.append((reqs, blocked))
    # 9 to 12 requests, up to the cap, with nothing blocked
    cases += [(tuple(Request(gg, *rng.sample(vs, 2)) for _ in range(n)), 0) for n in range(9, 13) for _ in range(3)]
    routed = set()
    for reqs, blocked in cases:
        ref_count, ref_accepted, ref_alloc = reference_max_allocatable(gg, reqs, blocked)
        if not blocked:
            res = max_allocatable(gg, reqs)
            assert (res.optimum, res.witness.accepted) == (ref_count, ref_accepted), reqs
            assert list(res.witness.allocations.items()) == list(ref_alloc.items()), reqs
        assert _routable_size(_mask_lists(gg, reqs), blocked) == ref_count, (reqs, blocked)
        if blocked == every_edge:
            assert ref_count == 0
        routed.add(ref_count)
    assert routed >= set(range(7))


def test_full_routings_match_the_product_of_simple_paths():
    gg = GridGraph()
    vs = gg.vertices()
    rng = random.Random(34)
    assert _routings([]) == {0}  # no request: one routing, of no edge
    kinds = set()
    for k in range(600):
        reqs = [Request(gg, *rng.sample(vs, 2)) for _ in range(1 + k % 5)]
        found = _routings(_mask_lists(gg, reqs))
        assert found == reference_routings(gg, reqs), reqs
        # a set routes in full exactly when its optimum is all of it
        assert bool(found) == (reference_max_allocatable(gg, reqs)[0] == len(reqs)), reqs
        kinds.add((len(reqs), min(len(found), 2)))
    # at every length from 3 to 5: no, one and several full routings
    assert kinds >= {(n, f) for n in range(3, 6) for f in range(3)}
