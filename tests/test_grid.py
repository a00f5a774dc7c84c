import math
import random
from fractions import Fraction

import pytest

from priodpa import (
    Decision,
    GridGraph,
    IllegalAcceptanceError,
    Instance,
    PriorityAlgorithm,
    PriorityOrder,
    PropertyViolation,
    Request,
    Session,
    gain,
    max_allocatable,
    run,
    validate_solution,
)
from priodpa import graphs, grid, oracle
from priodpa.grid import (
    CENTER,
    CORNERS,
    MIDPOINTS,
    GridRouter,
    antipode,
    distance3_pairs,
    exhaustive_verify_3x3,
    grid_adversary,
    grid_automorphisms,
    grid_battery,
    grid_order,
    _served_case,
)

from helpers import reference_max_allocatable, reference_served_case, simple_paths, walk_ok


def test_grid_shape():
    g = GridGraph()
    assert len(g.vertices()) == 9
    assert sum(len(g.neighbors(v)) for v in g.vertices()) // 2 == 12
    assert set(CORNERS) | set(MIDPOINTS) | {CENTER} == set(g.vertices())


def test_distance3_pairs_join_corners_to_far_midpoints():
    g = GridGraph()
    pairs = distance3_pairs(g)
    assert len(pairs) == 8
    for r in pairs:
        corner = r.x if r.x in CORNERS else r.y
        mid = r.y if corner == r.x else r.x
        assert corner in CORNERS and mid in MIDPOINTS
        # the midpoint flanks the opposite corner
        far = antipode(corner)
        assert mid in ((far[0], CENTER[1]), (CENTER[0], far[1]))


def test_automorphisms_act_transitively_on_the_pairs():
    g = GridGraph()
    pairs = set(distance3_pairs(g))
    base = next(iter(pairs))
    autos = grid_automorphisms()
    assert len(autos) == 8
    orbit = {Request(g, phi(base.x), phi(base.y)) for phi in autos}
    assert orbit == pairs


def test_exhaustive_case_analysis_passes():
    rep = exhaustive_verify_3x3()
    assert rep.passed
    assert rep.pair_count == 8
    assert (rep.corner_cases, rep.center_cases) == (16, 64)
    assert len(rep.cases) == 80


def test_the_case_analysis_computes_each_optimum_once(monkeypatch):
    calls, nodes, tables, folds = [0], [0], [0], [0]
    real_routable_size, real_most = grid._routable_size, oracle._most
    real_routes, real_routings = GridGraph.routes, grid._routings

    def counted_routable_size(*args):
        calls[0] += 1
        return real_routable_size(*args)

    def counted_routings(*args):
        folds[0] += 1
        return real_routings(*args)

    def counted_most(*args):
        nodes[0] += 1
        return real_most(*args)

    def counted_routes(self, x, y):
        tables[0] += 1
        return real_routes(self, x, y)

    # the verify asks the search only for sizes, never max_allocatable
    monkeypatch.setattr(grid, "max_allocatable", None)
    monkeypatch.setattr(grid, "_routable_size", counted_routable_size)
    monkeypatch.setattr(oracle, "_most", counted_most)
    monkeypatch.setattr(GridGraph, "routes", counted_routes)
    monkeypatch.setattr(grid, "_routings", counted_routings)
    assert exhaustive_verify_3x3().passed
    # one search per routing (80), for the algorithm's continuation; every
    # follow-up set routes in full, so its optimum (12) and the optimum
    # with each served request (40) are read from its full routings
    assert calls[0] == 80
    # the continuation searches alone: the 40 served-optimum searches,
    # 24 of them run to exhaustion, are gone
    assert nodes[0] == 376
    # one fold per distinct follow-up set
    assert folds[0] == 12
    # one route table per served pair (8) and one per follow-up of each
    # distinct follow-up set (32): the searches read mask lists only
    assert tables[0] == 40


def test_every_grid_reads_one_route_table_filled_once_per_pair(monkeypatch):
    table = {}
    monkeypatch.setattr(graphs, "_GRID_ROUTES", table)
    exhaustive_verify_3x3()
    # the 8 served pairs from their corners and the 4 distinct follow-up pairs
    assert len(table) == 12
    filled = dict(table)
    exhaustive_verify_3x3()
    for alg in grid_battery():
        grid_adversary(alg)
    assert table.keys() == filled.keys()
    assert all(table[pair] is routes for pair, routes in filled.items())
    vs = GridGraph().vertices()
    for x in vs:
        for y in vs:
            if x != y:
                assert GridGraph().routes(x, y) is GridGraph().routes(x, y)
    assert len(table) == 72
    # a pair with no route is answered, as an empty table, but never stored
    for x, y in (((0, 0), (0, 0)), ((0, 0), (3, 3)), ((0, 0), "a")):
        assert len(GridGraph().routes(x, y)) == 0
    with pytest.raises(KeyError) as error:
        GridGraph().routes((3, 3), (0, 0))
    assert error.value.args == ((3, 3),)
    assert len(table) == 72


def test_each_case_optimum_matches_the_witness_search():
    # the verify reads its optima from full routings, which max_allocatable's
    # size search does not use, and its continuations from that search,
    # which the subset reference does not use
    g = GridGraph()
    for c in exhaustive_verify_3x3().cases:
        route = tuple(zip(c.path, c.path[1:]))
        mask = g.routes(c.path[0], c.path[-1])[route]
        _, case, ends = _served_case(c.request, route)
        followups = tuple(Request(g, x, y) for x, y in ends)
        assert case == c.case
        assert c.alg_total == 1 + reference_max_allocatable(g, followups, mask)[0]
        assert c.followup_only == max_allocatable(g, followups).optimum
        assert c.opt == max_allocatable(g, (c.request, *followups)).optimum
        assert c.ratio == Fraction(c.opt, c.alg_total)


def test_follow_ups_that_cannot_route_in_full_raise(monkeypatch):
    # each center case answered by three follow-ups out of its corner u,
    # which has two edges, so none of those sets routes in full
    ends = {(u, t): ((u, CENTER), (u, antipode(u)), (u, t)) for u, t in grid._CENTER_ENDS}
    monkeypatch.setattr(grid, "_CENTER_ENDS", ends)
    with pytest.raises(PropertyViolation, match="a follow-up set must route in full"):
        exhaustive_verify_3x3()


def test_the_served_optimum_rule_matches_the_subset_reference():
    # the optimum with a served request, read from the full routings of
    # follow-ups that route in full
    g = GridGraph()
    vs = g.vertices()
    rng = random.Random(34)
    seen = set()
    for k in range(500):
        served = Request(g, *rng.sample(vs, 2))
        followups = [Request(g, *rng.sample(vs, 2)) for _ in range(k % 6)]
        lists = [list(g.routes(q.x, q.y).values()) for q in followups]
        full = oracle._routings(lists)
        fol = reference_max_allocatable(g, followups)[0]
        assert bool(full) == (fol == len(followups))
        if not full:
            continue
        own = list(g.routes(served.x, served.y).values())
        opt = grid._served_opt(own, full, fol)
        assert opt == reference_max_allocatable(g, (served, *followups))[0], (served, followups)
        seen.add((len(followups), opt - fol))
    assert {d for _, d in seen} == {0, 1} and {n for n, _ in seen} == set(range(6))


def test_every_routing_is_a_corner_or_center_case():
    rep = exhaustive_verify_3x3()
    assert {c.case for c in rep.cases} == {"corner", "center"}


def test_corner_case_certificates():
    corner = [c for c in exhaustive_verify_3x3().cases if c.case == "corner"]
    assert {c.alg_total for c in corner} == {1}
    assert {c.followup_only for c in corner} == {2}
    assert {c.opt for c in corner} == {3}
    assert {c.ratio for c in corner} == {Fraction(3)}


def test_center_case_certificates():
    center = [c for c in exhaustive_verify_3x3().cases if c.case == "center"]
    assert {c.alg_total for c in center} == {1, 2}
    assert {c.followup_only for c in center} == {3}
    assert {c.opt for c in center} == {3}
    assert {c.ratio for c in center} == {Fraction(3, 2), Fraction(3)}
    assert min(c.ratio for c in center) == Fraction(3, 2)


def test_adversary_against_the_router_battery():
    routers = {a.name: a for a in grid_battery()}
    assert sorted(routers) == [
        "grid-avoid-center",
        "grid-first",
        "grid-reject-first",
        "grid-via-center",
    ]

    out = grid_adversary(routers["grid-first"])
    assert out.case == "corner" and out.ratio >= 2

    out = grid_adversary(routers["grid-via-center"])
    assert out.case == "center"
    assert out.ratio >= Fraction(3, 2)
    assert len(out.instance.requests) == 4  # served request plus three follow-ups

    out = grid_adversary(routers["grid-reject-first"])
    assert out.case == "rejected-first"
    assert out.ratio == math.inf
    assert (out.alg_gain, out.opt_gain) == (0, 1)
    assert len(out.instance.requests) == 1


def test_adversary_witnesses_are_routable():
    for alg in grid_battery():
        out = grid_adversary(alg)
        assert validate_solution(out.instance, out.opt_witness)
        assert out.ratio == math.inf or out.ratio >= Fraction(3, 2)


def test_a_rejected_first_pick_is_witnessed_along_the_first_route_in_its_table():
    alg = next(a for a in grid_battery() if a.name == "grid-reject-first")
    out = grid_adversary(alg)
    g = out.instance.graph
    (r,) = out.instance.requests
    first = next(iter(g.routes(r.x, r.y)))
    assert first == simple_paths(g, r.x, r.y)[0]
    assert out.opt_witness.accepted == (r,)
    assert out.opt_witness.allocations == {r: first}


def test_length_gain_on_the_grid_sums_the_route_lengths():
    g = GridGraph()
    inst = Instance(g, distance3_pairs(g))
    lengths = set()
    for alg in grid_battery():
        for sol in (grid_adversary(alg).opt_witness, run(alg, inst).solution):
            routes = [sol.allocations[r] for r in sol.accepted]
            assert gain(sol, "length") == sum(len(p) for p in routes)
            lengths.update(len(p) for p in routes)
    assert lengths == {3, 5, 7}


def _reverse(route):
    return tuple((v, u) for u, v in reversed(route))


def test_a_served_route_walked_from_the_midpoint_reads_as_from_the_corner():
    g = GridGraph()
    played = 0
    for r in distance3_pairs(g):
        corner, mid = (r.x, r.y) if r.x in CORNERS else (r.y, r.x)
        back_table = g.routes(mid, corner)
        for route in g.routes(corner, mid):
            back = _reverse(route)
            assert back in back_table and back[0][0] == mid
            assert _served_case(r, back) == _served_case(r, route)
            played += 1
    assert played == 80


def test_served_cases_match_the_neighbour_scan_reference():
    # the follow-up tables read by _served_case against a case analysis
    # that scans its own adjacency, on every route walked both ways
    g = GridGraph()
    walks = 0
    for r in distance3_pairs(g):
        for route in simple_paths(g, r.x, r.y):
            for walk in (route, _reverse(route)):
                assert _served_case(r, walk) == reference_served_case(r, walk)
                walks += 1
    assert walks == 160
    assert (len(grid._CENTER_ENDS), len(grid._CORNER_ENDS)) == (8, 4)


# (midpoint, corner): its x < y order puts the midpoint first
_MIDPOINT_FIRST = ((0, 1), (2, 0))


class _MidpointFirst(GridRouter):
    """A GridRouter whose order ranks ``_MIDPOINT_FIRST`` first, so the
    route it serves runs from the midpoint."""

    def initial_order(self, graph, advice):
        return PriorityOrder(lambda r: (r.key != _MIDPOINT_FIRST, r.key), name="midpoint-first")


def _reference_route(graph, request, used, prefer):
    """GridRouter's choice, from the reference enumeration: the first
    simple route of ``request`` that avoids the edges ``used`` (as
    frozensets), steered by ``prefer`` where it can be; None if none fits."""
    feasible = [p for p in simple_paths(graph, request.x, request.y)
                if not used & {frozenset(e) for e in p}]
    if prefer:
        via = prefer == "via-center"
        feasible = [p for p in feasible if any(CENTER in e for e in p) == via] or feasible
    return feasible[0] if feasible else None


@pytest.mark.parametrize("prefer, case, expected", [
    (None, "center", Fraction(3, 2)),
    ("via-center", "center", Fraction(3, 2)),
    ("avoid-center", "corner", Fraction(3)),
])
def test_a_game_served_from_the_midpoint_plays_the_reversal(prefer, case, expected):
    g = GridGraph()
    served = Request(g, *_MIDPOINT_FIRST)
    route = _reference_route(g, served, set(), prefer)
    assert served.x in MIDPOINTS and route[0][0] == served.x
    assert case == ("center" if any(CENTER in e for e in route) else "corner")
    out = grid_adversary(_MidpointFirst(prefer, "midpoint-first"))
    assert out.case == case
    # the router's follow-ups, first-fit in key order, and the optimum
    used, alg = {frozenset(e) for e in route}, 1
    for q in sorted(out.instance.requests, key=lambda q: q.key):
        p = None if q == served else _reference_route(g, q, used, prefer)
        if p:
            used |= {frozenset(e) for e in p}
            alg += 1
    opt = reference_max_allocatable(g, out.instance.requests)[0]
    assert (out.alg_gain, out.opt_gain) == (alg, opt)
    assert out.ratio == Fraction(opt, alg) == expected
    assert validate_solution(out.instance, out.opt_witness)


def test_route_masks_match_edge_sets_on_every_simple_routing():
    g = GridGraph()
    vs = g.vertices()
    routes = [(Request(g, a, b), p) for i, a in enumerate(vs) for b in vs[i + 1:]
              for p in simple_paths(g, a, b)]
    edges = [{frozenset(e) for e in p} for _, p in routes]
    masks = [g.route_mask(r, p) for r, p in routes]
    for (r, p), m in zip(routes, masks):
        assert m.bit_count() == len(p)  # one bit per edge
        assert g.route_mask(r, _reverse(p)) == m
    for i in range(len(routes)):
        for j in range(i + 1, len(routes)):
            assert bool(masks[i] & masks[j]) == bool(edges[i] & edges[j])


def test_route_table_matches_the_reference_enumeration():
    g = GridGraph()
    bit = {frozenset(e): 1 << i for i, e in enumerate(g.edge_list())}
    pairs = [(x, y) for x in g.vertices() for y in g.vertices() if x != y]
    assert len(pairs) == 72
    for x, y in pairs:
        table = g.routes(x, y)
        assert list(table) == simple_paths(g, x, y)  # same routes, same order
        back = g.routes(y, x)
        assert len(back) == len(table)
        for p, m in table.items():
            assert m == sum(bit[frozenset(e)] for e in p)
            assert back[_reverse(p)] == m


def test_route_mask_accepts_exactly_the_walks_the_reference_accepts():
    g = GridGraph()
    rng = random.Random(8)
    vs = g.vertices()
    requests = [Request(g, a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
    accepted = rejected = 0
    for _ in range(400):
        r = rng.choice(requests)
        route = rng.choice(simple_paths(g, r.x, r.y))
        other = rng.choice([v for v in vs if v not in (r.x, r.y)])
        walk = [rng.choice((r.x, r.y))]
        while len(walk) < 2 or rng.random() < 0.8:  # revisits and stops anywhere
            walk.append(rng.choice(g.neighbors(walk[-1])))
        gap = rng.randrange(len(route))
        for candidate in (
            route,
            _reverse(route),
            tuple(zip(walk, walk[1:])),
            route[:gap] + route[gap + 1:],
            rng.choice(simple_paths(g, r.x, other)),
            (),
            None,
        ):
            ok = walk_ok(g, r, candidate)
            assert (g.route_mask(r, candidate) != 0) == ok, (r, candidate)
            accepted += ok
            rejected += not ok
    assert accepted > 800 and rejected > 1600


class _FixedRoute(PriorityAlgorithm):
    """Accepts every request along the same ``route``."""

    name = "fixed-route"

    def __init__(self, route):
        self.route = route

    def initial_order(self, graph, advice):
        return grid_order(graph)

    def decide(self, request, state):
        return Decision(request, True, self.route)


# a (0,0)-(2,2) walk over distinct edges that passes the center twice
_REVISIT = ((0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (1, 2), (1, 1), (2, 1), (2, 2))


def test_grid_accept_without_an_allocation_is_illegal():
    g = GridGraph()
    session = Session(_FixedRoute(None), g)
    with pytest.raises(IllegalAcceptanceError, match="without allocation"):
        session.feed(Request(g, (0, 0), (0, 1)))


@pytest.mark.parametrize("route", [
    (),
    (((0, 0), (1, 0)),),
    tuple(zip(_REVISIT, _REVISIT[1:])),
    [((0, 0), (0, 1)), ((0, 1), (0, 2)), ((0, 2), (1, 2)), ((1, 2), (2, 2))],
], ids=["empty", "one-edge", "revisits-the-center", "a-list-not-a-tuple"])
def test_grid_acceptance_must_route_its_request(route):
    g = GridGraph()
    session = Session(_FixedRoute(route), g)
    with pytest.raises(IllegalAcceptanceError, match="route"):
        session.feed(Request(g, (0, 0), (2, 2)))
    # the adversary meets the cheat at its first acceptance
    with pytest.raises(IllegalAcceptanceError):
        grid_adversary(_FixedRoute(route))


def test_grid_allocation_that_reuses_an_edge_is_illegal():
    g = GridGraph()
    r = Request(g, (0, 0), (0, 1))
    session = Session(_FixedRoute((((0, 1), (0, 0)),)), g)
    assert session.feed(r).accept
    with pytest.raises(IllegalAcceptanceError, match="reuses an edge"):
        session.feed(r)


class _TableWriter(PriorityAlgorithm):
    """Writes a one-edge route into the route table of its request, then
    accepts along it."""

    name = "table-writer"
    ROUTE = (((0, 0), (2, 2)),)

    def __init__(self):
        self.refused = False

    def initial_order(self, graph, advice):
        return grid_order(graph)

    def decide(self, request, state):
        try:
            state.graph.routes(request.x, request.y)[self.ROUTE] = 1
        except TypeError:
            self.refused = True
        return Decision(request, True, self.ROUTE)


def test_an_algorithm_cannot_write_its_own_route_into_the_table():
    g = GridGraph()
    cheat = _TableWriter()
    with pytest.raises(IllegalAcceptanceError, match="simple route"):
        run(cheat, Instance(g, (Request(g, (0, 0), (2, 2)),)))
    assert cheat.refused
    assert list(g.routes((0, 0), (2, 2))) == simple_paths(g, (0, 0), (2, 2))
