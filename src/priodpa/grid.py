"""The 3x3 grid: no priority algorithm beats ratio 3/2.

Here requests do not pin their own routing, so acceptance means choosing an
explicit path.  The adversary offers the eight corner-to-far-midpoint pairs
(graph distance 3), serves whichever request the algorithm ranks highest,
and answers the chosen routing p with follow-ups:

* if p avoids the center it passes an internal corner c two steps from its
  corner endpoint — both of c's edges lie on p, and the two follow-ups out
  of c die there (algorithm total 1, optimum at least 2);
* if p uses the center, the three follow-ups out of the midpoint t
  preceding the center and its neighbour corner t' are squeezed through a
  single free edge (algorithm total at most 2, optimum 3).

``exhaustive_verify_3x3`` replays this scheme over every pair and every
simple path and checks the whole case analysis against the routing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import GridGraph, Instance, Request, Solution, norm_edge
from .engine import Decision, PriorityAlgorithm, PriorityOrder, Session, adversary_outcome
from .oracle import grid_simple_paths, max_allocatable

CENTER = (1, 1)
CORNERS = ((0, 0), (0, 2), (2, 0), (2, 2))
MIDPOINTS = ((0, 1), (1, 0), (1, 2), (2, 1))


def antipode(v):
    return (2 - v[0], 2 - v[1])


def grid_3x3():
    return GridGraph(3, 3)


def distance3_pairs(graph):
    """The eight corner/midpoint pairs at graph distance 3."""
    out = []
    for v in CORNERS:
        for w in MIDPOINTS:
            if abs(v[0] - w[0]) + abs(v[1] - w[1]) == 3:
                out.append(Request(graph, v, w))
    return tuple(out)


def grid_automorphisms():
    """The dihedral symmetries of the square, as vertex maps."""

    def rot(v):
        return (v[1], 2 - v[0])

    def refl(v):
        return (v[0], 2 - v[1])

    maps = []
    f = lambda v: v
    for _ in range(4):
        g = f
        maps.append(g)
        maps.append(lambda v, g=g: refl(g(v)))
        f = lambda v, g=g: rot(g(v))
    return tuple(maps)


def _walk_vertices(allocation, start):
    vs = [allocation[0][0]] + [e[1] for e in allocation]
    if vs[0] != start:
        vs.reverse()
    assert vs[0] == start
    return vs


def _followups(graph, req, path_vertices):
    """Case tag and follow-up requests for a served routing of ``req``.

    ``path_vertices`` must be oriented to start at the corner endpoint.
    """
    v = path_vertices[0]
    if CENTER in path_vertices:
        i = path_vertices.index(CENTER)
        t = path_vertices[i - 1]
        u = path_vertices[i - 2]
        t_prime = next(c for c in CORNERS if c in graph.neighbors(t) and c != u)
        other_mid = next(m for m in MIDPOINTS if m in graph.neighbors(u) and m != t)
        return "center", (
            Request(graph, t, antipode(t_prime)),
            Request(graph, t, antipode(u)),
            Request(graph, t_prime, other_mid),
        )
    inner = [c for c in path_vertices[1:-1] if c in CORNERS]
    assert inner, "a center-free routing passes an internal corner"
    c = next(c for c in inner if abs(v[0] - c[0]) + abs(v[1] - c[1]) == 2)
    x, y = (m for m in MIDPOINTS if m in graph.neighbors(antipode(c)))
    return "corner", (Request(graph, c, x), Request(graph, c, y))


def grid_adversary(algorithm):
    """Play the 3x3 construction; ratio >= 2 (corner case) or >= 3/2
    (center case), infinity if the first request is rejected."""
    g = grid_3x3()
    pairs = distance3_pairs(g)
    session = Session(algorithm, g)
    r = session.max_of(pairs)
    first = session.feed(r)
    if not first.accept:
        alloc = {r: grid_simple_paths(g, r.x, r.y)[0]}
        return adversary_outcome(session, Instance(g, (r,)), "rejected-first",
                                 Solution(g, (r,), alloc))

    corner = r.x if r.x in CORNERS else r.y
    vs = _walk_vertices(first.allocation, corner)
    case, followups = _followups(g, r, vs)
    session.drain(followups)
    instance = Instance(g, (r,) + followups)
    _, accepted, alloc = max_allocatable(g, instance.requests)
    return adversary_outcome(session, instance, case, Solution(g, accepted, alloc))


# --------------------------------------------------------------------------
# exhaustive verification of the case analysis
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GridCase:
    request: object
    path: tuple  # vertex sequence from the corner endpoint
    case: str
    alg_total: int
    followup_only: int
    opt: int
    ratio: Fraction
    ok: bool


@dataclass
class Grid3x3Report:
    cases: tuple
    pair_count: int
    corner_cases: int
    center_cases: int
    passed: bool


def exhaustive_verify_3x3():
    """Check every pair and every simple routing against the oracle.

    Asserts the dichotomy (internal corner or center), the per-case
    algorithm caps (1 resp. 2), the follow-up-only optima (2 resp. 3),
    and ratio >= 2 resp. >= 3/2; cross-checks the pair count against the
    eight grid automorphisms.
    """
    g = grid_3x3()
    pairs = distance3_pairs(g)
    base = pairs[0]
    orbit = set()
    for phi in grid_automorphisms():
        orbit.add(Request(g, phi(base.x), phi(base.y)))
    cases = []
    for r in pairs:
        corner = r.x if r.x in CORNERS else r.y
        for path in grid_simple_paths(g, corner, r.x if corner == r.y else r.y):
            vs = _walk_vertices(path, corner)
            case, followups = _followups(g, r, vs)
            blocked = {norm_edge(u, w) for u, w in path}
            cont, _, _ = max_allocatable(g, followups, blocked)
            alg_total = 1 + cont
            fol, _, _ = max_allocatable(g, followups)
            opt, _, _ = max_allocatable(g, (r,) + followups)
            ratio = Fraction(opt, alg_total)
            if case == "corner":
                ok = alg_total == 1 and fol == 2 and opt >= 2 and ratio >= 2
            else:
                ok = alg_total <= 2 and fol == 3 and opt >= 3 and ratio >= Fraction(3, 2)
            cases.append(GridCase(r, tuple(vs), case, alg_total, fol, opt, ratio, ok))
    report = Grid3x3Report(
        cases=tuple(cases),
        pair_count=len(pairs),
        corner_cases=sum(1 for c in cases if c.case == "corner"),
        center_cases=sum(1 for c in cases if c.case == "center"),
        passed=bool(cases)
        and all(c.ok for c in cases)
        and len(pairs) == 8
        and orbit == set(pairs),
    )
    return report


# --------------------------------------------------------------------------
# simple routing algorithms to pit against the adversary
# --------------------------------------------------------------------------


def grid_order(graph):
    return PriorityOrder(lambda r: r.key, name="lex")


class GridRouter(PriorityAlgorithm):
    """First-fit router; ``prefer`` steers the choice through or around
    the center when possible."""

    mode = "count"

    def __init__(self, prefer=None, name="grid-first", reject_first=False):
        self.prefer = prefer
        self.name = name
        self.reject_first = reject_first

    def initial_order(self, graph, advice):
        return grid_order(graph)

    def decide(self, request, state, advice):
        if self.reject_first and not state.log:
            return Decision(request, False)
        feasible = [
            p
            for p in grid_simple_paths(state.graph, request.x, request.y)
            if state.allocation_fits(p)
        ]
        if not feasible:
            return Decision(request, False)
        if self.prefer == "via-center":
            routed = [p for p in feasible if CENTER in _walk_vertices(p, request.x)]
        elif self.prefer == "avoid-center":
            routed = [p for p in feasible if CENTER not in _walk_vertices(p, request.x)]
        else:
            routed = feasible
        return Decision(request, True, (routed or feasible)[0])


def grid_battery():
    return (
        GridRouter(name="grid-first"),
        GridRouter("via-center", "grid-via-center"),
        GridRouter("avoid-center", "grid-avoid-center"),
        GridRouter(name="grid-reject-first", reject_first=True),
    )
