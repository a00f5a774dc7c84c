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

``_served_case`` holds this analysis of an accepted first request (a
rejected one ends in ``engine.adversary_game``).  It finds the case on the
walk and reads the follow-up ends from two tables, ``_CENTER_ENDS`` and
``_CORNER_ENDS``, built at import by the neighbour rule above; they are
constants of the one fixed grid, like ``graphs._GRID_STEPS``, not memos.
``exhaustive_verify_3x3`` replays it over every pair and every simple path
and checks the whole case analysis against the routing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import GridGraph, PropertyViolation, Request, ratio
from .engine import Decision, PriorityAlgorithm, PriorityOrder, RejectFirst, adversary_game
from .oracle import _routable_size, _routings, max_allocatable

CENTER = (1, 1)
CORNERS = ((0, 0), (0, 2), (2, 0), (2, 2))
MIDPOINTS = ((0, 1), (1, 0), (1, 2), (2, 1))


def antipode(v):
    return (2 - v[0], 2 - v[1])


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


def _followup_ends():
    """The follow-up endpoint pairs by the neighbour rule: of the center
    case by (u, t), the corner and midpoint that precede the center, and
    of the corner case by the internal corner c."""
    nbs = GridGraph().neighbors
    center = {}
    for t in MIDPOINTS:
        for u in (c for c in nbs(t) if c in CORNERS):
            t_prime = next(c for c in CORNERS if c in nbs(t) and c != u)
            other_mid = next(m for m in MIDPOINTS if m in nbs(u) and m != t)
            center[u, t] = ((t, antipode(t_prime)), (t, antipode(u)), (t_prime, other_mid))
    corner = {c: tuple((c, m) for m in MIDPOINTS if m in nbs(antipode(c))) for c in CORNERS}
    return center, corner


# import-time constants of the one fixed grid, like graphs._GRID_STEPS
_CENTER_ENDS, _CORNER_ENDS = _followup_ends()


def _served_case(req, route):
    """The walk of a served ``route`` of ``req`` from its corner endpoint,
    the case tag, and the endpoint pairs of the follow-ups that answer it,
    read from the import-time tables ``_CENTER_ENDS`` or ``_CORNER_ENDS``."""
    corner = req.x if req.x in CORNERS else req.y
    vs = (route[0][0], *[e[1] for e in route])
    if vs[0] != corner:
        vs = vs[::-1]
    if vs[0] != corner:
        raise PropertyViolation(f"the routing does not run from {corner}")
    if CENTER in vs:
        i = vs.index(CENTER)
        return vs, "center", _CENTER_ENDS[vs[i - 2], vs[i - 1]]
    inner = [c for c in vs[1:-1] if c in CORNERS]
    if not inner:
        raise PropertyViolation("a center-free routing must pass an internal corner")
    c = next(c for c in inner if abs(corner[0] - c[0]) + abs(corner[1] - c[1]) == 2)
    return vs, "corner", _CORNER_ENDS[c]


def grid_adversary(algorithm):
    """Play the 3x3 construction; ratio >= 2 (corner case) or >= 3/2
    (center case), infinity if the first request is rejected."""
    g = GridGraph()
    return adversary_game(algorithm, g, distance3_pairs(g), _grid_answer)


def _grid_answer(r, first):
    """The case, follow-ups and routed optimum that answer the served
    routing of r; the grid holds no state, so r's own host serves."""
    g = r.graph
    _, case, ends = _served_case(r, first.allocation)
    followups = tuple(Request(g, x, y) for x, y in ends)
    return case, followups, max_allocatable(g, (r, *followups)).witness


# --------------------------------------------------------------------------
# exhaustive verification of the case analysis
# --------------------------------------------------------------------------


def _served_opt(own, full, fol):
    """The optimum with a served request of route masks ``own`` beside
    ``fol`` follow-ups that route in full, in the routings ``full``: it is
    ``fol + 1`` exactly when some route o misses some full routing, as
    otherwise at most ``fol - 1`` follow-ups route beside any o."""
    return fol + 1 if any(not o & u for o in own for u in full) else fol


@dataclass(slots=True, unsafe_hash=True)
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
    and ratio >= 2 resp. >= 3/2, each ratio verdict in integers
    (``opt >= 2 * alg_total`` resp. ``2 * opt >= 3 * alg_total``; the
    exact ratio is kept only for the report); cross-checks the pair count
    against the eight grid automorphisms.  Each follow-up set, keyed by
    the endpoint pairs ``_served_case`` reads from its tables, is built
    once per call: its route masks come from the one shared route table
    (only the first verify in a process fills its 12 pairs), and
    ``oracle._routings`` folds them into its full routings, which give its
    optimum and, per served pair, the optimum with the served request
    (``_served_opt``); every set routes in full, and one that does not
    raises ``PropertyViolation``.  The algorithm's continuation around
    each of the 80 routings is searched by ``oracle._routable_size``,
    which builds no subset, routing or witness.  One ratio is built per
    (optimum, algorithm total) value.
    """
    g = GridGraph()
    pairs = distance3_pairs(g)
    base = pairs[0]
    orbit = set()
    for phi in grid_automorphisms():
        orbit.add(Request(g, phi(base.x), phi(base.y)))
    cases = []
    built = {}  # follow-ups' route mask lists, full routings and optimum by ends
    ratios = {}  # one ratio per (opt, alg_total)
    for r in pairs:
        corner = r.x if r.x in CORNERS else r.y
        table = g.routes(corner, r.x if corner == r.y else r.y)
        own = list(table.values())  # the same edge sets as routes(r.x, r.y)
        opts = {}  # optima with r, by follow-up ends
        for path, mask in table.items():
            vs, case, ends = _served_case(r, path)
            entry = built.get(ends)
            if entry is None:
                lists = [list(g.routes(*((x, y) if x < y else (y, x))).values())
                         for x, y in ends]
                full = _routings(lists)
                if not full:
                    raise PropertyViolation("a follow-up set must route in full")
                entry = built[ends] = lists, full, len(lists)
            lists, full, fol = entry
            alg_total = 1 + _routable_size(lists, mask)
            opt = opts.get(ends)
            if opt is None:
                opt = opts[ends] = _served_opt(own, full, fol)
            if case == "corner":
                ok = alg_total == 1 and fol == 2 and opt >= 2 and opt >= 2 * alg_total
            else:
                ok = alg_total <= 2 and fol == 3 and opt >= 3 and 2 * opt >= 3 * alg_total
            rat = ratios.get((opt, alg_total))
            if rat is None:
                rat = ratios[opt, alg_total] = ratio(opt, alg_total)
            cases.append(GridCase(r, vs, case, alg_total, fol, opt, rat, ok))
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
    return PriorityOrder(lambda r: (*r.x, *r.y), name="lex")


class GridRouter(PriorityAlgorithm):
    """First-fit router; ``prefer`` steers the choice through or around
    the center when possible."""

    def __init__(self, prefer=None, name="grid-first"):
        self.prefer = prefer
        self.name = name

    def initial_order(self, graph, advice):
        return grid_order(graph)

    def decide(self, request, state):
        routes = state.graph.routes(request.x, request.y).items()
        feasible = [p for p, m in routes if not m & state.blocked_mask]
        if not feasible:
            return Decision(request, False)
        routed = feasible
        if self.prefer:
            via = self.prefer == "via-center"
            routed = [p for p in feasible if any(CENTER in e for e in p) == via]
        return Decision(request, True, (routed or feasible)[0])


def grid_battery():
    return (
        GridRouter(name="grid-first"),
        GridRouter("via-center", "grid-via-center"),
        GridRouter("avoid-center", "grid-avoid-center"),
        RejectFirst(GridRouter(), "grid-reject-first"),
    )
