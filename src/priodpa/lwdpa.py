"""Length-weighted disjoint path allocation on a path.

Three pieces live here:

* the longest-first greedy (ties: leftmost), which is (3 - 3/l)-competitive
  for the total-length objective on a path with l edges;
* the layered adversary family P_{a,b} showing no priority algorithm beats
  3 - 1/a, with the hard case pinned at b = 2(a+1);
* an advice codec that spends exactly 3*ceil(l/4) bits to reach the optimum:
  the tape describes where the long (length >= 2) requests of the canonical
  optimum start, three bits per block of four vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Instance,
    InvalidParameterError,
    Request,
    PathGraph,
    Solution,
    request_length,
)
from .engine import (
    AdviceWriter,
    Decision,
    GreedyAlgorithm,
    PriorityAlgorithm,
    PriorityOrder,
    Session,
    adversary_outcome,
    run,
)
from .oracle import brute_force_opt, greediest_opt


def lwdpa_order(graph):
    """Longest request first; among equals the leftmost goes first."""
    return PriorityOrder(lambda r: (r.x - r.y, r.x), name="length-leftmost")


def greedy_lwdpa_algorithm():
    return GreedyAlgorithm(lwdpa_order, "greedy-lwdpa", mode="length")


def greedy_lwdpa(instance):
    return run(greedy_lwdpa_algorithm(), instance).solution


# --------------------------------------------------------------------------
# the P_{a,b} adversary
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PabParams:
    """Layer structure: 2b-1 long requests overlapping in single edges.

    Lengths ramp a, 2a, ..., ba, ..., 2a, a; consecutive longs share exactly
    one edge, so the host path has l = a*b*b - 2b + 2 edges.
    """

    a: int
    b: int

    def __post_init__(self):
        if self.a < 3:
            raise InvalidParameterError("need a >= 3")
        if self.b < 2:
            raise InvalidParameterError("need b >= 2")

    @property
    def l(self):
        return self.a * self.b * self.b - 2 * self.b + 2

    def length_of(self, i):
        """Length of the i-th long request, i in 1..2b-1."""
        return i * self.a if i <= self.b else (2 * self.b - i) * self.a

    def span_of(self, i):
        start = 0
        for j in range(1, i):
            start += self.length_of(j) - 1
        return (start, start + self.length_of(i))


def build_pab(params):
    """Host path, the long requests p_1..p_{2b-1}, and all unit requests."""
    g = PathGraph(params.l)
    longs = tuple(Request(g, *params.span_of(i)) for i in range(1, 2 * params.b))
    assert longs[-1].y == params.l, "layer structure must end exactly at l"
    units = tuple(Request(g, e, e + 1) for e in range(params.l))
    return g, longs, units


def adversary_play_lwdpa(algorithm, params):
    """Play P_{a,b} against a priority algorithm (length objective).

    The universe is every long and every unit request; the adversary reads
    off the algorithm's top request r*, serves it, and continues with the
    case-specific follow-ups.  Rejecting r* ends the game at ratio infinity.
    """
    g, longs, units = build_pab(params)
    universe = list(longs) + list(units)
    session = Session(algorithm, g)
    r_star = session.max_of(universe)
    first = session.feed(r_star)
    if not first.accept:
        return adversary_outcome(session, Instance(g, (r_star,)), "rejected-first",
                                 Solution(g, (r_star,)), "length")

    b = params.b
    if request_length(g, r_star) == 1 and r_star not in longs:
        # unit request: pair it with the lowest-index long containing it
        i = next(i for i in range(1, 2 * b)
                 if longs[i - 1].x <= r_star.x and r_star.y <= longs[i - 1].y)
        follow = longs[i - 1]
        session.feed(follow)
        return adversary_outcome(session, Instance(g, (r_star, follow)), "unit",
                                 Solution(g, (follow,)), "length")

    i = longs.index(r_star) + 1
    if i in (1, 2 * b - 1):
        # outermost long: its free edges plus the single neighbour
        nb = longs[1] if i == 1 else longs[2 * b - 3]
        shared = set(range(nb.x, nb.y))
        frees = [u for u in units
                 if r_star.x <= u.x and u.y <= r_star.y and u.x not in shared]
        followups = [nb] + frees
        case = "outer"
        opt_req = frees + [nb]
    else:
        left, right = longs[i - 2], longs[i]
        shared = set(range(left.x, left.y)) | set(range(right.x, right.y))
        frees = [u for u in units
                 if r_star.x <= u.x and u.y <= r_star.y and u.x not in shared]
        followups = [left, right] + frees
        case = "middle" if i != b else "peak"
        opt_req = [left, right] + frees
    session.drain(followups)
    return adversary_outcome(session, Instance(g, [r_star] + followups), case,
                             Solution(g, tuple(opt_req)), "length")


# --------------------------------------------------------------------------
# advice codec: 3 bits per block of 4 vertices
# --------------------------------------------------------------------------

# Start offsets of long accepted requests within one block of 4 vertices.
# Disjoint length >= 2 requests leave room for at most two starts per block,
# and two starts can only sit at offsets {0,2}, {0,3} or {1,3}.
_BLOCK_CODE = {
    (): 0,
    (0,): 1, (1,): 2, (2,): 3, (3,): 4,
    (0, 2): 5, (0, 3): 6, (1, 3): 7,
}
_BLOCK_DECODE = {v: k for k, v in _BLOCK_CODE.items()}


def _block_count(length):
    return (length + 3) // 4  # vertices 0..l-1 grouped in fours; l is covered


def encode_lwdpa_advice(instance, cap=22):
    """Tape of exactly 3*ceil(l/4) bits pinning the canonical optimum.

    Encodes the start vertices of the long (length >= 2) requests of
    greediest_opt under the longest-first order, block by block.
    """
    g = instance.graph
    if g.kind != "path":
        raise InvalidParameterError("this codec works on path hosts")
    chosen = greediest_opt(instance, lwdpa_order(g), mode="length", cap=cap)
    starts = sorted(r.x for r in chosen.accepted if request_length(g, r) >= 2)
    writer = AdviceWriter()
    for blk in range(_block_count(g.length)):
        offsets = tuple(s - 4 * blk for s in starts if 4 * blk <= s < 4 * blk + 4)
        writer.write_field(_BLOCK_CODE[offsets], 3)
    assert len(writer) == 3 * _block_count(g.length)
    return writer.tape()


class LwdpaAdviceAlgorithm(PriorityAlgorithm):
    """Decoder: reproduce the long requests, fill in units greedily.

    A length >= 2 request is accepted iff it fits, starts at an encoded
    start, and no other encoded start lies strictly inside it (another
    optimal long would have to begin there).  Unit requests are accepted
    greedily; the long requests all precede them in the order.
    """

    name = "decode-lwdpa"
    mode = "length"

    def initial_order(self, graph, advice):
        return lwdpa_order(graph)

    def _starts(self, state, advice):
        if "starts" not in state.scratch:
            starts = set()
            for blk in range(_block_count(state.graph.length)):
                for off in _BLOCK_DECODE[advice.read_field(3)]:
                    starts.add(4 * blk + off)
            state.scratch["starts"] = starts
        return state.scratch["starts"]

    def decide(self, request, state, advice):
        starts = self._starts(state, advice)
        if not state.fits(request):
            return Decision(request, False)
        if request_length(state.graph, request) == 1:
            return Decision(request, True)
        if request.x not in starts:
            return Decision(request, False)
        blocked_inside = any(request.x < s < request.y for s in starts)
        return Decision(request, not blocked_inside)


def decode_run_lwdpa(instance, tape):
    return run(LwdpaAdviceAlgorithm(), instance, tape).solution
