"""Length-weighted disjoint path allocation on a path.

Three pieces live here:

* the longest-first greedy (ties: leftmost), which is (3 - 3/l)-competitive
  for the total-length objective on a path with l edges;
* the layered adversary family P_{a,b} showing no priority algorithm beats
  3 - 1/a, with the hard case pinned at b = 2(a+1);
* an advice codec that spends exactly 3*ceil(l/4) bits to reach the optimum:
  the tape describes where the long (length >= 2) requests of the canonical
  optimum start, three bits per block of four vertices.  The encoder is the
  decoder writing each block's code, checked by ``engine.encode_run``.
"""

from __future__ import annotations

from functools import partial

from .graphs import (
    InvalidParameterError,
    Request,
    PathGraph,
    PropertyViolation,
    Solution,
    Value,
)
from .engine import (
    AdviceWriter,
    Decision,
    GreedyAlgorithm,
    PriorityAlgorithm,
    PriorityOrder,
    adversary_game,
    encode_run,
    run,
)
from .oracle import greediest_opt


def lwdpa_order(graph):
    """Longest request first; among equals the leftmost goes first."""
    return PriorityOrder(lambda r: (r.x - r.y, r.x), name="length-leftmost")


def greedy_lwdpa_algorithm():
    return GreedyAlgorithm(lwdpa_order, "greedy-lwdpa", mode="length")


_GREEDY_LWDPA = greedy_lwdpa_algorithm()  # stateless, so shared by every run


def greedy_lwdpa(instance):
    return run(_GREEDY_LWDPA, instance).solution


# --------------------------------------------------------------------------
# the P_{a,b} adversary
# --------------------------------------------------------------------------


class PabParams(Value):
    """Layer structure: 2b-1 long requests overlapping in single edges.

    Lengths ramp a, 2a, ..., ba, ..., 2a, a; consecutive longs share exactly
    one edge, so the host path has l = a*b*b - 2b + 2 edges.  The parameters
    are immutable: every attribute assignment raises AttributeError.
    """

    __slots__ = ("a", "b", "_universe")

    def __init__(self, a, b):
        if a < 3:
            raise InvalidParameterError("need a >= 3")
        if b < 2:
            raise InvalidParameterError("need b >= 2")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

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

    @property
    def universe(self):
        """Host path, the long requests p_1..p_{2b-1} and all unit requests
        (``units[e]`` is edge e's), built on first use and kept on this
        object."""
        try:
            return self._universe
        except AttributeError:
            pass
        g = PathGraph(self.l)
        longs = tuple(Request(g, *self.span_of(i)) for i in range(1, 2 * self.b))
        if longs[-1].y != self.l:
            raise PropertyViolation("the layer structure must end exactly at l")
        units = tuple(Request(g, e, e + 1) for e in range(self.l))
        object.__setattr__(self, "_universe", (g, longs, units))
        return self._universe


def adversary_play_lwdpa(algorithm, params):
    """Play P_{a,b} against a priority algorithm (length objective): serve
    its top long or unit request r* and answer it with ``_pab_answer``."""
    g, longs, units = params.universe
    return adversary_game(algorithm, g, longs + units, partial(_pab_answer, params), "length")


def _pab_answer(params, r_star, first):
    """The case, follow-ups and witness that answer an accepted r*."""
    g, longs, units = params.universe
    if r_star.mask.bit_count() == 1 and r_star not in longs:
        # unit request: pair it with the lowest-index long containing it
        follow = next(p for p in longs if p.x <= r_star.x and r_star.y <= p.y)
        return "unit", (follow,), Solution(g, (follow,))
    i = longs.index(r_star) + 1
    if i in (1, len(longs)):
        # outermost long: its free edges plus the single neighbour
        neighbours = [longs[1] if i == 1 else longs[-2]]
        case = "outer"
    else:
        neighbours = [longs[i - 2], longs[i]]
        case = "middle" if i != params.b else "peak"
    shared = {e for nb in neighbours for e in range(nb.x, nb.y)}
    frees = [units[e] for e in range(r_star.x, r_star.y) if e not in shared]
    followups = tuple(neighbours + frees)
    return case, followups, Solution(g, followups)


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


def encode_lwdpa_advice(instance):
    """Tape of exactly 3*ceil(l/4) bits pinning greediest_opt under the
    longest-first order, written by a run of the decoder."""
    g = instance.graph
    if g.kind != "path":
        raise InvalidParameterError("this codec works on path hosts")
    optimum = greediest_opt(instance, lwdpa_order(g), mode="length").accepted
    return encode_run(_LwdpaAdviceEncoder(optimum), instance, optimum)


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
        if graph.kind != "path":
            raise InvalidParameterError("this codec works on path hosts")
        # the whole table is read before any request arrives, so a run on
        # no requests still reads every bit the encoder wrote
        self.starts = {4 * blk + off for blk in range(_block_count(graph.length))
                       for off in _BLOCK_DECODE[self.block_code(blk, advice)]}
        return lwdpa_order(graph)

    def block_code(self, blk, advice):
        """The code of block ``blk``, a 3-bit field of the tape."""
        return advice.read_field(3)

    def decide(self, request, state):
        if not state.fits(request):
            return Decision(request, False)
        if request.mask.bit_count() == 1:
            return Decision(request, True)
        if request.x not in self.starts:
            return Decision(request, False)
        blocked_inside = any(request.x < s < request.y for s in self.starts)
        return Decision(request, not blocked_inside)


class _LwdpaAdviceEncoder(LwdpaAdviceAlgorithm):
    """The decoder, writing each block's code from the long starts of ``optimum``."""

    name = "encode-lwdpa"

    def __init__(self, optimum):
        self.writer = AdviceWriter()
        self.long_starts = sorted(r.x for r in optimum if r.mask.bit_count() >= 2)

    def block_code(self, blk, advice):
        offsets = tuple(s - 4 * blk for s in self.long_starts if 4 * blk <= s < 4 * blk + 4)
        code = _BLOCK_CODE[offsets]
        self.writer.write_field(code, 3)
        return code
