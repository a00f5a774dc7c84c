"""Priority-order execution engine and advice tapes.

A priority order ranks the *universe* of requests before any are seen; the
request with the smallest key is presented first.  Algorithms are pairs
(order, decision rule); decisions are irrevocable.  Adaptive algorithms
swap in a new order after every decision via the order's ``readapt`` hook.

Advice is a finite bit tape made available before the order is chosen.
Bits are consumed MSB-first in fixed-width fields; the number of consumed
bits is the advice complexity of the run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from string import hexdigits

from .graphs import (
    Instance,
    InvalidParameterError,
    PriodpaError,
    Solution,
    edge_mask,
    gain,
    norm_edge,
    ratio,
    validate_solution,
)


class InvalidOrderError(PriodpaError, RuntimeError):
    """The order is not a strict total order on the requests at hand."""


class IllegalAcceptanceError(PriodpaError, RuntimeError):
    """An algorithm accepted a request whose path is already blocked."""


class AdviceExhaustedError(PriodpaError, RuntimeError):
    """A decoder read past the end of its advice tape."""


class PriorityOrder:
    """Strict total order on requests, realized as a key function.

    ``precedes(r1, r2)`` is true when r1 is presented before r2 (r1 has the
    higher priority).  Built-in constructors append the lexicographic
    endpoint tie-break so keys are injective on any universe.
    """

    def __init__(self, key, name="order", readapt=None):
        self._key = key
        self.name = name
        self.readapt = readapt

    def key(self, r):
        return self._key(r)

    def precedes(self, r1, r2):
        return self._key(r1) < self._key(r2)

    def max_of(self, requests):
        """The highest-priority request; ties between distinct requests are
        an order bug and raise InvalidOrderError."""
        best = None
        best_key = None
        tied = False
        for r in requests:
            k = self._key(r)
            if best is None or k < best_key:
                best, best_key, tied = r, k, False
            elif not (best_key < k) and r != best:
                tied = True
        if best is None:
            raise InvalidParameterError("max_of on an empty set")
        if tied:
            raise InvalidOrderError(f"{self.name}: tie at the top of the order")
        return best

    def sort(self, requests):
        seq = sorted(requests, key=self._key)
        for a, b in zip(seq, seq[1:]):
            if not self.precedes(a, b):
                raise InvalidOrderError(f"{self.name}: {a} and {b} are not strictly ordered")
        return seq

    @classmethod
    def from_comparator(cls, prefers, name="comparator", readapt=None):
        """Build from a boolean ``prefers(r1, r2)`` predicate."""

        def cmp(r1, r2):
            if r1 == r2:
                return 0
            if prefers(r1, r2):
                return -1
            if prefers(r2, r1):
                return 1
            return 0  # surfaces as a tie -> InvalidOrderError

        return cls(functools.cmp_to_key(cmp), name=name, readapt=readapt)

    def reversed(self):
        base = self._key

        def cmp(r1, r2):
            k1, k2 = base(r1), base(r2)
            if k1 < k2:
                return 1
            if k2 < k1:
                return -1
            return 0

        return PriorityOrder(functools.cmp_to_key(cmp), name=f"reversed-{self.name}")


def presentation_sequence(order, instance):
    """The order in which a fixed order presents the whole instance."""
    if order.readapt is not None:
        raise InvalidOrderError("presentation_sequence needs a fixed (non-adaptive) order")
    return order.sort(instance.requests)


# --------------------------------------------------------------------------
# advice tapes
# --------------------------------------------------------------------------


class AdviceTape:
    """Read-only bit tape; tracks how many bits were consumed."""

    def __init__(self, bits=""):
        if any(b not in "01" for b in bits):
            raise InvalidParameterError("advice bits must be a string over {0,1}")
        self.bits = bits
        self.consumed = 0

    def __len__(self):
        return len(self.bits)

    def read_bit(self):
        if self.consumed >= len(self.bits):
            raise AdviceExhaustedError("advice tape exhausted")
        b = self.bits[self.consumed]
        self.consumed += 1
        return int(b)

    def read_field(self, width):
        """Read ``width`` bits MSB-first as an unsigned integer."""
        if width < 0:
            raise InvalidParameterError("field width must be >= 0")
        v = 0
        for _ in range(width):
            v = (v << 1) | self.read_bit()
        return v

    def to_json(self):
        padded = self.bits + "0" * (-len(self.bits) % 4)
        hexed = "".join(f"{int(padded[i:i + 4], 2):x}" for i in range(0, len(padded), 4))
        return {"bits": len(self.bits), "hex": hexed}

    @classmethod
    def from_json(cls, obj):
        n = obj.get("bits") if isinstance(obj, dict) else None
        hexed = obj.get("hex") if isinstance(obj, dict) else None
        if type(n) is not int or n < 0 or not isinstance(hexed, str) or set(hexed) - set(hexdigits):
            raise InvalidParameterError('an advice tape is {"bits": <count>, "hex": "<hex>"}')
        raw = "".join(f"{int(c, 16):04b}" for c in hexed)
        if len(raw) < n:
            raise InvalidParameterError("hex payload shorter than declared bit count")
        return cls(raw[:n])


class AdviceWriter:
    """Append-only counterpart of AdviceTape."""

    def __init__(self):
        self._bits = []

    def write_bit(self, b):
        self._bits.append("1" if b else "0")

    def write_field(self, value, width):
        if value < 0 or value >= (1 << width):
            raise InvalidParameterError(f"{value} does not fit in {width} bits")
        for i in range(width - 1, -1, -1):
            self._bits.append("1" if (value >> i) & 1 else "0")

    def __len__(self):
        return len(self._bits)

    def tape(self):
        return AdviceTape("".join(self._bits))


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------


@dataclass
class Decision:
    request: object
    accept: bool
    allocation: object = None  # grids only: tuple of directed edges


@dataclass
class RunState:
    """Mutable view an algorithm sees while deciding."""

    graph: object
    blocked_mask: int = 0
    used_edges: set = field(default_factory=set)
    accepted: list = field(default_factory=list)
    allocations: dict = field(default_factory=dict)
    log: list = field(default_factory=list)  # every Decision, in order
    scratch: dict = field(default_factory=dict)  # algorithm-private state

    def fits(self, request):
        """Unique-path hosts: is the request's path fully unblocked?"""
        return not (edge_mask(self.graph, request) & self.blocked_mask)

    def allocation_fits(self, allocation):
        return not any(norm_edge(u, v) in self.used_edges for u, v in allocation)


class PriorityAlgorithm:
    """Interface: a priority order plus an irrevocable decision rule."""

    name = "algorithm"
    mode = "count"
    greedy_decisions = False

    def initial_order(self, graph, advice):
        raise NotImplementedError

    def decide(self, request, state, advice):
        raise NotImplementedError


class GreedyAlgorithm(PriorityAlgorithm):
    """Accept whenever the unique path fits (cycle-free hosts)."""

    greedy_decisions = True

    def __init__(self, order_factory, name, mode="count"):
        self.order_factory = order_factory
        self.name = name
        self.mode = mode

    def initial_order(self, graph, advice):
        return self.order_factory(graph)

    def decide(self, request, state, advice):
        return Decision(request, state.fits(request))


@dataclass
class RunResult:
    solution: Solution
    log: tuple
    bits_consumed: int


class Session:
    """Feed-by-feed harness; adversaries drive it request by request.

    The adversary observes the algorithm's current (possibly adaptive)
    order only through :meth:`max_of`.
    """

    def __init__(self, algorithm, graph, tape=None):
        self.algorithm = algorithm
        self.graph = graph
        self.tape = tape if tape is not None else AdviceTape("")
        self.order = algorithm.initial_order(graph, self.tape)
        self.state = RunState(graph)

    def max_of(self, candidates):
        return self.order.max_of(candidates)

    def drain(self, requests):
        """Feed whichever of ``requests`` tops the current order until none
        are left; return them in the order they were fed."""
        remaining = list(requests)
        fed = []
        while remaining:
            r = self.max_of(remaining)
            self.feed(r)
            remaining.remove(r)
            fed.append(r)
        return fed

    def feed(self, request):
        state = self.state
        decision = self.algorithm.decide(request, state, self.tape)
        if decision.accept:
            if self.graph.kind == "grid":
                if decision.allocation is None:
                    raise IllegalAcceptanceError(f"{self.algorithm.name}: accept without allocation")
                if not state.allocation_fits(decision.allocation):
                    raise IllegalAcceptanceError(f"{self.algorithm.name}: allocation reuses an edge")
                state.used_edges |= {norm_edge(u, v) for u, v in decision.allocation}
                state.allocations[request] = tuple(decision.allocation)
            else:
                if not state.fits(request):
                    raise IllegalAcceptanceError(f"{self.algorithm.name}: accepted a blocked request")
                state.blocked_mask |= edge_mask(self.graph, request)
            state.accepted.append(request)
        state.log.append(decision)
        if self.order.readapt is not None:
            self.order = self.order.readapt(tuple(state.log))
        return decision

    def result(self):
        state = self.state
        alloc = dict(state.allocations) if self.graph.kind == "grid" else None
        sol = Solution(self.graph, tuple(state.accepted), alloc)
        return RunResult(sol, tuple(state.log), self.tape.consumed)


def run(algorithm, instance, tape=None):
    """Present the whole instance in priority order and collect the run."""
    session = Session(algorithm, instance.graph, tape)
    session.drain(instance.requests)
    return session.result()


@dataclass
class AdversaryOutcome:
    instance: Instance
    ratio: object  # Fraction, or math.inf
    case: str
    alg_gain: int
    opt_gain: int
    opt_witness: Solution


def adversary_outcome(session, instance, case, witness, mode="count"):
    """Score a finished adversary game: the algorithm's gain from the
    session against the optimum of ``witness``, which must be a valid
    solution of the ``instance`` the adversary served."""
    assert validate_solution(instance, witness), "adversary witness must be valid"
    alg = gain(session.result().solution, mode)
    opt = gain(witness, mode)
    return AdversaryOutcome(instance, ratio(opt, alg), case, alg, opt, witness)
