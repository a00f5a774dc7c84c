"""Priority-order execution engine and advice tapes.

A priority order ranks the *universe* of requests before any are seen; the
request with the smallest key is presented first, or the one with the
largest key in a reversed order.  A key is hashable and totally ordered,
and ``PriorityOrder.rank`` and ``PriorityOrder.max_of`` are the two places
keys are compared.  Algorithms are pairs
(order, decision rule); decisions are irrevocable.  An adaptive algorithm
picks the order for the next request after every decision, in its
``readapt(state)`` hook; an order itself only ranks.

Advice is a finite bit tape made available before the order is chosen.
Bits are consumed MSB-first in fixed-width fields; the number of consumed
bits is the advice complexity of the run.  A decoder must read its tape to
the last bit (``decode_run``); an encoder is a decoder that writes the
fields it would read, and must accept the optimum it encodes (``encode_run``).
"""

from __future__ import annotations

from copy import copy
from string import hexdigits
from weakref import WeakKeyDictionary

from .graphs import (
    Instance,
    InvalidParameterError,
    InvalidRequestError,
    PriodpaError,
    PropertyViolation,
    Value,
    gain,
    ratio,
    validate_solution,
)


class InvalidOrderError(PriodpaError, RuntimeError):
    """The order is not a strict total order on the requests at hand."""


class IllegalAcceptanceError(PriodpaError, RuntimeError):
    """An acceptance reuses an edge or, on a grid, does not route its request."""


class AdviceExhaustedError(PriodpaError, RuntimeError):
    """A decoder read past the end of its advice tape."""


class PriorityOrder:
    """Strict total order on requests, realized as a key function.

    A key is hashable and totally ordered, typically a flat tuple of ints.
    The request with the smaller key is presented first (it has the higher
    priority); ``reversed`` flips the ranking, not the keys, so the request
    with the larger key comes first there.  Built-in constructors append
    the lexicographic endpoint tie-break so keys are injective on any
    universe.  ``rank`` and ``max_of`` are the two places where keys are
    compared: ``rank`` sorts them and ``sort`` reads its ranking,
    ``max_of`` picks the top key in one pass, and both find a tie by a set
    of the keys; a tie anywhere raises InvalidOrderError, naming the first
    tied pair in presentation order.  Each call evaluates each request's
    key once (a ``max_of`` that meets a tie asks ``rank`` to name it) and
    remembers nothing.  A key must be a pure function of the request:
    ``Session.drain`` ranks the live requests once per order object and
    keeps that ranking for as long as the object lives.
    """

    def __init__(self, key, name="order"):
        self._key = key
        self.name = name
        self.descending = False

    def max_of(self, requests):
        """The highest-priority request, with no sorting (see ``rank``)."""
        items = list(requests)
        if not items:
            raise InvalidParameterError("max_of on an empty set")
        keys = [self._key(r) for r in items]
        if len(set(keys)) != len(keys):
            self.rank(items)  # raises, naming the first tied pair
        return items[keys.index(max(keys) if self.descending else min(keys))]

    def rank(self, items):
        """The indices of the list ``items`` in presentation order, one key
        evaluation each; a tie anywhere raises InvalidOrderError, naming the
        first tied pair in presentation order."""
        keys = [self._key(r) for r in items]
        idx = sorted(range(len(items)), key=keys.__getitem__, reverse=self.descending)
        if len(set(keys)) != len(keys):
            # the sort is stable both ways, so tied keys keep the order of ``items``
            for a, b in zip(idx, idx[1:]):
                if keys[a] == keys[b]:
                    raise InvalidOrderError(f"{self.name}: {items[a]} and {items[b]} are not strictly ordered")
        return idx

    def sort(self, requests):
        """The requests in presentation order (see ``rank``)."""
        items = list(requests)
        return [items[i] for i in self.rank(items)]

    def reversed(self):
        """This order with its ranking flipped: a copy that shares the key."""
        back = copy(self)
        back.descending = not self.descending
        back.name = f"reversed-{self.name}"
        return back


# --------------------------------------------------------------------------
# advice tapes
# --------------------------------------------------------------------------


class AdviceTape:
    """Read-only bit tape; tracks how many bits were consumed."""

    def __init__(self, bits=""):
        if not isinstance(bits, str) or bits.strip("01"):
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
        if len(hexed) != -(-n // 4) or "1" in raw[n:]:
            raise InvalidParameterError(f"a {n}-bit tape is {-(-n // 4)} zero-padded hex digits")
        return cls(raw[:n])


class AdviceWriter:
    """Append-only counterpart of AdviceTape."""

    def __init__(self):
        self._bits = []

    def write_field(self, value, width):
        if value < 0 or value >= (1 << width):
            raise InvalidParameterError(f"{value} does not fit in {width} bits")
        for i in range(width - 1, -1, -1):
            self._bits.append("1" if (value >> i) & 1 else "0")

    def tape(self):
        return AdviceTape("".join(self._bits))


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------


class Decision(Value):
    __slots__ = ("request", "accept", "allocation")
    __hash__ = None

    def __init__(self, request, accept, allocation=None):
        self.request = request
        self.accept = accept
        self.allocation = allocation  # grids only: tuple of directed edges


class PriorityAlgorithm:
    """Interface: a priority order, fixed from host and advice before any
    request, plus an irrevocable decision rule; ``state`` is the Session.

    An adaptive algorithm defines ``readapt(state)``: called after every
    decision, it returns the order for the next request, and returning
    the same object means the order is unchanged.  An algorithm object
    plays one session at a time; ``initial_order`` starts a run, so it may
    keep per-run state on itself.
    """

    name = "algorithm"
    mode = "count"
    readapt = None

    def initial_order(self, graph, advice):
        raise NotImplementedError

    def decide(self, request, state):
        raise NotImplementedError


class GreedyAlgorithm(PriorityAlgorithm):
    """Accept whenever the unique path fits (cycle-free hosts)."""

    def __init__(self, order_factory, name, mode="count"):
        self.order_factory = order_factory
        self.name = name
        self.mode = mode

    def initial_order(self, graph, advice):
        return self.order_factory(graph)

    def decide(self, request, state):
        return Decision(request, state.fits(request))


class RejectFirst(PriorityAlgorithm):
    """``inner``, except that the very first presented request is rejected."""

    def __init__(self, inner, name="reject-first"):
        self.inner = inner
        self.name = name
        self.mode = inner.mode
        self.readapt = inner.readapt

    def initial_order(self, graph, advice):
        return self.inner.initial_order(graph, advice)

    def decide(self, request, state):
        if not state.log:
            return Decision(request, False)
        return self.inner.decide(request, state)


class RunResult(Value):
    __slots__ = ("solution", "log", "bits_consumed")
    __hash__ = None

    def __init__(self, solution, log, bits_consumed):
        self.solution = solution
        self.log = log
        self.bits_consumed = bits_consumed


class Session:
    """Feed-by-feed harness; runs and games drive it request by request.

    An adversary observes the algorithm's current (possibly adaptive)
    order, ``session.order``, through :meth:`max_of` over candidates it
    picks, and :meth:`drain` presents a set of requests top-first in the
    order in force, as ``run``, the adversaries' follow-ups and the
    string-guessing games do.

    The session is the state each ``decide`` and ``readapt`` receives:
    ``graph``, ``tape``, ``blocked_mask`` (the edges of everything
    accepted), ``log`` (every Decision, in order) and :meth:`fits`.  An
    acceptance allocates ``graph.route_mask`` of its route, or the request's
    ``mask`` if it names none: a nonzero mask clear of ``blocked_mask``.
    """

    def __init__(self, algorithm, graph, tape=None):
        self.algorithm = algorithm
        self.graph = graph
        self.tape = tape if tape is not None else AdviceTape("")
        self.blocked_mask = 0
        self.log = []
        self._readapt = algorithm.readapt
        self.order = algorithm.initial_order(graph, self.tape)

    def fits(self, request):
        """Cycle-free hosts: is the request's ``path_mask`` clear of ``blocked_mask``?"""
        mask = request.mask
        if mask is None:
            raise InvalidRequestError("edge masks are only defined on cycle-free hosts")
        return not mask & self.blocked_mask

    def max_of(self, candidates):
        return self.order.max_of(candidates)

    def drain(self, requests, answer=None):
        """Feed ``requests`` top-first in the order in force and return
        them as fed.

        ``answer(i, decision)``, if given, is called after the feed of
        ``requests[i]`` and returns the indices of requests to withdraw;
        a withdrawn request is never fed.  A request that is fed or
        withdrawn never comes back, so each order object ranks the live
        requests once, the first time it is in force, and a cursor walks
        that ranking past dead requests.  When the order changes, a new
        object ranks only the live tail of the current ranking; an object
        seen before resumes its own ranking, held weakly so that an order
        made afresh at every decision is freed with its ranking.
        """
        items = list(requests)
        live = [True] * len(items)
        order = self.order
        seq, k = order.rank(items), 0
        seen = None  # order object -> (ranking, cursor) when it was left
        fed, feed = [], self.feed
        while True:
            for k in range(k, len(seq)):
                i = seq[k]
                if live[i]:
                    live[i] = False
                    r = items[i]
                    decision = feed(r)
                    fed.append(r)
                    if answer is not None:
                        for j in answer(i, decision):
                            live[j] = False
                    if self.order is not order:
                        break
            else:
                return fed
            if seen is None:
                seen = WeakKeyDictionary()
            seen[order] = (seq, k)
            order = self.order
            if order in seen:
                seq, k = seen[order]
            else:
                tail = [j for j in seq[k + 1:] if live[j]]
                seq, k = [tail[t] for t in order.rank([items[j] for j in tail])], 0

    def feed(self, request):
        decision = self.algorithm.decide(request, self)
        if decision.accept:
            route = decision.allocation
            mask = request.mask if route is None else self.graph.route_mask(request, route)
            if not mask:
                raise IllegalAcceptanceError(
                    f"{self.algorithm.name}: accept without allocation of a simple route")
            if mask & self.blocked_mask:
                raise IllegalAcceptanceError(f"{self.algorithm.name}: allocation reuses an edge")
            self.blocked_mask |= mask
        self.log.append(decision)
        if self._readapt is not None:
            self.order = self._readapt(self)
        return decision

    def result(self):
        """The run so far; the host reads its solution off the log."""
        return RunResult(self.graph.solution(self.log), tuple(self.log), self.tape.consumed)


def run(algorithm, instance, tape=None):
    """Present the whole instance in priority order and collect the run."""
    session = Session(algorithm, instance.graph, tape)
    session.drain(instance.requests)
    return session.result()


def decode_run(decoder, instance, tape):
    """Run an advice decoder, which must read its tape to the last bit."""
    result = run(decoder, instance, tape)
    if result.bits_consumed != len(tape):
        n = len(tape)
        raise InvalidParameterError(f"{n - result.bits_consumed} of {n} advice bits left unread")
    return result


def encode_run(encoder, instance, optimum):
    """The tape of ``encoder.writer`` after a run that accepts exactly
    ``optimum``; any other run is a PropertyViolation."""
    accepted = run(encoder, instance).solution.accepted
    if set(accepted) != set(optimum):
        raise PropertyViolation("the labeled run must accept the canonical optimum")
    return encoder.writer.tape()


class AdversaryOutcome(Value):
    """The outcome of every game.  A guessing game of ``reduction`` has no
    ``case`` or ``opt_witness``, and one BlockRecord per round.  ``passed``:
    no block gained over its ``opt_gain``, less one after a wrong guess; an
    adversary round has no records and raises PropertyViolation instead."""

    __slots__ = ("instance", "ratio", "case", "alg_gain", "opt_gain", "opt_witness", "records")
    __hash__ = None

    def __init__(self, instance, ratio, case, alg_gain, opt_gain, opt_witness, records=()):
        self.instance = instance
        self.ratio = ratio  # Fraction, or math.inf
        self.case = case
        self.alg_gain = alg_gain
        self.opt_gain = opt_gain
        self.opt_witness = opt_witness
        self.records = records

    @property
    def wrong(self):
        return sum(1 for rec in self.records if not rec.correct)

    @property
    def passed(self):
        return all(rec.alg_gain <= (rec.opt_gain if rec.correct else rec.opt_gain - 1)
                   for rec in self.records)


def adversary_game(algorithm, graph, candidates, answer, mode="count"):
    """Play one adversary round: serve the algorithm's top ``candidates``
    request r, then score the algorithm's gain against the optimum of a
    witness, which must be a valid solution of the instance served.

    A rejected r ends the game here, at ratio infinity: the case is
    ``"rejected-first"``, there are no follow-ups, and the witness is r
    alone (on a grid, routed by the first route in its table).  An
    accepted r is answered by ``answer(r, decision)`` with (case,
    follow-ups, witness), and the follow-ups are drained; so each
    adversary holds only its analysis of an accepted first pick.
    """
    session = Session(algorithm, graph)
    r = session.max_of(candidates)
    first = session.feed(r)
    if first.accept:
        case, followups, witness = answer(r, first)
    else:
        case, followups, witness = "rejected-first", (), graph.solution((Decision(r, True),))
    session.drain(followups)
    instance = Instance(graph, (r, *followups))
    if not validate_solution(instance, witness):
        raise PropertyViolation(f"{case}: the adversary's witness is not a valid solution")
    alg = gain(session.result().solution, mode)
    opt = gain(witness, mode)
    return AdversaryOutcome(instance, ratio(opt, alg), case, alg, opt, witness)
