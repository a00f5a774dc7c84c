"""A fixed battery of priority strategies for adversary stress tests.

Fifteen strategies per problem: canonical greedy, reversed-order greedy,
reject-first, reject-all, an adaptive order-flipper, and ten seeded
random-order greedies.  Random orders hash (seed, endpoints) through
sha256 so they are stable across platforms and runs.

``exact_block_accounting`` marks strategies whose per-block gains in the
string-guessing reductions are exactly 3/2 (paths) resp. 2/1 (trees) for
right/wrong guesses.  Reject-all only meets the upper bounds anywhere.
Reject-first is exact on trees but not on paths: rejecting the top
request of the first block leaves only its length-1 complement when the
hidden bit is 1, so that block gains 1 edge instead of 2.
"""

from __future__ import annotations

import hashlib

from .graphs import InvalidParameterError
from .engine import Decision, GreedyAlgorithm, PriorityAlgorithm, PriorityOrder
from .paths import right_end_order
from .lwdpa import lwdpa_order
from .trees import cat_order

_CANONICAL = {
    "dpa-path": (right_end_order, "count"),
    "lwdpa": (lwdpa_order, "length"),
    "cat": (cat_order, "count"),
}


def _hash_key(seed, r):
    digest = hashlib.sha256(f"{seed}:{r.x}:{r.y}".encode()).hexdigest()
    return (int(digest, 16), r.x, r.y)


class RejectFirst(PriorityAlgorithm):
    """Greedy, except the very first presented request is rejected."""

    def __init__(self, order_factory, mode):
        self.order_factory = order_factory
        self.mode = mode
        self.name = "reject-first"

    def initial_order(self, graph, advice):
        return self.order_factory(graph)

    def decide(self, request, state, advice):
        if not state.log:
            return Decision(request, False)
        return Decision(request, state.fits(request))


class RejectAll(PriorityAlgorithm):
    def __init__(self, order_factory, mode):
        self.order_factory = order_factory
        self.mode = mode
        self.name = "reject-all"

    def initial_order(self, graph, advice):
        return self.order_factory(graph)

    def decide(self, request, state, advice):
        return Decision(request, False)


class AdaptiveFlip(GreedyAlgorithm):
    """Greedy whose order flips direction after every decision."""

    def __init__(self, order_factory, mode):
        super().__init__(order_factory, "adaptive-flip", mode)

    def initial_order(self, graph, advice):
        forward = self.order_factory(graph)
        backward = forward.reversed()

        def readapt(history):
            current = forward if len(history) % 2 == 0 else backward
            return _with_readapt(current, readapt)

        return _with_readapt(forward, readapt)


def _with_readapt(order, readapt):
    return PriorityOrder(order.key, name=order.name, readapt=readapt)


def battery(problem):
    """The fifteen named strategies for one problem family."""
    if problem not in _CANONICAL:
        raise InvalidParameterError(f"unknown problem family {problem!r}")
    order_factory, mode = _CANONICAL[problem]
    algs = [
        GreedyAlgorithm(order_factory, "greedy", mode),
        GreedyAlgorithm(lambda g: order_factory(g).reversed(), "greedy-reversed", mode),
        RejectFirst(order_factory, mode),
        RejectAll(order_factory, mode),
        AdaptiveFlip(order_factory, mode),
    ]
    for seed in range(10):
        algs.append(
            GreedyAlgorithm(
                lambda g, s=seed: _random_order(s),
                f"random-greedy-{seed}",
                mode,
            )
        )
    inexact = {"reject-all"} if problem == "cat" else {"reject-all", "reject-first"}
    for alg in algs:
        alg.exact_block_accounting = alg.name not in inexact
    return tuple(algs)


def _random_order(seed):
    return PriorityOrder(lambda r, s=seed: _hash_key(s, r), name=f"sha-{seed}")
