"""A fixed battery of priority strategies for adversary stress tests.

Fifteen strategies per problem: canonical greedy, reversed-order greedy,
reject-first, reject-all, an adaptive order-flipper, and ten seeded
random-order greedies.  Random orders hash (seed, endpoints) through
sha256 so they are stable across platforms and runs.  The digest is
``graphs.sha256``, from CPython's built-in module, so no process that
imports the package loads OpenSSL.  Each random-order
strategy keeps the keys it has computed in a dict of its own, from
endpoint pair to the whole ``_hash_key`` tuple, for as long as the
``battery()`` tuple lives: a key depends on the seed and the endpoints
alone, not on the host, so the strategy hashes each endpoint pair once
over all its games, and a key it has seen costs one dict read.  Each game
still builds its own ``PriorityOrder``, whose key reads that dict.

``exact_block_accounting`` marks strategies whose per-block gains in the
string-guessing reductions are exactly 3/2 (paths) resp. 2/1 (trees) for
right/wrong guesses.  Reject-all only meets the upper bounds anywhere.
Reject-first is exact on trees but not on paths: rejecting the top
request of the first block leaves only its length-1 complement when the
hidden bit is 1, so that block gains 1 edge instead of 2.
"""

from __future__ import annotations

from .graphs import InvalidParameterError, sha256
from .engine import Decision, GreedyAlgorithm, PriorityOrder, RejectFirst
from .paths import right_end_order
from .lwdpa import lwdpa_order
from .trees import cat_order

_CANONICAL = {
    "dpa-path": (right_end_order, "count"),
    "lwdpa": (lwdpa_order, "length"),
    "cat": (cat_order, "count"),
}


def _hash_key(seed, r):
    digest = sha256(f"{seed}:{r.x}:{r.y}".encode()).digest()
    return (int.from_bytes(digest, "big"), r.x, r.y)


class RejectAll(GreedyAlgorithm):
    def decide(self, request, state):
        return Decision(request, False)


class AdaptiveFlip(GreedyAlgorithm):
    """Greedy whose order flips direction after every decision.  It holds
    both orders for the run, so ``Session.drain`` resumes each one's
    ranking instead of ranking afresh."""

    def __init__(self, order_factory, mode):
        super().__init__(order_factory, "adaptive-flip", mode)

    def initial_order(self, graph, advice):
        self.forward = self.order_factory(graph)
        self.backward = self.forward.reversed()
        return self.forward

    def readapt(self, state):
        return self.backward if len(state.log) % 2 else self.forward


def battery(problem):
    """The fifteen named strategies for one problem family."""
    if problem not in _CANONICAL:
        raise InvalidParameterError(f"unknown problem family {problem!r}")
    order_factory, mode = _CANONICAL[problem]
    algs = [
        GreedyAlgorithm(order_factory, "greedy", mode),
        GreedyAlgorithm(lambda g: order_factory(g).reversed(), "greedy-reversed", mode),
        RejectFirst(GreedyAlgorithm(order_factory, "greedy", mode)),
        RejectAll(order_factory, "reject-all", mode),
        AdaptiveFlip(order_factory, mode),
    ]
    for seed in range(10):
        # each lambda evaluates its own default dict: one key memo per strategy
        algs.append(
            GreedyAlgorithm(
                lambda g, s=seed, digests={}: _random_order(s, digests),
                f"random-greedy-{seed}",
                mode,
            )
        )
    inexact = {"reject-all"} if problem == "cat" else {"reject-all", "reject-first"}
    for alg in algs:
        alg.exact_block_accounting = alg.name not in inexact
    return tuple(algs)


def _random_order(seed, digests):
    """The sha256 order of ``seed``; ``digests`` maps each endpoint pair
    already hashed under this seed to its ``_hash_key`` tuple."""

    def key(r):
        ends = r.x, r.y
        try:
            return digests[ends]
        except KeyError:
            k = digests[ends] = _hash_key(seed, r)
            return k

    return PriorityOrder(key, name=f"sha-{seed}")
