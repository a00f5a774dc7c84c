"""``Session.drain`` against a naive model of the presentation loop.

``drain`` ranks the live requests once per order object and walks that
ranking with a cursor, resuming an order seen before where it was left.
The model has none of this: before every feed it asks the order in force
for the ``max_of`` of the requests still live.  An algorithm's
``readapt`` keeps its order, goes back to an earlier order from a pool or
makes a fresh one, each by a seeded script, and ``answer`` withdraws
random requests, live or dead; both runs follow the same script.
"""

import random

from priodpa import GreedyAlgorithm, PathGraph, PriorityOrder, Session

from helpers import all_pairs

TRIALS = 1500


class _Scripted(GreedyAlgorithm):
    """A greedy whose order after each decision is picked by ``rng``: the
    same object, one from the pool of earlier orders, or a fresh one."""

    def __init__(self, seed, requests):
        super().__init__(None, "scripted")
        self.rng = random.Random(seed)
        self.requests = requests
        self.pool = []

    def initial_order(self, graph, advice):
        return self._fresh()

    def _fresh(self):
        ranks = self.rng.sample(range(len(self.requests)), len(self.requests))
        prio = {r.key: (rank,) for r, rank in zip(self.requests, ranks)}
        order = PriorityOrder(lambda r: prio[r.key], name=f"scripted-{len(self.pool)}")
        self.pool.append(order)
        return order

    def readapt(self, state):
        move = self.rng.random()
        if move < 0.4:
            return state.order
        if move < 0.7:
            return self.rng.choice(self.pool)
        return self._fresh()


def _withdrawals(seed, n):
    """``answer``: after each feed, withdraw up to two random indices,
    fed, withdrawn or live alike."""
    rng = random.Random(seed)
    return lambda i, decision: rng.sample(range(n), min(n, rng.randrange(3)))


def _model(algorithm, graph, requests, answer):
    session = Session(algorithm, graph)
    live = list(range(len(requests)))
    fed = []
    while live:
        r = session.max_of([requests[i] for i in live])
        i = requests.index(r)
        decision = session.feed(r)
        fed.append(r)
        live.remove(i)
        gone = set(answer(i, decision))
        live = [j for j in live if j not in gone]
    return fed, session.result().log


def test_drain_feeds_what_the_stepwise_model_feeds():
    rng = random.Random(2022)
    for trial in range(TRIALS):
        g = PathGraph(rng.randint(3, 12))
        pairs = all_pairs(g)
        requests = rng.sample(pairs, rng.randint(0, min(12, len(pairs))))
        seed = rng.getrandbits(32)
        session = Session(_Scripted(seed, requests), g)
        fed = session.drain(requests, _withdrawals(seed, len(requests)))
        expected = _model(_Scripted(seed, requests), g, requests, _withdrawals(seed, len(requests)))
        assert (fed, session.result().log) == expected, (trial, g, requests)
