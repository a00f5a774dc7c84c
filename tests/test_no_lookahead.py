"""Every algorithm in the lab is a legal priority algorithm: its decision
on a presented request never depends on a request presented later.

``helpers.first_lookahead`` reruns an algorithm on every prefix of its
presentation sequence and compares the (request, accept, allocation)
triples.  It needs no oracle, so it runs at any size.  Each algorithm
object is reused for every rerun, so the check also shows that no object
carries state from one run to the next, the module-level greedies behind
``greedy_paths``, ``greedy_lwdpa`` and ``greedy_cat`` among them.
"""

import random

import pytest

from priodpa import GridGraph, Instance, PathGraph, encode_cat_advice, encode_lwdpa_advice
from priodpa.battery import battery
from priodpa.grid import grid_battery
from priodpa.lwdpa import _GREEDY_LWDPA, LwdpaAdviceAlgorithm
from priodpa.paths import _GREEDY_PATH
from priodpa.trees import _GREEDY_CAT, CatAdviceAlgorithm

from helpers import all_pairs, first_lookahead, random_high_degree_tree, random_tree


def _instances(make_graph, max_requests, count, seed):
    """``count`` seeded instances of 1 to ``max_requests`` distinct requests."""
    rng = random.Random(seed)
    for _ in range(count):
        g = make_graph(rng)
        pairs = all_pairs(g)
        yield Instance(g, rng.sample(pairs, min(len(pairs), rng.randint(1, max_requests))))


def _paths(rng):
    return PathGraph(rng.randint(2, 20))


def _trees(rng):
    return random_tree(rng.randint(2, 24), rng)


def _high_degree_trees(rng):
    return random_high_degree_tree(rng.randint(6, 16), rng)


@pytest.mark.parametrize("problem, make_graph, extra", [
    ("dpa-path", _paths, _GREEDY_PATH),
    ("lwdpa", _paths, _GREEDY_LWDPA),
    ("cat", _trees, _GREEDY_CAT),
])
def test_every_battery_strategy_decides_without_lookahead(problem, make_graph, extra):
    algorithms = battery(problem) + (extra,)
    for inst in _instances(make_graph, 26, 30, seed=len(problem)):
        for alg in algorithms:
            assert first_lookahead(alg, inst) is None, (alg.name, inst.requests)


def test_every_grid_router_decides_without_lookahead():
    for inst in _instances(lambda rng: GridGraph(), 12, 60, seed=3):
        for alg in grid_battery():
            assert first_lookahead(alg, inst) is None, (alg.name, inst.requests)


@pytest.mark.parametrize("decoder, encode, make_graph", [
    (LwdpaAdviceAlgorithm(), encode_lwdpa_advice, _paths),
    (CatAdviceAlgorithm(), encode_cat_advice, _high_degree_trees),
])
def test_decoders_decide_without_lookahead_on_their_own_tapes(decoder, encode, make_graph):
    for inst in _instances(make_graph, 16, 60, seed=5):
        bits = encode(inst).bits
        assert first_lookahead(decoder, inst, bits) is None, (bits, inst.requests)
