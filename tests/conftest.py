import itertools

import pytest
from hypothesis import HealthCheck, settings

from priodpa import Instance, PathGraph, brute_force_opt

from helpers import all_pairs

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def path_sweep():
    """Every path instance with l <= 6 and at most 5 requests, as rows of
    (l, instance, count optimum, length optimum), each optimum computed
    once for every test that reads it."""
    rows = []
    for l in range(1, 7):
        g = PathGraph(l)
        pairs = all_pairs(g)
        for k in range(0, 6):
            for combo in itertools.combinations(pairs, k):
                inst = Instance(g, list(combo))
                rows.append((
                    l,
                    inst,
                    brute_force_opt(inst, "count").optimum,
                    brute_force_opt(inst, "length").optimum,
                ))
    return rows
