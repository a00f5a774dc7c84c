"""Right-endpoint greedy on paths: optimal for the call-count objective.

Presenting requests by increasing right endpoint (ties: increasing left
endpoint) and accepting greedily always matches the optimum — the classic
interval-scheduling argument carried by a priority order.
"""

from __future__ import annotations

from .engine import GreedyAlgorithm, PriorityOrder, run


def right_end_order(graph):
    return PriorityOrder(lambda r: (r.y, r.x), name="right-end")


def greedy_path_algorithm():
    return GreedyAlgorithm(right_end_order, "greedy-path", mode="count")


_GREEDY_PATH = greedy_path_algorithm()  # stateless, so shared by every run


def greedy_paths(instance):
    """Run the right-endpoint greedy; returns its Solution."""
    return run(_GREEDY_PATH, instance).solution
