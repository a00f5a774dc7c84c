"""Exact optima by exhaustive search, with canonical witnesses.

The witness returned for cycle-free hosts is the lexicographically smallest
maximizer: subsets are ranked by their bitmask over the instance's requests
sorted by normalized endpoints, and the smallest optimal mask wins.  For
speed the conflict graph is split into connected components, each component
is enumerated by increasing bitmask, and the per-component minimal masks are
recombined — bit positions of different components are disjoint, so the sum
of coordinate-wise minima is the overall minimum.

Grids (3x3 only) are handled by enumerating accepted subsets and searching
for edge-disjoint routings over precomputed simple-path lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    InvalidParameterError,
    Instance,
    PriodpaError,
    Solution,
    edge_mask,
    request_length,
)
from .engine import InvalidOrderError


class InstanceTooLargeError(PriodpaError, RuntimeError):
    """The instance exceeds the brute-force cap."""


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    witness: Solution


def _components(masks):
    """Indices of requests grouped by conflict-graph component."""
    n = len(masks)
    seen = [False] * n
    comps = []
    for i in range(n):
        if seen[i]:
            continue
        stack = [i]
        seen[i] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(n):
                if not seen[w] and masks[v] & masks[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _component_best(indices, masks, weights):
    """Enumerate one component by increasing bitmask.

    Returns (best_weight, minimal best local mask).  Local bit j corresponds
    to indices[j]; because indices are ascending and subsets are scanned in
    increasing local-mask order, the first maximizer is also minimal as a
    global mask.
    """
    k = len(indices)
    best_w = -1
    best_mask = 0
    for sub in range(1 << k):
        used = 0
        w = 0
        ok = True
        for j in range(k):
            if sub >> j & 1:
                m = masks[indices[j]]
                if used & m:
                    ok = False
                    break
                used |= m
                w += weights[indices[j]]
        if ok and w > best_w:
            best_w = w
            best_mask = sub
    return best_w, best_mask


def brute_force_opt(instance, mode="count", cap=22):
    """Exact optimum and its canonical witness.

    ``cap`` is the one size limit: an instance with more requests raises
    InstanceTooLargeError, whatever its conflict structure.  Grids also
    stop at 3x3 and 12 requests.
    """
    g = instance.graph
    reqs = instance.requests  # already sorted by normalized endpoints
    if len(reqs) > cap:
        raise InstanceTooLargeError(f"{len(reqs)} requests exceed the cap of {cap}")
    if g.kind == "grid":
        return _grid_opt(instance, mode)
    if not reqs:
        return OracleResult(0, Solution(g, ()))

    masks = [edge_mask(g, r) for r in reqs]
    if mode == "count":
        weights = [1] * len(reqs)
    elif mode == "length":
        weights = [request_length(g, r) for r in reqs]
    else:
        raise InvalidParameterError(f"unknown gain mode {mode!r}")

    total = 0
    chosen = []
    for comp in _components(masks):
        w, local_mask = _component_best(comp, masks, weights)
        total += w
        chosen.extend(comp[j] for j in range(len(comp)) if local_mask >> j & 1)
    return OracleResult(total, Solution(g, tuple(reqs[i] for i in sorted(chosen))))


def max_gain_completion(graph, requests, blocked_mask, mode="count"):
    """Best achievable gain from ``requests`` with some edges pre-blocked."""
    usable = [r for r in requests if not (edge_mask(graph, r) & blocked_mask)]
    if not usable:
        return 0
    sub = Instance(graph, usable)
    return brute_force_opt(sub, mode=mode).optimum


def greediest_opt(instance, order, mode="count"):
    """The canonical optimum of a fixed priority order.

    Walk the presentation sequence; keep a request exactly when the kept
    prefix together with it still extends to an optimal solution.
    """
    if order.readapt is not None:
        raise InvalidOrderError("greediest_opt needs a fixed (non-adaptive) order")
    g = instance.graph
    if g.kind == "grid":
        raise InvalidParameterError("greediest_opt is only defined on cycle-free hosts")
    opt = brute_force_opt(instance, mode=mode).optimum
    seq = order.sort(instance.requests)
    chosen = []
    chosen_gain = 0
    mask = 0
    for i, r in enumerate(seq):
        m = edge_mask(g, r)
        if mask & m:
            continue
        w = 1 if mode == "count" else request_length(g, r)
        rest = max_gain_completion(g, seq[i + 1:], mask | m, mode)
        if chosen_gain + w + rest == opt:
            chosen.append(r)
            chosen_gain += w
            mask |= m
    return Solution(g, tuple(sorted(chosen, key=lambda r: r.key)))


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------


def grid_simple_paths(graph, x, y):
    """All simple x-y paths as edge tuples, sorted by vertex sequence."""
    paths = []

    def extend(v, visited, edges):
        if v == y:
            paths.append(tuple(edges))
            return
        for w in graph.neighbors(v):
            if w not in visited:
                visited.add(w)
                edges.append((v, w))
                extend(w, visited, edges)
                edges.pop()
                visited.remove(w)

    extend(x, {x}, [])
    paths.sort(key=lambda es: tuple(e for e in es))
    return tuple(paths)


def _route(path_lists, i, used, alloc):
    # path_lists[i] holds (path, mask) pairs; ``used`` is the mask taken so far
    if i == len(path_lists):
        return True
    for path, mask in path_lists[i]:
        if used & mask:
            continue
        alloc.append(path)
        if _route(path_lists, i + 1, used | mask, alloc):
            return True
        alloc.pop()
    return False


def max_allocatable(graph, requests, blocked_edges=frozenset()):
    """Largest routable subset of ``requests`` given pre-used edges, in
    either direction (a served routing will do).

    Returns (count, accepted tuple, allocations dict) with the canonical
    increasing-bitmask witness over endpoint-sorted requests.
    """
    reqs = sorted(requests, key=lambda r: r.key)
    if len(reqs) > 12:
        raise InstanceTooLargeError("grid routing search capped at 12 requests")
    blocked = graph.route_mask(blocked_edges)
    lists = []
    for r in reqs:
        pairs = ((p, graph.route_mask(p)) for p in grid_simple_paths(graph, r.x, r.y))
        lists.append([(p, m) for p, m in pairs if not m & blocked])
    best = (0, (), {})
    for sub in range(1 << len(reqs)):
        picked = [i for i in range(len(reqs)) if sub >> i & 1]
        if len(picked) <= best[0]:
            continue
        alloc = []
        if _route([lists[i] for i in picked], 0, 0, alloc):
            accepted = tuple(reqs[i] for i in picked)
            best = (len(picked), accepted, dict(zip(accepted, alloc)))
    return best


def _grid_opt(instance, mode):
    g = instance.graph
    if mode != "count":
        raise InvalidParameterError("grid oracle supports count gain only")
    if (g.rows, g.cols) != (3, 3):
        raise InstanceTooLargeError("grid oracle is implemented for the 3x3 grid only")
    count, accepted, alloc = max_allocatable(g, instance.requests)
    return OracleResult(count, Solution(g, accepted, alloc))
