"""Exact optima by exhaustive search, with canonical witnesses.

On cycle-free hosts a set of requests is read as a bitmask over a ranking
of the requests (request i is bit i), and the witness is the smallest or
the largest optimal mask.  The conflict graph is split into connected
components, and each component is searched depth-first over its
conflict-free subsets, deciding the highest bit first.  Leaving a request
out before taking it meets the subsets in increasing mask order; taking it
first meets them in decreasing order.  The first strict maximizer wins,
and a branch stops once its weight plus the weight of every undecided
request that still fits cannot beat the best so far.  Bit positions of
different components are disjoint, so the per-component extremes combine
into the overall one.  Two rules use the search:

* ``brute_force_opt`` ranks requests by normalized endpoints and keeps the
  smallest optimal mask;
* ``greediest_opt`` ranks them by presentation, the first-presented request
  being the highest bit, and keeps the largest optimal mask.  That is the
  optimum which keeps each request, in presentation order, whenever the
  requests kept so far and it still extend to an optimum.

On the 3x3 grid ``max_allocatable`` searches for edge-disjoint routings
over the grid's route table.  Its witness is the smallest routable mask of
the largest routable size, over the requests sorted by endpoints.  Subsets
are tried from the largest size down, in increasing mask order within a
size, and the first that routes is returned.  Every larger subset has
failed by then, and so has every smaller mask of its size, so this is the
witness an increasing scan of all masks keeps; and no subset is searched
that such a scan would skip.

The searches leave no cyclic garbage: each recursion is a module-level
function that is handed all of its state, so nothing it builds refers
back to itself and reference counting frees it all.  The grid's route
fill, ``graphs._fill_routes``, works the same way.
``test_searches_and_route_fill_leave_no_cyclic_garbage`` pins this: with
the collector off, a collection after the searches, the greedy runs, the
route fills and a 3x3 verify finds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import (
    InvalidParameterError,
    PriodpaError,
    Solution,
)
from .engine import InvalidOrderError


class InstanceTooLargeError(PriodpaError, RuntimeError):
    """The instance exceeds the brute-force cap."""


# the size limit of every exact search, in requests
CAP = 22


@dataclass(slots=True, unsafe_hash=True)
class OracleResult:
    optimum: int
    witness: Solution


def _components(masks):
    """Indices of requests grouped by conflict-graph component, each group
    in increasing order.  A request joins every group whose union mask it
    meets, so it is tested once per group, not once per request."""
    groups = []  # (union mask, indices)
    for i, m in enumerate(masks):
        union, members, apart = m, [i], []
        for group in groups:
            if group[0] & m:
                union |= group[0]
                members += group[1]
            else:
                apart.append(group)
        apart.append((union, members))
        groups = apart
    return [sorted(members) for _, members in groups]


def _walk(j, used, w, sub, ms, ws, bits, branches, best):
    """Decide the component's request j; those above it are decided, with
    edges ``used``, weight ``w`` and mask ``sub``.  ``best`` holds the best
    weight so far and its mask.  Every piece of state is passed in, so the
    search makes no reference cycle for the collector to find."""
    for take in branches:
        if take and used & ms[j]:
            continue
        edges, gain, mask = (used | ms[j], w + ws[j], sub | bits[j]) if take else (used, w, sub)
        if not j:
            if gain > best[0]:
                best[0], best[1] = gain, mask
        # go on only while the requests below that still fit could beat the best
        elif gain + sum([ws[i] for i in range(j) if not edges & ms[i]]) > best[0]:
            _walk(j - 1, edges, gain, mask, ms, ws, bits, branches, best)


def _component_best(indices, masks, weights, largest):
    """Best weight of one component and its smallest (or ``largest``)
    optimal set, as a mask over all requests (request i is bit i)."""
    ms = [masks[i] for i in indices]
    ws = [weights[i] for i in indices]
    bits = [1 << i for i in indices]
    branches = (1, 0) if largest else (0, 1)
    best = [-1, 0]
    _walk(len(ms) - 1, 0, 0, 0, ms, ws, bits, branches, best)
    return best[0], best[1]


def _check_cap(instance):
    if len(instance.requests) > CAP:
        raise InstanceTooLargeError(f"{len(instance.requests)} requests exceed the cap of {CAP}")


def _extreme_opt(graph, ranked, mode, largest):
    """Optimum over ``ranked`` (request i is bit i) and its extreme witness,
    listed by endpoints; ``ranked`` is already in that order unless
    ``largest`` (then it is a presentation order)."""
    masks = [r.mask for r in ranked]
    if mode == "count":
        weights = [1] * len(ranked)
    elif mode == "length":
        weights = [m.bit_count() for m in masks]
    else:
        raise InvalidParameterError(f"unknown gain mode {mode!r}")
    total = chosen = 0
    for comp in _components(masks):
        w, bits = _component_best(comp, masks, weights, largest)
        total += w
        chosen |= bits
    witness = [r for i, r in enumerate(ranked) if chosen >> i & 1]
    if largest:
        witness.sort(key=lambda r: r.key)
    return OracleResult(total, Solution(graph, tuple(witness)))


def brute_force_opt(instance, mode="count"):
    """Exact optimum and its canonical witness, the smallest optimal mask
    over the requests sorted by normalized endpoints.

    ``CAP`` is the one size limit: an instance with more requests raises
    InstanceTooLargeError, whatever its conflict structure.  Grids also
    stop at 12 requests.
    """
    _check_cap(instance)
    if instance.graph.kind == "grid":
        if mode != "count":
            raise InvalidParameterError("grid oracle supports count gain only")
        return max_allocatable(instance.graph, instance.requests)
    return _extreme_opt(instance.graph, instance.requests, mode, largest=False)


def greediest_opt(instance, order, mode="count"):
    """The canonical optimum of a fixed priority order: the largest optimal
    mask when the first-presented request is the highest bit."""
    if order.readapt is not None:
        raise InvalidOrderError("greediest_opt needs a fixed (non-adaptive) order")
    g = instance.graph
    if g.kind == "grid":
        raise InvalidParameterError("greediest_opt is only defined on cycle-free hosts")
    _check_cap(instance)
    ranked = order.sort(instance.requests)[::-1]
    return _extreme_opt(g, ranked, mode, largest=True).witness


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------


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


def max_allocatable(graph, requests, blocked=0):
    """Largest routable subset of ``requests`` on the grid's edges outside
    the mask ``blocked``.

    Returns an OracleResult, as ``brute_force_opt`` does, whose witness
    holds the routes.  Over endpoint-sorted requests (request i is bit i)
    it is the smallest routable mask of the largest routable size, routed
    by the first routing the depth-first search meets.  Sizes are tried
    from the number of requests with a free route down, and the masks of
    one size in increasing order, so the first subset that routes is that
    witness; a subset holding a request without a free route is never
    searched.
    """
    reqs = sorted(requests, key=lambda r: r.key)
    if len(reqs) > 12:
        raise InstanceTooLargeError("grid routing search capped at 12 requests")
    lists = [[(p, m) for p, m in graph.routes(r.x, r.y).items() if not m & blocked]
             for r in reqs]
    free = [i for i, routes in enumerate(lists) if routes]
    for size in range(len(free), 0, -1):
        # increasing masks: compare the highest bits first
        for picked in sorted(combinations(free, size), key=lambda c: c[::-1]):
            alloc = []
            if _route([lists[i] for i in picked], 0, 0, alloc):
                accepted = tuple(reqs[i] for i in picked)
                return OracleResult(size, Solution(graph, accepted, dict(zip(accepted, alloc))))
    return OracleResult(0, Solution(graph, (), {}))
