"""Exact optima by exhaustive search, with canonical witnesses.

On cycle-free hosts a set of requests is read as a bitmask over a ranking
of the requests (request i is bit i), and the witness is the smallest or
the largest optimal mask.  One pass over the pairs of requests builds the
conflict table: ``meets[i]`` is the mask of the requests whose edges meet
request i's, i itself included.  A flood fill over the table splits the
requests into conflict components, and each component is searched
depth-first over its conflict-free subsets.  The search holds the
undecided requests that still fit beside the taken ones and decides the
highest of them: taking it drops every request it meets, leaving it out
drops only itself, so a request that no longer fits is never visited.
Leaving a request out before taking it meets the subsets in increasing
mask order; taking it first meets them in decreasing order.  The first
strict maximizer wins, and a branch stops once its weight plus the
weight of the requests that still fit, kept as they are dropped, cannot
beat the best so far.  A bound only prunes: a leaf counts only when it
beats the best strictly, so any valid bound gives the same witness.  Bit
positions of different components are disjoint, so the per-component
extremes combine into the overall one.  Two rules use the search:

* ``brute_force_opt`` ranks requests by normalized endpoints and keeps the
  smallest optimal mask;
* ``greediest_opt`` ranks them by presentation, the first-presented request
  being the highest bit, and keeps the largest optimal mask.  That is the
  optimum which keeps each request, in presentation order, whenever the
  requests kept so far and it still extend to an optimum.

On the 3x3 grid one search finds the optimum and one scan finds the
witness, both over the grid's route table.  ``_routable_size`` finds
sizes only, from lists of route masks (one list per request) that its
caller reads from the route table once: one depth-first search starts
with the mask of blocked edges as its used edges, routes or skips each
request in turn, stops once every request is routed, and drops a skip
that cannot beat the best size so far.  A caller that reads only the
optimum asks it, and no subset, routing or witness is built.
``max_allocatable`` asks it for the optimum of the requests sorted by
endpoints, then scans the subsets of that size in increasing mask order
and returns the first that routes: the smallest routable mask of the
largest routable size, the witness an increasing scan of all masks
keeps.  ``_routings`` folds the same lists into the edge mask of every
way to route all the requests, none if they do not.

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


class InstanceTooLargeError(PriodpaError, RuntimeError):
    """The instance exceeds the brute-force cap."""


# the size limit of every exact search, in requests
CAP = 22
# the grid routing searches' own, lower limit
GRID_CAP = 12


@dataclass(slots=True, unsafe_hash=True)
class OracleResult:
    optimum: int
    witness: Solution


def _conflicts(masks):
    """The conflict table: ``meets[i]`` is the mask of the requests whose
    edges meet request i's, with i itself included.  Each pair is tested
    once."""
    meets = []
    for i, m in enumerate(masks):
        row = 1 << i
        for j in range(i):
            if masks[j] & m:
                row |= 1 << j
                meets[j] |= 1 << i
        meets.append(row)
    return meets


def _components(meets):
    """The conflict graph's components as request masks, by flood fill over
    the table, in increasing order of their lowest request."""
    comps = []
    left = (1 << len(meets)) - 1
    while left:
        comp = grow = left & -left
        while grow:
            low = grow & -grow
            new = meets[low.bit_length() - 1] & ~comp
            comp |= new
            grow ^= low | new
        comps.append(comp)
        left ^= comp
    return comps


def _length(cut, ws):
    """The weight of the requests in the mask ``cut``, by length."""
    w = 0
    while cut:
        low = cut & -cut
        w += ws[low.bit_length() - 1]
        cut ^= low
    return w


def _count(cut, ws):
    """The weight of the requests in the mask ``cut``, by count."""
    return cut.bit_count()


def _walk(avail, gain, sub, rest, meets, ws, weigh, branches, best):
    """Decide the highest request of ``avail``, the mask of the undecided
    requests that still fit beside the taken ones.  The taken requests
    form the mask ``sub`` and weigh ``gain``; those of ``avail`` weigh
    ``rest``.  ``best`` holds the best weight so far and its mask.  Every
    piece of state is passed in, so the search makes no reference cycle
    for the collector to find."""
    j = avail.bit_length() - 1
    for take in branches:
        if take:
            cut = avail & meets[j]
            left, g, s, r = avail ^ cut, gain + ws[j], sub | 1 << j, rest - weigh(cut, ws)
        else:
            left, g, s, r = avail ^ 1 << j, gain, sub, rest - ws[j]
        if not left:
            if g > best[0]:
                best[0], best[1] = g, s
        # go on only while the requests that still fit could beat the best
        elif g + r > best[0]:
            _walk(left, g, s, r, meets, ws, weigh, branches, best)


def _check_cap(instance):
    if len(instance.requests) > CAP:
        raise InstanceTooLargeError(f"{len(instance.requests)} requests exceed the cap of {CAP}")


def _extreme_opt(graph, ranked, mode, largest):
    """Optimum over ``ranked`` (request i is bit i) and its extreme witness,
    listed by endpoints; ``ranked`` is already in that order unless
    ``largest`` (then it is a presentation order)."""
    masks = [r.mask for r in ranked]
    if mode == "count":
        ws, weigh = [1] * len(ranked), _count
    elif mode == "length":
        ws, weigh = [m.bit_count() for m in masks], _length
    else:
        raise InvalidParameterError(f"unknown gain mode {mode!r}")
    meets = _conflicts(masks)
    branches = (1, 0) if largest else (0, 1)
    total = chosen = 0
    for comp in _components(meets):
        best = [-1, 0]
        _walk(comp, 0, 0, weigh(comp, ws), meets, ws, weigh, branches, best)
        total += best[0]
        chosen |= best[1]
    witness = [r for i, r in enumerate(ranked) if chosen >> i & 1]
    if largest:
        witness.sort(key=lambda r: r.key)
    return OracleResult(total, Solution(graph, tuple(witness)))


def brute_force_opt(instance, mode="count"):
    """Exact optimum and its canonical witness, the smallest optimal mask
    over the requests sorted by normalized endpoints.

    ``CAP`` is the one size limit: an instance with more requests raises
    InstanceTooLargeError, whatever its conflict structure.  Grids also
    stop at ``GRID_CAP`` requests.
    """
    _check_cap(instance)
    if instance.graph.kind == "grid":
        if mode != "count":
            raise InvalidParameterError("grid oracle supports count gain only")
        return max_allocatable(instance.graph, instance.requests)
    return _extreme_opt(instance.graph, instance.requests, mode, largest=False)


def greediest_opt(instance, order, mode="count"):
    """The canonical optimum of a priority order: the largest optimal
    mask when the first-presented request is the highest bit."""
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


def _most(lists, n, i, used, got, best):
    """The larger of ``best`` and the most requests that route when ``got``
    of them already hold the edge mask ``used`` and the rest come from
    request i on.  ``lists[i]`` holds request i's route masks, and
    ``n`` is ``len(lists)``.  Every piece of state is passed in, as in
    ``_walk``."""
    if i == n:
        return max(got, best)
    for mask in lists[i]:
        if not used & mask:
            best = _most(lists, n, i + 1, used | mask, got + 1, best)
            if best == n:
                return best
    # skipping i routes at most the requests after it
    if got + n - i - 1 > best:
        best = _most(lists, n, i + 1, used, got, best)
    return best


def _routable_size(lists, blocked=0):
    """The size of the largest subset of the requests that routes on the
    grid's edges outside the mask ``blocked``, where ``lists[i]`` holds
    request i's route masks: ``max_allocatable``'s optimum, with no
    witness, when nothing is blocked."""
    if len(lists) > GRID_CAP:
        raise InstanceTooLargeError(f"grid routing search capped at {GRID_CAP} requests")
    return _most(lists, len(lists), 0, blocked, 0, 0)


def _routings(lists):
    """The edge masks of every way to route all the requests, where
    ``lists[i]`` holds request i's route masks; empty if they do not all
    route.  Routings over the same edges count once."""
    found = {0}
    for masks in lists:
        found = {u | m for u in found for m in masks if not u & m}
    return found


def max_allocatable(graph, requests):
    """Largest routable subset of ``requests`` on the grid.

    Returns an OracleResult, as ``brute_force_opt`` does, whose witness
    holds the routes.  Over endpoint-sorted requests (request i is bit i)
    it is the smallest routable mask of the largest routable size, routed
    by the first routing the depth-first search meets.  ``_routable_size``
    gives that size, and its masks are tried in increasing order, so the
    first subset that routes is that witness.
    """
    reqs = sorted(requests, key=lambda r: r.key)
    tables = [graph.routes(r.x, r.y) for r in reqs]
    size = _routable_size([list(t.values()) for t in tables])
    lists = [list(t.items()) for t in tables]
    # increasing masks: compare the highest bits first
    for picked in sorted(combinations(range(len(reqs)), size), key=lambda c: c[::-1]):
        alloc = []
        if _route([lists[i] for i in picked], 0, 0, alloc):
            accepted = tuple(reqs[i] for i in picked)
            return OracleResult(size, Solution(graph, accepted, dict(zip(accepted, alloc))))
