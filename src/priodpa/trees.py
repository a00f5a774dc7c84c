"""Call admission on trees with the call-count objective.

The priority order presents requests with deeper peaks first (the peak of a
request is the vertex of its path closest to the root, i.e. the endpoint
LCA), breaking depth ties toward the larger peak id, then putting requests
that *end* at their peak before those that merely pass through it.  Greedy
under this order is 2-competitive, optimal when no vertex has degree >= 4,
and the adversary below shows 2 is tight as soon as some vertex does.

The advice codec walks the same order phase by phase (a phase is a maximal
run of requests sharing a peak).  Endpoint-peak requests and whole phases
at peaks of degree <= 3 are handled greedily; at a degree >= 4 peak the
remaining child edges are labeled so that the two peak edges of each
optimal pass-through request carry the same strictly positive label, and
one field per remaining edge except the last (which is inferable) is
written to the tape.
"""

from __future__ import annotations

import heapq
from functools import partial
from math import ceil, log2

from .graphs import (
    InvalidParameterError,
    InvalidTreeError,
    PropertyViolation,
    Request,
    Solution,
)
from .engine import (
    AdviceWriter,
    Decision,
    GreedyAlgorithm,
    PriorityAlgorithm,
    PriorityOrder,
    adversary_game,
    encode_run,
    run,
)
from .oracle import greediest_opt


def cat_order(tree):
    """Deeper peaks first; ties to larger peak id; peak-endpoint requests
    before pass-through ones; then lexicographic endpoints."""

    def key(r):
        v = tree.lca(r.x, r.y)
        return (-tree.depth[v], -v, 0 if v == r.x or v == r.y else 1, r.x, r.y)

    return PriorityOrder(key, name="deep-peak")


def greedy_cat_algorithm():
    return GreedyAlgorithm(cat_order, "greedy-cat", mode="count")


_GREEDY_CAT = greedy_cat_algorithm()  # stateless, so shared by every run


def greedy_cat(instance):
    return run(_GREEDY_CAT, instance).solution


# --------------------------------------------------------------------------
# adversary: degree >= 4 forces ratio 2
# --------------------------------------------------------------------------


def tree_adversary(algorithm, tree):
    """Force ratio 2 (or infinity) around any vertex of degree >= 4.

    Six length-2 requests pair up the four smallest neighbours of the
    hub; whichever the algorithm ranks highest is served.  Accepting it
    blocks both of the follow-ups that together are optimal.
    """
    hubs = [v for v in range(tree.n) if tree.degree[v] >= 4]
    if not hubs:
        raise InvalidTreeError("tree adversary needs a vertex of degree >= 4")
    v0 = min(hubs)
    nb = list(tree.adj[v0])[:4]
    pairs = [Request(tree, a, b) for i, a in enumerate(nb) for b in nb[i + 1:]]
    return adversary_game(algorithm, tree, pairs, partial(_hub_answer, tree, nb))


def _hub_answer(tree, nb, r, first):
    """Answer an accepted pair r of the hub neighbours ``nb`` with the two
    requests that join r's ends to the other two: optimal together."""
    x, y = sorted(set(nb) - {r.x, r.y})
    followups = (Request(tree, r.x, x), Request(tree, r.y, y))
    return "hub", followups, Solution(tree, followups)


# --------------------------------------------------------------------------
# advice codec
# --------------------------------------------------------------------------


def _field_width(deg):
    # labels run 0..floor((deg-1)/2); at deg >= 4 this is >= 1 bit
    return max(1, ceil(log2((deg - 1) // 2 + 1)))


def _sides(tree, req, v):
    """The two child edges of v used by a pass-through request, as the
    child vertices below v on each side, smaller first."""
    mask = req.mask
    cx, cy = (c for c in tree.children[v] if mask >> c & 1)
    return cx, cy


def _remaining_children(tree, v, blocked_mask):
    return [c for c in tree.children[v] if not (blocked_mask >> c) & 1]


def _infer_last(read_labels):
    counts = {}
    for lab in read_labels:
        if lab > 0:
            counts[lab] = counts.get(lab, 0) + 1
    unpaired = [lab for lab, c in counts.items() if c == 1]
    return list(read_labels) + [unpaired[0] if unpaired else 0]


def tree_advice_bound(tree):
    """Total tape bound: sum over degree >= 4 vertices of
    (deg - 2) * ceil(log2(deg / 2)) bits."""
    return sum(
        (tree.degree[v] - 2) * _field_width(tree.degree[v])
        for v in range(tree.n)
        if tree.degree[v] >= 4
    )


def encode_cat_advice(instance):
    """Advice pinning the canonical optimum: the decoder runs with its
    labels computed from the optimum, writing the fields it would read."""
    tree = instance.graph
    if tree.kind != "tree":
        raise InvalidParameterError("this codec works on tree hosts")
    optimum = greediest_opt(instance, cat_order(tree), mode="count").accepted
    return encode_run(_CatAdviceEncoder(tree, optimum), instance, optimum)


class CatAdviceAlgorithm(PriorityAlgorithm):
    """Decoder for the phase-labeled tape."""

    name = "decode-cat"
    mode = "count"

    def initial_order(self, graph, advice):
        if graph.kind != "tree":
            raise InvalidParameterError("this codec works on tree hosts")
        self.peak = self.labels = None
        return cat_order(graph)

    def decide(self, request, state):
        tree = state.graph
        v = tree.lca(request.x, request.y)
        if self.peak != v:
            self.peak, self.labels = v, None
        fits = state.fits(request)
        if tree.degree[v] <= 3 or v == request.x or v == request.y:
            return Decision(request, fits)
        if self.labels is None:
            remaining = _remaining_children(tree, v, state.blocked_mask)
            fields = self.phase_fields(remaining, _field_width(tree.degree[v]), state.tape)
            self.labels = dict(zip(remaining, _infer_last(fields)))
        cx, cy = _sides(tree, request, v)
        lab = self.labels.get(cx, 0)
        return Decision(request, fits and lab > 0 and lab == self.labels.get(cy, 0))

    def phase_fields(self, remaining, width, advice):
        """The labels of all remaining child edges but the last."""
        return [advice.read_field(width) for _ in remaining[1:]]


class _CatAdviceEncoder(CatAdviceAlgorithm):
    """The decoder, with each phase's labels taken from ``optimum`` and
    written instead of read: the two peak edges of an optimal pass-through
    request share a label, numbered from 1 in order of the remaining
    edges, and every other edge is labeled 0."""

    name = "encode-cat"

    def __init__(self, tree, optimum):
        self.writer = AdviceWriter()
        self.pair_of = {}  # child vertex -> the optimal request through it
        for q in optimum:
            v = tree.lca(q.x, q.y)
            if v != q.x and v != q.y:
                for c in _sides(tree, q, v):
                    self.pair_of[c] = q

    def phase_fields(self, remaining, width, advice):
        numbered = {}
        labels = [numbered.setdefault(self.pair_of[c], len(numbered) + 1)
                  if c in self.pair_of else 0 for c in remaining]
        for lab in labels[:-1]:
            self.writer.write_field(lab, width)
        return labels[:-1]


# --------------------------------------------------------------------------
# packing edge-disjoint 4-stars
# --------------------------------------------------------------------------


def star_packing_demand(tree):
    """s(T) = sum over vertices of floor(deg / 4)."""
    return sum(tree.degree[v] // 4 for v in range(tree.n))


def sigma(tree):
    """The guaranteed packing size: ceil(s(T) / 2)."""
    return (star_packing_demand(tree) + 1) // 2


def pack_s4(tree):
    """Edge-disjoint 4-star copies, at least sigma(T) many, as a tuple of
    ``(centre, leaves)`` pairs.

    Repeatedly take the smallest-id degree >= 4 vertex with at most one
    degree >= 4 neighbour (a leaf of the induced high-degree forest — one
    always exists), cut floor(deg/4) stars from consecutive groups of its
    sorted neighbours, then delete the vertex.  Degrees only fall, so a
    ready vertex stays ready while its degree is >= 4: a heap of ready
    vertices and each vertex's count of high neighbours, updated around
    each deleted centre, find every next centre in one pass.
    """
    adj = {v: set(tree.adj[v]) for v in range(tree.n)}
    high = {v for v, nb in adj.items() if len(nb) >= 4}
    high_nbs = {v: sum(1 for w in nb if w in high) for v, nb in adj.items()}
    ready = [v for v in sorted(high) if high_nbs[v] <= 1]
    copies = []
    while high:
        while ready and ready[0] not in high:
            heapq.heappop(ready)
        if not ready:
            raise PropertyViolation("the induced forest of high-degree vertices must have a leaf")
        u = heapq.heappop(ready)
        nbs = sorted(adj[u])
        for j in range(len(nbs) // 4):
            copies.append((u, tuple(nbs[4 * j: 4 * j + 4])))
        high.discard(u)
        touched = list(nbs)
        for w in nbs:
            adj[w].discard(u)
            high_nbs[w] -= 1
            if w in high and len(adj[w]) < 4:
                high.discard(w)
                for x in adj[w]:
                    high_nbs[x] -= 1
                touched += adj[w]
        for v in touched:
            if v in high and high_nbs[v] <= 1:
                heapq.heappush(ready, v)
    if len(copies) < sigma(tree):
        raise PropertyViolation(f"{len(copies)} stars fall short of sigma = {sigma(tree)}")
    return tuple(copies)
