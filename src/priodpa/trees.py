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

from dataclasses import dataclass
from math import ceil, log2

from .graphs import (
    Instance,
    InvalidParameterError,
    InvalidTreeError,
    Request,
    Solution,
    edge_mask,
)
from .engine import (
    AdviceWriter,
    Decision,
    GreedyAlgorithm,
    PriorityAlgorithm,
    PriorityOrder,
    Session,
    adversary_outcome,
    decode_run,
    run,
)
from .oracle import greediest_opt


@dataclass(frozen=True)
class Peak:
    vertex: int
    is_endpoint: bool


def peak(tree, req):
    """The path vertex closest to the root: the LCA of the endpoints."""
    v = tree.lca(req.x, req.y)
    return Peak(v, v == req.x or v == req.y)


def cat_order(tree):
    """Deeper peaks first; ties to larger peak id; peak-endpoint requests
    before pass-through ones; then lexicographic endpoints."""

    def key(r):
        p = peak(tree, r)
        return (-tree.depth[p.vertex], -p.vertex, 0 if p.is_endpoint else 1, r.x, r.y)

    return PriorityOrder(key, name="deep-peak")


def greedy_cat_algorithm():
    return GreedyAlgorithm(cat_order, "greedy-cat", mode="count")


def greedy_cat(instance):
    return run(greedy_cat_algorithm(), instance).solution


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
    session = Session(algorithm, tree)
    r = session.max_of(pairs)
    first = session.feed(r)
    if not first.accept:
        return adversary_outcome(session, Instance(tree, (r,)), "rejected-first",
                                 Solution(tree, (r,)))
    p1, p2 = r.x, r.y
    x, y = sorted(set(nb) - {p1, p2})
    followups = (Request(tree, p1, x), Request(tree, p2, y))
    session.drain(followups)
    return adversary_outcome(session, Instance(tree, (r,) + followups), "hub",
                             Solution(tree, followups))


# --------------------------------------------------------------------------
# advice codec
# --------------------------------------------------------------------------


def _field_width(deg):
    # labels run 0..floor((deg-1)/2); at deg >= 4 this is >= 1 bit
    return max(1, ceil(log2((deg - 1) // 2 + 1)))


def _sides(tree, req, v):
    """The two child edges of v used by a pass-through request, as the
    child vertices below v on each side, smaller first."""
    mask = edge_mask(tree, req)
    cx, cy = (c for c in tree.children[v] if mask >> c & 1)
    return cx, cy


def _remaining_children(tree, v, blocked_mask):
    return [c for c in tree.children[v] if not (blocked_mask >> c) & 1]


def _infer_last(read_labels, n_v):
    if n_v == 0:
        return []
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
    """Advice pinning the canonical optimum; simulates the decoder so both
    sides derive identical remaining-edge lists from the shared decisions."""
    tree = instance.graph
    if tree.kind != "tree":
        raise InvalidParameterError("this codec works on tree hosts")
    order = cat_order(tree)
    opt_gr = set(greediest_opt(instance, order, mode="count").accepted)
    writer = AdviceWriter()
    mask = 0
    cur_peak = None
    labels = None  # per-phase {child: label}, None until first pass-through
    for r in order.sort(instance.requests):
        pk = peak(tree, r)
        if pk.vertex != cur_peak:
            cur_peak = pk.vertex
            labels = None
        v = pk.vertex
        fits = not (edge_mask(tree, r) & mask)
        if tree.degree[v] <= 3 or pk.is_endpoint:
            accept = fits
            assert accept == (r in opt_gr), "greedy sub-phase must match the canonical optimum"
        else:
            if labels is None:
                labels = _emit_phase_labels(tree, v, mask, opt_gr, writer)
            cx, cy = _sides(tree, r, v)
            lab = labels.get(cx, 0)
            accept = fits and lab > 0 and lab == labels.get(cy, 0)
            assert accept == (r in opt_gr), "label rule must match the canonical optimum"
        if accept:
            mask |= edge_mask(tree, r)
    return writer.tape()


def _emit_phase_labels(tree, v, mask, opt_gr, writer):
    remaining = _remaining_children(tree, v, mask)
    # which optimal pass-through requests peak here, and which child edges
    # serve optimal requests of *later* (shallower-peak) phases
    side_map = {}
    for q in opt_gr:
        pq = peak(tree, q)
        if pq.vertex == v and not pq.is_endpoint:
            cx, cy = _sides(tree, q, v)
            assert cx in remaining and cy in remaining
            side_map[cx] = q
            side_map[cy] = q
    later = 0
    for c in remaining:
        if c in side_map:
            continue
        for q in opt_gr:
            if tree.depth[peak(tree, q).vertex] < tree.depth[v] and (edge_mask(tree, q) >> c) & 1:
                later += 1
    assert later <= 1, "at most one remaining edge may serve a later phase"
    labels = {}
    numbered = {}
    for c in remaining:
        q = side_map.get(c)
        if q is None:
            labels[c] = 0
        else:
            if q not in numbered:
                numbered[q] = len(numbered) + 1
            labels[c] = numbered[q]
    width = _field_width(tree.degree[v])
    for c in remaining[:-1]:
        writer.write_field(labels[c], width)
    return labels


class CatAdviceAlgorithm(PriorityAlgorithm):
    """Decoder for the phase-labeled tape."""

    name = "decode-cat"
    mode = "count"

    def initial_order(self, graph, advice):
        if graph.kind != "tree":
            raise InvalidParameterError("this codec works on tree hosts")
        return cat_order(graph)

    def decide(self, request, state, advice):
        tree = state.graph
        pk = peak(tree, request)
        v = pk.vertex
        if state.scratch.get("peak") != v:
            state.scratch["peak"] = v
            state.scratch["labels"] = None
        fits = state.fits(request)
        if tree.degree[v] <= 3 or pk.is_endpoint:
            return Decision(request, fits)
        labels = state.scratch["labels"]
        if labels is None:
            remaining = _remaining_children(tree, v, state.blocked_mask)
            width = _field_width(tree.degree[v])
            read = [advice.read_field(width) for _ in range(max(len(remaining) - 1, 0))]
            labels = dict(zip(remaining, _infer_last(read, len(remaining))))
            state.scratch["labels"] = labels
        cx, cy = _sides(tree, request, v)
        lab = labels.get(cx, 0)
        return Decision(request, fits and lab > 0 and lab == labels.get(cy, 0))


def decode_run_cat(instance, tape):
    return decode_run(CatAdviceAlgorithm(), instance, tape).solution


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
    """Edge-disjoint 4-star copies, at least sigma(T) many.

    Repeatedly take the smallest-id degree >= 4 vertex with at most one
    degree >= 4 neighbour (a leaf of the induced high-degree forest — one
    always exists), cut floor(deg/4) stars from consecutive groups of its
    sorted neighbours, then delete the vertex.
    """
    adj = {v: set(tree.adj[v]) for v in range(tree.n)}
    copies = []
    while True:
        high = {v for v, nb in adj.items() if len(nb) >= 4}
        if not high:
            break
        eligible = [v for v in sorted(high) if sum(1 for w in adj[v] if w in high) <= 1]
        assert eligible, "the induced forest of high-degree vertices always has a leaf"
        u = eligible[0]
        nbs = sorted(adj[u])
        for j in range(len(nbs) // 4):
            copies.append((u, tuple(nbs[4 * j: 4 * j + 4])))
        for w in adj[u]:
            adj[w].discard(u)
        adj[u] = set()
    assert len(copies) >= sigma(tree)
    return tuple(copies)
