"""Shared generators for the test suite: Prufer-coded random trees,
canonical enumeration of small free trees, request sampling, the paths of
the committed instance files, a key wrapper that counts its evaluations,
a ``Request.__init__`` patch that counts the requests built,
the field names of a value type and a copy of a value with changed fields,
the walk-based reference geometry that the library's edge masks are
checked against, the neighbour-scan case analysis of a served 3x3 route,
the negated-key sort that reversed orders are checked against, the plain
subset scans that the oracle's canonical witnesses are checked against,
the breadth-first search that a tree's derived attributes are checked
against, the prefix reruns that show an algorithm never looks ahead,
the depth-first route enumeration, walk check, subset-and-product
routing scan and full-routing product that the grid's route table and
oracle are checked against, and the round-by-round string-guessing game
and pass-by-pass 4-star packing that the ranked game and the one-pass
packing are checked against."""

import heapq
import itertools
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

from priodpa import (
    AdviceTape, Instance, InvalidOrderError, PropertyViolation, Request, Session, TreeGraph, run,
)
from priodpa.graphs import PathGraph, gain, ratio
from priodpa.reduction import BlockRecord, _parse_bits
from priodpa.trees import sigma

# Instance files under tests/data, found from this file so the suite runs
# from any working directory. DEMO is the README's 15-edge LWDPA instance;
# CATERPILLAR is graph_to_json(fig9_tree(2)).
DATA = Path(__file__).parent / "data"
DEMO = str(DATA / "lwdpa-demo.json")
CATERPILLAR = str(DATA / "caterpillar2.json")


def prufer_decode(seq, n):
    """Edge list of the labeled tree on vertices 0..n-1 with Prufer code seq."""
    if n < 2:
        raise ValueError("need at least two vertices")
    if n == 2:
        return [(0, 1)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_tree(n, rng):
    if n == 2:
        return TreeGraph([(0, 1)])
    return TreeGraph(prufer_decode([rng.randrange(n) for _ in range(n - 2)], n))


def random_high_degree_tree(n, rng):
    """Random tree on n >= 5 vertices with at least one vertex of degree >= 4."""
    while True:
        t = random_tree(n, rng)
        if max(t.degree[v] for v in range(t.n)) >= 4:
            return t


def _canonical_code(edges, n):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    work = {v: set(a) for v, a in adj.items()}
    layer = [v for v in range(n) if len(work[v]) <= 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            remaining -= 1
            for u in work[v]:
                work[u].discard(v)
                if len(work[u]) == 1:
                    nxt.append(u)
            work[v].clear()
        layer = nxt

    def code(v, parent):
        return "(" + "".join(sorted(code(c, v) for c in adj[v] if c != parent)) + ")"

    return min(code(c, None) for c in layer)


@lru_cache(maxsize=None)
def canonical_trees(n):
    """One labeled representative per isomorphism class of trees on n vertices."""
    if n == 2:
        return ([(0, 1)],)
    seen = {}
    for seq in itertools.product(range(n), repeat=n - 2):
        edges = prufer_decode(seq, n)
        key = _canonical_code(edges, n)
        if key not in seen:
            seen[key] = edges
    return tuple(seen.values())


def vertex_ids(graph):
    if graph.kind == "path":
        return range(graph.length + 1)
    if graph.kind == "grid":
        return graph.vertices()
    return range(graph.n)


def all_pairs(graph):
    ids = list(vertex_ids(graph))
    return [
        Request(graph, u, v)
        for i, u in enumerate(ids)
        for v in ids[i + 1:]
    ]


@lru_cache(maxsize=None)
def reference_tree(edges):
    """Reference for ``TreeGraph``'s derived attributes, from its edge
    pairs alone: ``adj``, ``degree``, ``parent``, ``children`` and
    ``depth`` as dicts keyed by vertex, found by a breadth-first search
    from the smallest-id leaf.  Neighbours and children are sorted tuples,
    and the root's parent is None."""
    n = len(edges) + 1
    nbrs = {v: set() for v in range(n)}
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    root = min(v for v in range(n) if len(nbrs[v]) == 1)
    parent, depth, queue = {root: None}, {root: 0}, [root]
    while queue:
        v = queue.pop(0)
        for w in sorted(nbrs[v] - set(parent)):
            parent[w], depth[w] = v, depth[v] + 1
            queue.append(w)
    return SimpleNamespace(
        adj={v: tuple(sorted(nbrs[v])) for v in range(n)},
        degree={v: len(nbrs[v]) for v in range(n)},
        parent=parent,
        children={v: tuple(sorted(w for w in nbrs[v] if parent[w] == v)) for v in range(n)},
        depth=depth,
    )


def root_walk(tree, v):
    """Vertices from v up to the root, following the parents of
    ``reference_tree``, so the walk never reads the tree's own masks."""
    parent = reference_tree(tree.edges).parent
    walk = [v]
    while parent[walk[-1]] is not None:
        walk.append(parent[walk[-1]])
    return walk


def path_edges(graph, req):
    """Edges of the request's unique path in walk order from x to y: an
    interval on a path, two parent walks that meet at their first common
    vertex on a tree."""
    if graph.kind == "path":
        return tuple((i, i + 1) for i in range(req.x, req.y))
    wx, wy = root_walk(graph, req.x), root_walk(graph, req.y)
    top = next(v for v in wx if v in wy)
    vs = wx[:wx.index(top) + 1] + wy[:wy.index(top)][::-1]
    return tuple(zip(vs, vs[1:]))


def edge_set(graph, req):
    """The request's path edges as a frozenset of (smaller, larger) pairs."""
    return frozenset((min(e), max(e)) for e in path_edges(graph, req))


def random_instance(graph, max_requests, rng):
    pairs = all_pairs(graph)
    k = rng.randint(0, min(max_requests, len(pairs)))
    return Instance(graph, rng.sample(pairs, k))


def counting_key(base):
    """``base`` wrapped to count its calls, and the one-item list holding
    the count, which a test may reset."""
    evals = [0]

    def key(r):
        evals[0] += 1
        return base(r)

    return key, evals


def count_requests(monkeypatch):
    """Patch ``Request.__init__`` through ``monkeypatch`` to count the
    requests built from now on, and return the one-item list holding the
    count."""
    built, real_init = [0], Request.__init__

    def counted_init(self, *args):
        built[0] += 1
        real_init(self, *args)

    monkeypatch.setattr(Request, "__init__", counted_init)
    return built


def value_fields(value):
    """The field names of ``value``, one of the package's value types, in
    order: its class's ``__slots__``, less the memo slots, whose names start
    with an underscore."""
    return tuple(name for name in type(value).__slots__ if not name.startswith("_"))


def replaced(value, **changes):
    """A copy of ``value`` built by its own constructor, with ``changes``
    to its fields; a name that is not a field raises TypeError."""
    names = value_fields(value)
    unknown = set(changes).difference(names)
    if unknown:
        raise TypeError(f"{type(value).__name__} has no field {', '.join(sorted(unknown))}")
    return type(value)(**{name: changes.get(name, getattr(value, name)) for name in names})


def reference_sort(key, name, requests, negate):
    """``requests`` ranked by the rule reversed orders once followed: a
    stable sort by ``key``, with every entry of the key tuple negated when
    ``negate`` holds.  A tie anywhere raises InvalidOrderError naming the
    order ``name`` and the first tied pair in presentation order, as
    ``PriorityOrder.rank`` does."""
    items = list(requests)
    keys = [tuple(-k for k in key(r)) if negate else key(r) for r in items]
    idx = sorted(range(len(items)), key=keys.__getitem__)
    for a, b in zip(idx, idx[1:]):
        if not keys[a] < keys[b]:
            raise InvalidOrderError(f"{name}: {items[a]} and {items[b]} are not strictly ordered")
    return [items[i] for i in idx]


def scan_opt(requests, mode):
    """Reference oracle: scan every subset of ``requests`` (request i is
    bit i) by increasing mask; return the optimum and every optimal subset
    as such a mask, in increasing order, so the first is the smallest."""
    reqs = list(requests)
    masks = [r.mask for r in reqs]
    weights = [1 if mode == "count" else r.mask.bit_count() for r in reqs]
    used = [0] * (1 << len(reqs))   # edges of each subset, or -1 on a conflict
    total = [0] * (1 << len(reqs))
    best, optima = 0, [0]
    for sub in range(1, 1 << len(reqs)):
        j = (sub & -sub).bit_length() - 1
        rest = sub & (sub - 1)
        if used[rest] < 0 or used[rest] & masks[j]:
            used[sub] = -1
            continue
        used[sub] = used[rest] | masks[j]
        total[sub] = total[rest] + weights[j]
        if total[sub] > best:
            best, optima = total[sub], [sub]
        elif total[sub] == best:
            optima.append(sub)
    return best, optima


def prefix_walk_greediest(requests, order, optima):
    """Reference for greediest_opt: walk the presentation sequence and keep
    a request when some optimal subset contains it and every kept request.
    ``optima`` is the list of optimal subsets ``scan_opt(requests, mode)``
    returns, and the walk filters it down to the subsets that stay."""
    index = {r: i for i, r in enumerate(requests)}
    chosen = []
    for r in order.sort(requests):
        bit = 1 << index[r]
        kept = [sub for sub in optima if sub & bit]
        if kept:
            optima = kept
            chosen.append(r)
    return sorted(chosen, key=lambda r: r.key)


def simple_paths(graph, x, y):
    """Reference for ``GridGraph.routes``: every simple x-y path as a tuple
    of (u, v) edges, found depth-first and sorted by vertex sequence.  The
    search runs once per (graph, x, y); each call returns a fresh list."""
    return list(_simple_paths(graph, x, y))


@lru_cache(maxsize=None)
def _simple_paths(graph, x, y):
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
    return tuple(sorted(paths))


def walk_ok(graph, req, walk):
    """Reference for ``GridGraph.route_mask``: is ``walk`` a simple path
    from one endpoint of ``req`` to the other over host edges?"""
    if not walk:
        return False
    edges = set(graph.edge_list())
    vs = [walk[0][0]]
    for u, v in walk:
        if u != vs[-1] or not ((u, v) in edges or (v, u) in edges):
            return False
        vs.append(v)
    return len(set(vs)) == len(vs) and {vs[0], vs[-1]} == {req.x, req.y}


def reference_served_case(req, route):
    """Reference for ``grid._served_case``, from its own 3x3 adjacency: the
    walk of ``route`` from the corner endpoint of ``req``, its case, and its
    follow-ups' endpoint pairs, found by scanning neighbours.  A walk through
    the center (1, 1) enters it from a midpoint t, reached from a corner u;
    one that avoids it turns at the corner c two steps along."""
    def nbs(v):
        return {(v[0] + dr, v[1] + dc) for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
                if 0 <= v[0] + dr <= 2 and 0 <= v[1] + dc <= 2}

    def far(v):
        return (2 - v[0], 2 - v[1])

    corners = {(0, 0), (0, 2), (2, 0), (2, 2)}
    mids = {(0, 1), (1, 0), (1, 2), (2, 1)}
    vs = [route[0][0]] + [v for _, v in route]
    if vs[0] not in corners:
        vs = vs[::-1]
    assert vs[0] in corners and vs[-1] in mids
    if (1, 1) in vs:
        t = vs[vs.index((1, 1)) - 1]
        u = vs[vs.index(t) - 1]
        (t_prime,) = nbs(t) & corners - {u}
        (other_mid,) = nbs(u) & mids - {t}
        return tuple(vs), "center", ((t, far(t_prime)), (t, far(u)), (t_prime, other_mid))
    c = vs[2]
    assert c in corners
    return tuple(vs), "corner", tuple((c, m) for m in sorted(nbs(far(c)) & mids))


def reference_max_allocatable(graph, requests, blocked=0):
    """Reference for ``max_allocatable``: scan every subset of the
    endpoint-sorted requests (request i is bit i) by increasing mask and
    keep the first one of each larger size that routes.  A subset routes
    when the product of its requests' ``simple_paths`` that avoid the edge
    mask ``blocked`` (bit i is ``edge_list()[i]``) holds an edge-disjoint
    choice; the first such choice in product order is its routing.  The
    product is built one request at a time, dropping every partial choice
    that reuses an edge, so a subset that cannot route stays cheap."""
    reqs = sorted(requests, key=lambda r: r.key)
    bit = {frozenset(e): 1 << i for i, e in enumerate(graph.edge_list())}
    paths = []
    for r in reqs:
        free = []
        for p in simple_paths(graph, r.x, r.y):
            edges = frozenset(frozenset(e) for e in p)
            if not any(bit[e] & blocked for e in edges):
                free.append((p, edges))
        paths.append(free)
    best = (0, (), {})
    for sub in range(1 << len(reqs)):
        picked = [i for i in range(len(reqs)) if sub >> i & 1]
        if len(picked) <= best[0]:
            continue
        choices = [((), frozenset())]
        for i in picked:
            choices = [(c + (p,), used | edges) for c, used in choices
                       for p, edges in paths[i] if used.isdisjoint(edges)]
        if choices:
            accepted = tuple(reqs[i] for i in picked)
            best = (len(picked), accepted, dict(zip(accepted, choices[0][0])))
    return best


def reference_routings(graph, requests):
    """Reference for ``oracle._routings``: the edge mask (bit i is
    ``edge_list()[i]``) of each edge-disjoint choice in the product of the
    requests' ``simple_paths``, built one request at a time and dropping
    every partial choice that reuses an edge; empty when none routes all."""
    bit = {frozenset(e): 1 << i for i, e in enumerate(graph.edge_list())}
    choices = [frozenset()]
    for r in requests:
        paths = [frozenset(frozenset(e) for e in p) for p in simple_paths(graph, r.x, r.y)]
        choices = [used | edges for used in choices for edges in paths if used.isdisjoint(edges)]
    return {sum(bit[e] for e in used) for used in choices}


def reference_pack_s4(tree):
    """Reference for ``pack_s4``: every pass recomputes the high-degree set
    and takes its smallest vertex with at most one high neighbour."""
    adj = {v: set(tree.adj[v]) for v in range(tree.n)}
    copies = []
    while True:
        high = {v for v, nb in adj.items() if len(nb) >= 4}
        if not high:
            break
        eligible = [v for v in sorted(high) if sum(1 for w in adj[v] if w in high) <= 1]
        if not eligible:
            raise PropertyViolation("the induced forest of high-degree vertices must have a leaf")
        u = eligible[0]
        nbs = sorted(adj[u])
        for j in range(len(nbs) // 4):
            copies.append((u, tuple(nbs[4 * j: 4 * j + 4])))
        for w in adj[u]:
            adj[w].discard(u)
        adj[u] = set()
    if len(copies) < sigma(tree):
        raise PropertyViolation(f"{len(copies)} stars fall short of sigma = {sigma(tree)}")
    return tuple(copies)


def _presented_triples(algorithm, instance, bits):
    log = run(algorithm, instance, AdviceTape(bits)).log
    return [(d.request, d.accept, d.allocation) for d in log]


def first_lookahead(algorithm, instance, bits=""):
    """The no-lookahead check.  Run ``algorithm`` on ``instance`` with the
    advice tape ``bits`` and record its presented (request, accept,
    allocation) triples.  Then, for each k from 1 up to the whole
    instance, rerun the same algorithm object on the instance cut to its
    first k presented requests, with the same tape.  An algorithm that
    decides each request before it sees a later one, and carries nothing
    from one run to the next, gives the first k triples every time.
    Return the first k whose rerun differs, or None."""
    full = _presented_triples(algorithm, instance, bits)
    presented = [r for r, _, _ in full]
    for k in range(1, len(full) + 1):
        if _presented_triples(algorithm, Instance(instance.graph, presented[:k]), bits) != full[:k]:
            return k
    return None


def _reference_drain_and_pick(session, upcoming, queue, served):
    while True:
        m = session.max_of(list(upcoming) + list(queue))
        if m in queue:
            session.feed(m)
            served.append(m)
            queue.remove(m)
        else:
            return m


def reference_guessing_game(algorithm, graph, blocks, hidden, block_opt, mode, zero_followups):
    """Reference for the ranked game: every round asks ``Session.max_of``
    for the top of all fresh and queued requests, feeds queued ones while
    they are on top, and drains what is queued at the end.  It returns the
    fields a game's outcome is compared on, with the wrong guesses counted
    here from the guesses and hidden bits, not by the outcome's property."""
    block_of = {}
    complement = {}
    for i, block in enumerate(blocks, start=1):
        masks = {r: r.mask for r in block}
        full = 0
        for mask in masks.values():
            full |= mask
        by_mask = {mask: r for r, mask in masks.items()}
        for r in block:
            block_of[r] = i
            complement[r] = by_mask[full ^ masks[r]]

    session = Session(algorithm, graph)
    upcoming = {r for blk in blocks for r in blk}
    queue = set()
    served = []
    meta = []
    for d in hidden:
        m = _reference_drain_and_pick(session, upcoming, queue, served)
        i = block_of[m]
        upcoming -= set(blocks[i - 1])
        decision = session.feed(m)
        served.append(m)
        y = 1 if decision.accept else 0
        if d == 1:
            queue.add(complement[m])
        else:
            queue.update(zero_followups(set(blocks[i - 1]) - {m, complement[m]}))
        meta.append((i, m, y, d))
    served.extend(session.drain(queue))

    sol = session.result().solution
    per_block = [0] * (len(blocks) + 1)
    for r in sol.accepted:
        per_block[block_of[r]] += 1 if mode == "count" else r.mask.bit_count()
    records = tuple(
        BlockRecord(k, m, y, d, y == d, per_block[k], block_opt) for (k, m, y, d) in meta
    )
    alg = gain(sol, mode)
    opt = block_opt * len(hidden)
    wrong = sum(1 for _, _, y, d in meta if y != d)
    return SimpleNamespace(instance=Instance(graph, served), records=records, alg_gain=alg,
                           opt_gain=opt, wrong=wrong, ratio=ratio(opt, alg))


def reference_run_guess(algorithm, bits):
    """``run_guess`` played by ``reference_guessing_game``."""
    hidden = _parse_bits(bits)
    g = PathGraph(3 * len(hidden))
    blocks = [
        (Request(g, b, b + 1), Request(g, b, b + 2), Request(g, b + 1, b + 3), Request(g, b + 2, b + 3))
        for b in range(0, 3 * len(hidden), 3)
    ]
    return reference_guessing_game(algorithm, g, blocks, hidden, 3, "length", lambda rest: rest)


def _reference_first_disjoint_pair(rest):
    rest = sorted(rest, key=lambda r: r.key)
    for a_i, a in enumerate(rest):
        for b in rest[a_i + 1:]:
            if not set(a.key) & set(b.key):
                return (a, b)


def reference_run_tguess(algorithm, tree, bits):
    """``run_tguess`` played by ``reference_guessing_game`` on the stars of
    ``reference_pack_s4``."""
    hidden = _parse_bits(bits)
    blocks = [
        tuple(Request(tree, a, b) for i, a in enumerate(leaves) for b in leaves[i + 1:])
        for _, leaves in reference_pack_s4(tree)[:len(hidden)]
    ]
    return reference_guessing_game(algorithm, tree, blocks, hidden, 2, "count",
                                   _reference_first_disjoint_pair)


# A two-level caterpillar whose request peaks sit at three different depths,
# used to pin down the presentation order on trees.
NESTED_EDGES = [
    (0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (2, 7), (2, 8),
    (5, 11), (7, 12), (7, 13), (4, 9), (4, 10),
]

# A tree with a single degree-8 hub behind a short handle; the advice encoder
# emits exactly one phase of labeled fields for it.
HUB_EDGES = [
    (0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
    (3, 9), (3, 10), (4, 11), (6, 12), (6, 13), (9, 14), (10, 15),
]

STAR4_EDGES = [(0, 1), (0, 2), (0, 3), (0, 4)]
