"""Shared generators for the test suite: Prufer-coded random trees,
canonical enumeration of small free trees, request sampling, the paths of
the committed instance files, and the walk-based reference geometry that
the library's edge masks are checked against."""

import heapq
import itertools
from functools import lru_cache
from pathlib import Path

from priodpa import Instance, Request, TreeGraph

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
    return range(graph.n)


def all_pairs(graph):
    ids = list(vertex_ids(graph))
    return [
        Request(graph, u, v)
        for i, u in enumerate(ids)
        for v in ids[i + 1:]
    ]


def root_walk(tree, v):
    """Vertices from v up to the root, following ``parent`` only."""
    walk = [v]
    while tree.parent[walk[-1]] is not None:
        walk.append(tree.parent[walk[-1]])
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
