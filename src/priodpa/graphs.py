"""Host graphs, requests, instances and solutions.

Three host graph families are supported:

* paths with ``l`` edges (vertices ``0..l``),
* arbitrary finite trees (vertices ``0..n-1``, rooted at the smallest-id
  leaf so that the root has degree 1),
* the 3x3 grid (vertices are ``(row, col)`` pairs), where call requests do
  not determine their routing.

A request is an unordered pair of distinct vertices, normalized so that the
smaller endpoint comes first.  On cycle-free hosts a request is identified
with the unique path between its endpoints; edge sets are represented as
bitmasks for speed (paths: bit i = edge {i, i+1}; trees: bit i = the edge
from vertex i to its parent).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import inf


class PriodpaError(Exception):
    """Base of every error this package raises on purpose."""


class InvalidRequestError(PriodpaError, ValueError):
    """Endpoints are not distinct host vertices, or hosts are mixed."""


class InvalidTreeError(PriodpaError, ValueError):
    """The edge list does not describe a tree on 0..n-1."""


class InvalidParameterError(PriodpaError, ValueError):
    """A numeric construction parameter is out of range."""


# --------------------------------------------------------------------------
# host graphs
# --------------------------------------------------------------------------


class PathGraph:
    """A path with ``length`` edges and vertices ``0..length``."""

    kind = "path"

    def __init__(self, length):
        # ``type(...) is int`` here and below also rejects bool: JSON true
        # must not pass as a length or vertex of 1
        if type(length) is not int or length < 1:
            raise InvalidParameterError("path length must be a positive integer")
        self.length = length

    @property
    def vertex_count(self):
        return self.length + 1

    def has_vertex(self, v):
        return type(v) is int and 0 <= v <= self.length

    def descriptor(self):
        return f"path:{self.length}"

    def __eq__(self, other):
        return isinstance(other, PathGraph) and other.length == self.length

    def __hash__(self):
        return hash(("path", self.length))

    def __repr__(self):
        return f"PathGraph({self.length})"


class TreeGraph:
    """A tree given by its edge list, rooted at the smallest-id leaf.

    Rooting at a leaf means the root never has degree >= 4, which the
    advice codec relies on: every high-degree vertex has a parent edge.
    """

    kind = "tree"

    def __init__(self, edges):
        if any(type(u) is not int or type(v) is not int for u, v in edges):
            raise InvalidTreeError("tree vertices must be integers")
        edges = [(u, v) if u < v else (v, u) for u, v in edges]
        n = len(edges) + 1
        seen = set()
        adj = {v: [] for v in range(n)}
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise InvalidTreeError(f"bad edge ({u}, {v}) for {n} vertices")
            if (u, v) in seen:
                raise InvalidTreeError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges = tuple(sorted(seen))
        self.adj = {v: tuple(sorted(nb)) for v, nb in adj.items()}
        self.degree = {v: len(self.adj[v]) for v in range(n)}
        if n == 1:
            raise InvalidTreeError("a tree needs at least one edge here")
        leaves = [v for v in range(n) if self.degree[v] == 1]
        if not leaves:
            raise InvalidTreeError("edge list contains a cycle")
        self.root = min(leaves)
        # BFS from the root; a tree must reach every vertex exactly once.
        parent = {self.root: None}
        depth = {self.root: 0}
        order = [self.root]
        for v in order:
            for w in self.adj[v]:
                if w not in parent:
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    order.append(w)
        if len(order) != n:
            raise InvalidTreeError("edge list is not connected")
        self.parent = parent
        self.depth = depth
        self.children = {v: tuple(w for w in self.adj[v] if parent[w] == v) for v in range(n)}

    def leaves(self):
        return tuple(v for v in range(self.n) if self.degree[v] == 1)

    def has_vertex(self, v):
        return type(v) is int and 0 <= v < self.n

    def lca(self, x, y):
        dx, dy = self.depth[x], self.depth[y]
        while dx > dy:
            x = self.parent[x]
            dx -= 1
        while dy > dx:
            y = self.parent[y]
            dy -= 1
        while x != y:
            x = self.parent[x]
            y = self.parent[y]
        return x

    def path_vertices(self, x, y):
        """Vertex sequence of the unique x-y path."""
        a = self.lca(x, y)
        up = []
        v = x
        while v != a:
            up.append(v)
            v = self.parent[v]
        down = []
        v = y
        while v != a:
            down.append(v)
            v = self.parent[v]
        return tuple(up + [a] + list(reversed(down)))

    def descriptor(self):
        return f"tree:{self.n}"

    def __eq__(self, other):
        return isinstance(other, TreeGraph) and other.edges == self.edges

    def __hash__(self):
        return hash(("tree", self.edges))

    def __repr__(self):
        return f"TreeGraph({list(self.edges)!r})"


class GridGraph:
    """A rows x cols grid; vertices are (row, col) pairs."""

    kind = "grid"

    def __init__(self, rows, cols):
        if not (type(rows) is int and type(cols) is int) or rows < 2 or cols < 2:
            raise InvalidParameterError("grid needs at least 2 rows and 2 columns")
        self.rows = rows
        self.cols = cols

    def vertices(self):
        return tuple((r, c) for r in range(self.rows) for c in range(self.cols))

    def has_vertex(self, v):
        return (
            isinstance(v, tuple)
            and len(v) == 2
            and type(v[0]) is int
            and type(v[1]) is int
            and 0 <= v[0] < self.rows
            and 0 <= v[1] < self.cols
        )

    def neighbors(self, v):
        r, c = v
        out = []
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < self.rows and 0 <= cc < self.cols:
                out.append((rr, cc))
        return tuple(out)

    def edge_list(self):
        out = []
        for v in self.vertices():
            for w in self.neighbors(v):
                if v < w:
                    out.append((v, w))
        return tuple(out)

    def descriptor(self):
        return f"grid:{self.rows}x{self.cols}"

    def __eq__(self, other):
        return isinstance(other, GridGraph) and (other.rows, other.cols) == (self.rows, self.cols)

    def __hash__(self):
        return hash(("grid", self.rows, self.cols))

    def __repr__(self):
        return f"GridGraph({self.rows}, {self.cols})"


def norm_edge(u, v):
    return (u, v) if u < v else (v, u)


# --------------------------------------------------------------------------
# requests
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """An unordered pair of distinct host vertices, stored as x < y."""

    graph: object
    x: object
    y: object

    def __post_init__(self):
        g = self.graph
        if not (g.has_vertex(self.x) and g.has_vertex(self.y)):
            raise InvalidRequestError(f"({self.x}, {self.y}) are not vertices of {g.descriptor()}")
        if self.x == self.y:
            raise InvalidRequestError("request endpoints must be distinct")
        if self.y < self.x:
            lo, hi = self.y, self.x
            object.__setattr__(self, "x", lo)
            object.__setattr__(self, "y", hi)

    @property
    def key(self):
        """Canonical lexicographic sort key (the Szpilrajn tie-break)."""
        return (self.x, self.y)

    def endpoints(self):
        return (self.x, self.y)

    def __repr__(self):
        return f"Request({self.x!r}, {self.y!r})"


def unique_path(graph, req):
    """Edges of the unique path between the endpoints, in walk order.

    Only defined on cycle-free hosts; grids raise InvalidRequestError.
    """
    if graph.kind == "path":
        return tuple((i, i + 1) for i in range(req.x, req.y))
    if graph.kind == "tree":
        vs = graph.path_vertices(req.x, req.y)
        return tuple((vs[i], vs[i + 1]) for i in range(len(vs) - 1))
    raise InvalidRequestError("requests on a grid do not determine a unique path")


def edge_mask(graph, req):
    """Bitmask of the request's path edges (cycle-free hosts only)."""
    if graph.kind == "path":
        return ((1 << req.y) - 1) ^ ((1 << req.x) - 1)
    if graph.kind == "tree":
        mask = 0
        a = graph.lca(req.x, req.y)
        for v in (req.x, req.y):
            while v != a:
                mask |= 1 << v
                v = graph.parent[v]
        return mask
    raise InvalidRequestError("edge masks are only defined on cycle-free hosts")


def edge_set(graph, req):
    """The request's path edges as a frozenset of normalized pairs."""
    return frozenset(norm_edge(u, v) for u, v in unique_path(graph, req))


def request_length(graph, req):
    if graph.kind == "path":
        return req.y - req.x
    if graph.kind == "tree":
        a = graph.lca(req.x, req.y)
        return graph.depth[req.x] + graph.depth[req.y] - 2 * graph.depth[a]
    raise InvalidRequestError("length on a grid depends on the chosen routing")


def intersects(r1, r2):
    """True if the two requests' unique paths share an edge."""
    if r1.graph != r2.graph:
        raise InvalidRequestError("requests live on different hosts")
    return bool(edge_mask(r1.graph, r1) & edge_mask(r2.graph, r2))


# --------------------------------------------------------------------------
# instances and solutions
# --------------------------------------------------------------------------


class Instance:
    """A finite set of requests on one host, kept sorted by endpoints."""

    def __init__(self, graph, requests):
        requests = tuple(requests)
        for r in requests:
            if r.graph != graph:
                raise InvalidRequestError("instance mixes host graphs")
        if len(set(requests)) != len(requests):
            raise InvalidRequestError("duplicate request in instance")
        self.graph = graph
        self.requests = tuple(sorted(requests, key=lambda r: r.key))

    def __len__(self):
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    def __contains__(self, r):
        return r in set(self.requests)

    def __eq__(self, other):
        return (
            isinstance(other, Instance)
            and other.graph == self.graph
            and other.requests == self.requests
        )

    def __hash__(self):
        return hash((self.graph, self.requests))

    def __repr__(self):
        return f"Instance({self.graph!r}, {len(self.requests)} requests)"


@dataclass(frozen=True)
class Solution:
    """An accepted subset; on grids, explicit edge-disjoint allocations."""

    graph: object
    accepted: tuple
    allocations: object = None  # grid: {Request: (edge, ...)} in walk order

    def __len__(self):
        return len(self.accepted)


def gain(solution, mode="count"):
    """Objective value: number of accepted calls, or total edge length."""
    if mode == "count":
        return len(solution.accepted)
    if mode != "length":
        raise InvalidParameterError(f"unknown gain mode {mode!r}")
    g = solution.graph
    if g.kind == "grid":
        return sum(len(solution.allocations[r]) for r in solution.accepted)
    return sum(request_length(g, r) for r in solution.accepted)


def ratio(opt, alg):
    """Exact competitive ratio opt/alg; infinite when the algorithm gained nothing."""
    return inf if alg == 0 else Fraction(opt, alg)


def _walk_ok(graph, req, alloc):
    # alloc must be a simple path from req.x to req.y over host edges
    if not alloc:
        return False
    vs = [alloc[0][0]]
    for u, v in alloc:
        if norm_edge(u, v) not in set(graph.edge_list()):
            return False
        if u != vs[-1]:
            return False
        vs.append(v)
    if len(set(vs)) != len(vs):
        return False
    return {vs[0], vs[-1]} == {req.x, req.y}


def validate_solution(instance, solution):
    """Check acceptance subset-ness and pairwise edge-disjointness."""
    if solution.graph != instance.graph:
        return False
    pool = set(instance.requests)
    if any(r not in pool for r in solution.accepted):
        return False
    if len(set(solution.accepted)) != len(solution.accepted):
        return False
    g = instance.graph
    if g.kind == "grid":
        if solution.allocations is None:
            return False
        used = set()
        for r in solution.accepted:
            alloc = solution.allocations.get(r)
            if alloc is None or not _walk_ok(g, r, alloc):
                return False
            es = {norm_edge(u, v) for u, v in alloc}
            if used & es:
                return False
            used |= es
        return True
    mask = 0
    for r in solution.accepted:
        m = edge_mask(g, r)
        if mask & m:
            return False
        mask |= m
    return True


# --------------------------------------------------------------------------
# JSON serialization
# --------------------------------------------------------------------------


def graph_to_json(graph):
    if graph.kind == "path":
        return {"kind": "path", "length": graph.length}
    if graph.kind == "tree":
        return {"kind": "tree", "edges": [list(e) for e in graph.edges]}
    return {"kind": "grid", "rows": graph.rows, "cols": graph.cols}


def _fields(obj, what, *names):
    """The named fields of a JSON object, or InvalidParameterError."""
    if not isinstance(obj, dict) or any(n not in obj for n in names):
        raise InvalidParameterError(f"{what} must be a JSON object with fields {', '.join(names)}")
    return [obj[n] for n in names]


def _pairs(obj, what, error):
    """A JSON list of two-element lists, as tuples."""
    if not isinstance(obj, list) or any(not isinstance(p, list) or len(p) != 2 for p in obj):
        raise error(f"{what} must be a list of two-element lists")
    return [tuple(p) for p in obj]


def graph_from_json(obj):
    (kind,) = _fields(obj, "a graph", "kind")
    if kind == "path":
        return PathGraph(*_fields(obj, "a path", "length"))
    if kind == "tree":
        (edges,) = _fields(obj, "a tree", "edges")
        return TreeGraph(_pairs(edges, "tree edges", InvalidTreeError))
    if kind == "grid":
        return GridGraph(*_fields(obj, "a grid", "rows", "cols"))
    raise InvalidParameterError(f"unknown graph kind {kind!r}")


def _endpoint_to_json(graph, v):
    return list(v) if graph.kind == "grid" else v


def _endpoint_from_json(graph, v):
    # non-list grid endpoints stay as they are and fail Request's vertex check
    return tuple(v) if graph.kind == "grid" and isinstance(v, list) else v


def instance_to_json(instance):
    g = instance.graph
    return {
        "graph": graph_to_json(g),
        "requests": [
            [_endpoint_to_json(g, r.x), _endpoint_to_json(g, r.y)] for r in instance.requests
        ],
    }


def instance_from_json(obj):
    graph, requests = _fields(obj, "an instance", "graph", "requests")
    g = graph_from_json(graph)
    reqs = [
        Request(g, _endpoint_from_json(g, a), _endpoint_from_json(g, b))
        for a, b in _pairs(requests, "requests", InvalidRequestError)
    ]
    return Instance(g, reqs)


def load_instance(path):
    with open(path) as fh:
        return instance_from_json(json.load(fh))


def dump_instance(instance, path):
    with open(path, "w") as fh:
        json.dump(instance_to_json(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")


def instance_hash(instance):
    """Stable 12-hex-digit digest of the canonical instance JSON."""
    blob = json.dumps(instance_to_json(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
