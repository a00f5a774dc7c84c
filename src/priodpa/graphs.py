"""Host graphs, requests, instances and solutions.

Three host graph families are supported:

* paths with ``l`` edges (vertices ``0..l``),
* arbitrary finite trees (vertices ``0..n-1``, rooted at the smallest-id
  leaf so that the root has degree 1),
* the 3x3 grid (vertices are ``(row, col)`` pairs), where call requests do
  not determine their routing.

A request is an unordered pair of distinct vertices, normalized so that the
smaller endpoint comes first.  Each host owns the edges an acceptance
allocates: ``path_mask(x, y)`` is the mask of the unique x-y path, stored
once per request as ``Request.mask`` (``None`` on the grid, where the
algorithm picks the route), and ``route_mask(request, route)`` is the mask
of accepting along ``route`` (the request's own mask on a path or tree,
whatever the route).  Every edge set is an int bitmask, built only here:

* paths: bit i is the edge {i, i+1};
* trees: bit v is the edge from vertex v to its parent.  ``up[v]`` is the
  mask of the path from v to the root, so ``up[x] & up[y]`` is the root path
  of the endpoints' LCA and ``up[x] ^ up[y]`` is the x-y path itself;
* the grid: bit i is ``edge_list()[i]``, in either direction.  Its route
  table is the one place a grid route is enumerated, validated and masked:
  ``routes(x, y)`` maps each simple x-y route to its mask, and
  ``route_mask`` is the mask of a route of the request in either
  direction, or 0 for anything else.  There is one 3x3 grid, so there is
  one table, ``_GRID_ROUTES``, shared by every ``GridGraph``.  It is
  filled one pair of distinct vertices at a time, on first use (at most
  72 entries), by walking a fixed step table: for each vertex, each step
  as (neighbour, the neighbour's vertex bit, the edge's bit, the edge).
  The walk keeps its visited vertices as a bitmask and builds a route
  tuple only when it reaches the far endpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import inf
from operator import attrgetter
from types import MappingProxyType

# SHA-256 from CPython's built-in module, as ``random`` takes its sha512:
# ``hashlib`` would map OpenSSL's libcrypto, several MB resident, for a few
# short digests.  The module is ``_sha256`` up to Python 3.11 and ``_sha2``
# from 3.12; ``hashlib`` is left for an interpreter built without either.
try:
    try:
        from _sha256 import sha256
    except ImportError:
        from _sha2 import sha256
except ImportError:
    from hashlib import sha256


class PriodpaError(Exception):
    """Base of every error this package raises on purpose."""


class InvalidRequestError(PriodpaError, ValueError):
    """Endpoints are not distinct host vertices, or hosts are mixed."""


class InvalidTreeError(PriodpaError, ValueError):
    """The edge list does not describe a tree on 0..n-1."""


class InvalidParameterError(PriodpaError, ValueError):
    """A numeric construction parameter is out of range."""


class PropertyViolation(PriodpaError, RuntimeError):
    """A property the package proves or checks failed on a run."""


# --------------------------------------------------------------------------
# host graphs
# --------------------------------------------------------------------------


class _CycleFreeHost:
    """Paths and trees: a request's one route is its path, so ``route_mask``
    ignores the route and a solution carries no routes."""

    def route_mask(self, request, route):
        return request.mask

    def route_masks(self, solution):
        return [r.mask for r in solution.accepted]

    def solution(self, decisions):
        """The Solution of the accepted ``decisions``, in their order."""
        return Solution(self, tuple([d.request for d in decisions if d.accept]))


class PathGraph(_CycleFreeHost):
    """A path with ``length`` edges and vertices ``0..length``."""

    kind = "path"

    def __init__(self, length):
        # ``type(...) is int`` here and below also rejects bool: JSON true
        # must not pass as a length or vertex of 1
        if type(length) is not int or length < 1:
            raise InvalidParameterError("path length must be a positive integer")
        self.length = length

    def has_vertex(self, v):
        return type(v) is int and 0 <= v <= self.length

    def path_mask(self, x, y):
        return ((1 << y) - 1) ^ ((1 << x) - 1)

    def descriptor(self):
        return f"path:{self.length}"

    def __eq__(self, other):
        return other is self or (isinstance(other, PathGraph) and other.length == self.length)

    def __hash__(self):
        return hash(("path", self.length))

    def __repr__(self):
        return f"PathGraph({self.length})"


class TreeGraph(_CycleFreeHost):
    """A tree given by its edge list, rooted at the smallest-id leaf.

    Rooting at a leaf means the root never has degree >= 4, which the
    advice codec relies on: every high-degree vertex has a parent edge.
    """

    kind = "tree"

    def __init__(self, edges):
        if any(type(u) is not int or type(v) is not int for u, v in edges):
            raise InvalidTreeError("tree vertices must be integers")
        n = len(edges) + 1
        if n == 1:
            raise InvalidTreeError("a tree needs at least one edge here")
        seen = set()
        for u, v in edges:
            if v < u:
                u, v = v, u
            if u == v or u < 0 or v >= n:
                raise InvalidTreeError(f"bad edge ({u}, {v}) for {n} vertices")
            if (u, v) in seen:
                raise InvalidTreeError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        self.n = n
        self.edges = edges = tuple(sorted(seen))
        self._hash = hash(("tree", edges))
        # in sorted edge order each vertex meets its smaller neighbours
        # first, then its larger ones, each in increasing order
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = {v: tuple(nb) for v, nb in enumerate(adj)}
        self.degree = {v: len(nb) for v, nb in enumerate(adj)}
        root = next((v for v, nb in enumerate(adj) if len(nb) == 1), None)
        if root is None:
            raise InvalidTreeError("edge list contains a cycle")
        self.root = root
        # BFS from the root; a tree must reach every vertex exactly once.
        parent = {root: None}
        depth = {root: 0}
        up = [0] * n
        order = [root]
        for v in order:
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    up[w] = up[v] | 1 << w
                    order.append(w)
        if len(order) != n:
            raise InvalidTreeError("edge list is not connected")
        self.parent = parent
        self.depth = depth
        self.up = up
        self._vertex_of_up = {mask: v for v, mask in enumerate(up)}

    @cached_property
    def children(self):
        """Each vertex's children, in increasing order."""
        parent = self.parent
        return {v: tuple(w for w in nb if parent[w] == v) for v, nb in self.adj.items()}

    def has_vertex(self, v):
        return type(v) is int and 0 <= v < self.n

    def path_mask(self, x, y):
        return self.up[x] ^ self.up[y]

    def lca(self, x, y):
        return self._vertex_of_up[self.up[x] & self.up[y]]

    def descriptor(self):
        return f"tree:{self.n}"

    def __eq__(self, other):
        return other is self or (isinstance(other, TreeGraph) and other.edges == self.edges)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"TreeGraph({list(self.edges)!r})"


# each 3x3 grid vertex mapped to its neighbours: up, down, left, right
_GRID_NEIGHBORS = {
    (r, c): tuple((rr, cc) for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                  if 0 <= rr < 3 and 0 <= cc < 3)
    for r in range(3) for c in range(3)
}
_GRID_EDGES = tuple((v, w) for v, nbs in _GRID_NEIGHBORS.items() for w in nbs if v < w)
_GRID_VERTEX_BIT = {v: 1 << i for i, v in enumerate(_GRID_NEIGHBORS)}


def _grid_steps():
    """Each grid vertex v mapped to its steps, one per neighbour w in
    ``_GRID_NEIGHBORS`` order: (w, w's vertex bit, the bit of the edge
    {v, w}, the edge (v, w)).  Edge i of ``_GRID_EDGES`` is bit i."""
    vbit = _GRID_VERTEX_BIT
    bits = {}
    for i, (v, w) in enumerate(_GRID_EDGES):
        bits[v, w] = bits[w, v] = 1 << i
    return {v: tuple((w, vbit[w], bits[v, w], (v, w)) for w in nbs)
            for v, nbs in _GRID_NEIGHBORS.items()}


_GRID_STEPS = _grid_steps()

# (x, y) -> the read-only table of every simple x-y route, for distinct
# grid vertices x and y only; its content is fixed by the key and the
# constants above, so every GridGraph shares it
_GRID_ROUTES = {}


def _fill_routes(v, seen, mask, y, edges, found):
    """Append every simple route to ``y`` that extends the walk ``edges``,
    now at ``v`` through the vertex mask ``seen`` on the edge mask
    ``mask``, to ``found`` as a (route, mask) pair.  The walk grows and
    shrinks in place; a route tuple is built only at ``y``."""
    for w, wbit, ebit, edge in _GRID_STEPS[v]:
        if not seen & wbit:
            edges.append(edge)
            if w == y:
                found.append((tuple(edges), mask | ebit))
            else:
                _fill_routes(w, seen | wbit, mask | ebit, y, edges, found)
            edges.pop()


class GridGraph:
    """The 3x3 grid; vertices are (row, col) pairs.  An instance holds no
    state: every one reads the module's route table, filled as pairs are
    asked for, and each pair's table is a read-only mapping."""

    kind = "grid"

    def vertices(self):
        return tuple((r, c) for r in range(3) for c in range(3))

    def has_vertex(self, v):
        return (isinstance(v, tuple) and len(v) == 2 and type(v[0]) is int
                and type(v[1]) is int and v in _GRID_NEIGHBORS)

    def path_mask(self, x, y):
        return None  # a grid request's route is the algorithm's choice

    def neighbors(self, v):
        return _GRID_NEIGHBORS[v]

    def edge_list(self):
        return _GRID_EDGES

    def routes(self, x, y):
        """Every simple x-y route (a tuple of (u, v) edges) mapped to its
        edge mask, in vertex-sequence order; built per pair on first use
        and read-only.  A pair with no route, because y is x or no vertex,
        gets a fresh empty mapping and is not stored."""
        table = _GRID_ROUTES.get((x, y))
        if table is None:
            found = []
            _fill_routes(x, _GRID_VERTEX_BIT[x], 0, y, [], found)
            table = MappingProxyType(dict(sorted(found)))
            if found:
                _GRID_ROUTES[x, y] = table
        return table

    def route_mask(self, request, route):
        """Mask of ``route`` if it is a simple route of ``request`` in either
        direction, else 0."""
        try:
            return (self.routes(request.x, request.y).get(route)
                    or self.routes(request.y, request.x).get(route, 0))
        except TypeError:  # unhashable, so not a tuple of edge tuples
            return 0

    def route_masks(self, solution):
        """The ``route_mask`` of each accepted request's route in
        ``solution``, or None if the solution holds no routes."""
        routes = solution.allocations
        if routes is None:
            return None
        return [self.route_mask(r, routes.get(r)) for r in solution.accepted]

    def solution(self, decisions):
        """The Solution of the accepted ``decisions``, in their order, with
        their routes; one without a route takes the first in its table."""
        routes = {d.request: d.allocation or next(iter(self.routes(d.request.x, d.request.y)))
                  for d in decisions if d.accept}
        return Solution(self, tuple(routes), routes)

    def descriptor(self):
        return "grid:3x3"

    def __eq__(self, other):
        return isinstance(other, GridGraph)

    def __hash__(self):
        return hash("grid")

    def __repr__(self):
        return "GridGraph()"


# --------------------------------------------------------------------------
# requests
# --------------------------------------------------------------------------


class Request:
    """An unordered pair of distinct host vertices, stored as x < y.

    ``mask`` is the host's ``path_mask(x, y)``, built here once: the edge
    mask of the request's path, or None on the grid.  A request is
    immutable: every attribute assignment raises AttributeError.
    """

    __slots__ = ("graph", "x", "y", "mask")

    def __init__(self, graph, x, y):
        if not (graph.has_vertex(x) and graph.has_vertex(y)):
            raise InvalidRequestError(f"({x}, {y}) are not vertices of {graph.descriptor()}")
        if x == y:
            raise InvalidRequestError("request endpoints must be distinct")
        if y < x:
            x, y = y, x
        _set_graph(self, graph)
        _set_x(self, x)
        _set_y(self, y)
        _set_mask(self, graph.path_mask(x, y))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.x == other.x and self.y == other.y
                and (self.graph is other.graph or self.graph == other.graph))

    def __hash__(self):
        return hash((self.graph, self.x, self.y))

    def __reduce__(self):
        return Request, (self.graph, self.x, self.y)

    @property
    def key(self):
        """Canonical lexicographic sort key (the Szpilrajn tie-break)."""
        return (self.x, self.y)

    def __repr__(self):
        return f"Request({self.x!r}, {self.y!r})"


_endpoints = attrgetter("x", "y")  # Request.key, read in one call

# the slots' own setters, which bypass Request.__setattr__
_set_graph = Request.graph.__set__
_set_x = Request.x.__set__
_set_y = Request.y.__set__
_set_mask = Request.mask.__set__


# --------------------------------------------------------------------------
# instances and solutions
# --------------------------------------------------------------------------


class Instance:
    """A finite set of requests on one host, kept sorted by endpoints.

    Once every request's host equals ``graph``, two requests are equal
    exactly when their endpoint pairs are, so duplicates are found by one
    set of those pairs, without hashing a request or its host.
    """

    def __init__(self, graph, requests):
        requests = tuple(requests)
        for r in requests:
            if r.graph is not graph and r.graph != graph:
                raise InvalidRequestError("instance mixes host graphs")
        if len(set(map(_endpoints, requests))) != len(requests):
            raise InvalidRequestError("duplicate request in instance")
        self.graph = graph
        self.requests = tuple(sorted(requests, key=_endpoints))

    def __len__(self):
        return len(self.requests)

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


@dataclass(slots=True, unsafe_hash=True)
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
    return sum(m.bit_count() for m in solution.graph.route_masks(solution))


def ratio(opt, alg):
    """Exact competitive ratio opt/alg: 1 when neither gained anything,
    infinite when only the algorithm gained nothing."""
    if alg == 0:
        return inf if opt else Fraction(1)
    return Fraction(opt, alg)


def validate_solution(instance, solution):
    """Check subset-ness and that the host's ``route_masks`` are nonzero and disjoint."""
    masks = instance.graph.route_masks(solution)
    if solution.graph != instance.graph or masks is None:
        return False
    accepted = set(solution.accepted)
    if len(accepted) != len(solution.accepted) or not accepted.issubset(instance.requests):
        return False
    mask = 0
    for m in masks:
        if not m or mask & m:
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
    return {"kind": "grid", "rows": 3, "cols": 3}


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


# Hosts read from files or built from command-line parameters have fewer
# edges than this: a path mask has a bit per edge, and a tree keeps a
# root-path mask per vertex, about n*n/16 bytes.
MAX_FILE_EDGES = 1 << 15


def check_host_size(edge_count, source="read from a file"):
    if edge_count >= MAX_FILE_EDGES:
        raise InvalidParameterError(
            f"a host {source} needs fewer than {MAX_FILE_EDGES} edges, not {edge_count}")


def graph_from_json(obj):
    (kind,) = _fields(obj, "a graph", "kind")
    if kind == "path":
        g = PathGraph(*_fields(obj, "a path", "length"))
        check_host_size(g.length)
        return g
    if kind == "tree":
        (edges,) = _fields(obj, "a tree", "edges")
        edges = _pairs(edges, "tree edges", InvalidTreeError)
        check_host_size(len(edges))
        return TreeGraph(edges)
    if kind == "grid":
        size = _fields(obj, "a grid", "rows", "cols")
        if size != [3, 3] or {type(n) for n in size} != {int}:
            raise InvalidParameterError("a grid has exactly 3 rows and 3 cols")
        return GridGraph()
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


def open_file(path, mode="r", encoding=None):
    """``open``, except that a path holding a NUL byte, which no file
    system takes, is an input error."""
    if "\0" in str(path):
        raise InvalidParameterError(f"path {str(path)!r} holds a NUL byte")
    return open(path, mode, encoding=encoding)


def read_json(path):
    """The JSON value in a UTF-8 file; text that is not UTF-8 JSON, or nests
    or spells numbers beyond what the parser takes, is an input error."""
    with open_file(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InvalidParameterError(f"malformed JSON: {exc}") from None


def load_instance(path):
    return instance_from_json(read_json(path))


def instance_hash(instance):
    """Stable 12-hex-digit digest of the canonical instance JSON."""
    blob = json.dumps(instance_to_json(instance), sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()[:12]
