"""Reference computations for the benchmark's output checks.

Nothing here imports priodpa.  Edge sets come from plain intervals on
paths and from parent-pointer walks on trees, so a bug in the package's
edge masks or oracle cannot also hide in the check that looks for it.
"""

from bisect import bisect_right
from collections import deque
from fractions import Fraction


class CheckFailed(Exception):
    """An output of the program failed a benchmark check."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# instances
# --------------------------------------------------------------------------


def prufer_edges(seq, n):
    """Edge list of the labelled tree on 0..n-1 with Prufer code ``seq``."""
    if n == 2:
        return [(0, 1)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (u for u in range(n) if degree[u] == 1)
    edges.append((u, w))
    return edges


def random_tree_edges(n, rng, min_max_degree=0):
    while True:
        edges = prufer_edges([rng.randrange(n) for _ in range(n - 2)], n)
        if max_degree(edges) >= min_max_degree:
            return edges


def max_degree(edges):
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return max(deg.values())


def random_pairs(n_vertices, k, rng):
    """``k`` distinct vertex pairs (x < y), sorted."""
    seen = set()
    while len(seen) < k:
        x, y = rng.sample(range(n_vertices), 2)
        seen.add((min(x, y), max(x, y)))
    return sorted(seen)


# --------------------------------------------------------------------------
# edge sets
# --------------------------------------------------------------------------


def path_edges(x, y):
    """Edge i joins vertices i and i+1."""
    return frozenset(range(x, y))


class TreeRef:
    """Parent pointers from a BFS at vertex 0; edge v joins v to its parent."""

    def __init__(self, edges):
        n = len(edges) + 1
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self.parent = [-1] * n
        self.depth = [0] * n
        seen = [False] * n
        seen[0] = True
        todo = deque([0])
        while todo:
            v = todo.popleft()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    self.parent[w] = v
                    self.depth[w] = self.depth[v] + 1
                    todo.append(w)
        expect(all(seen), "reference tree is not connected")
        self.degree = [len(a) for a in adj]

    def edges(self, x, y):
        out = set()
        while x != y:
            if self.depth[x] >= self.depth[y]:
                out.add(x)
                x = self.parent[x]
            else:
                out.add(y)
                y = self.parent[y]
        return frozenset(out)

    def advice_bound(self):
        """The paper's tape bound: sum over degree >= 4 vertices of
        (deg - 2) * ceil(log2(deg / 2)) bits."""
        return sum((d - 2) * ((d + 1) // 2 - 1).bit_length()
                   for d in self.degree if d >= 4)


# --------------------------------------------------------------------------
# solutions
# --------------------------------------------------------------------------


def check_packing(accepted, pool, edges_of, maximal=False):
    """``accepted`` is a subset of ``pool`` whose edge sets are pairwise
    disjoint; with ``maximal``, every other pair of the pool is blocked."""
    expect(len(set(accepted)) == len(accepted), "a request was accepted twice")
    pool_set = set(pool)
    used = set()
    for p in accepted:
        expect(p in pool_set, f"accepted {p} is not in the instance")
        es = edges_of(p)
        expect(not (used & es), f"accepted {p} shares an edge")
        used |= es
    if maximal:
        taken = set(accepted)
        for p in pool:
            if p not in taken:
                expect(used & edges_of(p), f"rejected {p} would still fit")
    return used


def weighted_interval_opt(pairs, weight):
    """Maximum total weight of edge-disjoint intervals on a path (DP)."""
    items = sorted(pairs, key=lambda p: p[1])
    ends = [y for _, y in items]
    best = [0] * (len(items) + 1)
    for i, (x, y) in enumerate(items):
        j = bisect_right(ends, x, 0, i)
        best[i + 1] = max(best[i], best[j] + weight(x, y))
    return best[-1]


def path_optima(pairs):
    """(count optimum, length optimum) on a path host."""
    return (weighted_interval_opt(pairs, lambda x, y: 1),
            weighted_interval_opt(pairs, lambda x, y: y - x))


def exhaustive_optima(edge_sets):
    """(count optimum, length optimum) by enumerating all subsets."""
    k = len(edge_sets)
    best_count = best_length = 0
    for sub in range(1 << k):
        used = set()
        count = length = 0
        for j in range(k):
            if sub >> j & 1:
                es = edge_sets[j]
                if used & es:
                    break
                used |= es
                count += 1
                length += len(es)
        else:
            best_count = max(best_count, count)
            best_length = max(best_length, length)
    return best_count, best_length


def lwdpa_bound(l):
    return 3 - Fraction(3, l)


def check_ratio_at_least(ratio, bound, what):
    expect(ratio == float("inf") or ratio >= bound, f"{what}: ratio {ratio} below {bound}")
