"""The four benchmark workloads.

Each workload builds its inputs from the seed, then offers:

* ``schedule``: the distinct items the timed phase cycles through;
* ``trace_schedule``: the fixed items of one traced pass;
* ``warmup_schedule``: items run once during set-up;
* ``run(item)``: the timed work, through priodpa's public functions;
* ``check(item, output)``: raises ``CheckFailed`` on a wrong output.

Items hold only plain data (endpoint pairs, edge lists, file names).  The
package is reached through ``self.pd`` at call time, so a traced pass sees
the wrapped functions.  Reference values a check needs are computed once
per item and kept, because the timed phase repeats items.
"""

import json
import math
import os
import random
from fractions import Fraction

from reference import (
    CheckFailed,
    TreeRef,
    check_packing,
    check_ratio_at_least,
    exhaustive_optima,
    expect,
    lwdpa_bound,
    max_degree,
    path_edges,
    path_optima,
    random_pairs,
    random_tree_edges,
)

__all__ = ["WORKLOADS", "CheckFailed"]


class Workload:
    name = ""
    tail_pct = 50.0

    def __init__(self, pd, seed, workdir):
        self.pd = pd
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self._refs = {}

    def ref(self, item, compute):
        key = id(item)
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def build(self, host, pairs):
        g = self.pd.graphs
        graph = g.PathGraph(host) if isinstance(host, int) else g.TreeGraph(host)
        return g.Instance(graph, [g.Request(graph, x, y) for x, y in pairs])


def _pairs(requests):
    return [(r.x, r.y) for r in requests]


def _edges_fn(host):
    if isinstance(host, int):
        return lambda p: path_edges(*p)
    tree = TreeRef(host)
    return lambda p: tree.edges(*p)


# --------------------------------------------------------------------------
# sweep: many tiny instances, every greedy plus the oracle
# --------------------------------------------------------------------------


class Sweep(Workload):
    """Tier-1-like traffic: per-call overhead dominates."""

    name = "sweep"
    tail_pct = 99.0
    POOL = 4000
    TRACE = 1500

    def __init__(self, pd, seed, workdir):
        super().__init__(pd, seed, workdir)
        rng = self.rng
        items = []
        for _ in range(self.POOL):
            if rng.random() < 0.5:
                l = rng.randint(1, 8)
                n_pairs = l * (l + 1) // 2
                items.append((l, random_pairs(l + 1, rng.randint(0, min(6, n_pairs)), rng)))
            else:
                n = rng.randint(2, 9)
                edges = random_tree_edges(n, rng)
                n_pairs = n * (n - 1) // 2
                items.append((edges, random_pairs(n, rng.randint(0, min(6, n_pairs)), rng)))
        self.schedule = items
        self.trace_schedule = items[:self.TRACE]
        self.warmup_schedule = items[-200:]

    def run(self, item):
        host, pairs = item
        pd = self.pd
        inst = self.build(host, pairs)
        if isinstance(host, int):
            greedy = (pd.paths.greedy_paths(inst), pd.lwdpa.greedy_lwdpa(inst))
        else:
            greedy = (pd.trees.greedy_cat(inst),)
        return (greedy,
                pd.oracle.brute_force_opt(inst, "count"),
                pd.oracle.brute_force_opt(inst, "length"))

    def _reference(self, item):
        host, pairs = item
        edges_of = _edges_fn(host)
        if isinstance(host, int):
            return edges_of, path_optima(pairs)
        return edges_of, exhaustive_optima([edges_of(p) for p in pairs])

    def check(self, item, output):
        host, pairs = item
        edges_of, (opt_count, opt_length) = self.ref(item, lambda: self._reference(item))
        greedy, by_count, by_length = output
        expect(by_count.optimum == opt_count, "oracle count optimum differs from the reference")
        expect(by_length.optimum == opt_length, "oracle length optimum differs from the reference")
        for res, mode in ((by_count, "count"), (by_length, "length")):
            used = check_packing(_pairs(res.witness.accepted), pairs, edges_of)
            value = len(res.witness.accepted) if mode == "count" else len(used)
            expect(value == res.optimum, f"oracle {mode} witness does not reach its optimum")
        gains = []
        for sol in greedy:
            used = check_packing(_pairs(sol.accepted), pairs, edges_of, maximal=True)
            gains.append((len(sol.accepted), len(used)))
        if isinstance(host, int):
            # criterion 01: count greedy is optimal; criterion 02: 3 - 3/l
            expect(gains[0][0] == opt_count, "greedy_paths is not optimal")
            alg = gains[1][1]
            if opt_length == 0 or host == 1:
                expect(alg == opt_length, "greedy_lwdpa misses a trivial optimum")
            else:
                expect(opt_length <= lwdpa_bound(host) * alg, "greedy_lwdpa breaks 3 - 3/l")
        else:
            # criterion 05: 2-competitive, optimal when no vertex has degree >= 4
            alg = gains[0][0]
            expect(opt_count <= 2 * alg, "greedy_cat is not 2-competitive")
            if max_degree(host) <= 3:
                expect(alg == opt_count, "greedy_cat is not optimal at degree <= 3")


# --------------------------------------------------------------------------
# bulk: large instances, one greedy run per item
# --------------------------------------------------------------------------


def spine_tree_edges(n, spine, rng):
    """A path 0..spine-1 with the other vertices hung at random below vertex
    1 or later, so vertex 0 stays the root leaf and depth is at least
    ``spine - 1`` whatever the seed: the cost of a tree walk stays steady."""
    edges = [(v, v + 1) for v in range(spine - 1)]
    edges += [(rng.randint(1, v - 1), v) for v in range(spine, n)]
    return edges


class Bulk(Workload):
    """Instances far beyond the oracle: the O(n^2) presentation loop."""

    name = "bulk"
    tail_pct = 90.0
    PER_ALG = 40
    PATH_EDGES, PATH_REQUESTS = 400, 300
    TREE_VERTICES, TREE_SPINE, TREE_REQUESTS = 200, 40, 120

    def __init__(self, pd, seed, workdir):
        super().__init__(pd, seed, workdir)
        rng = self.rng
        items = []
        for _ in range(self.PER_ALG):
            for alg in ("paths", "lwdpa"):
                items.append((alg, self.PATH_EDGES,
                              random_pairs(self.PATH_EDGES + 1, self.PATH_REQUESTS, rng)))
            edges = spine_tree_edges(self.TREE_VERTICES, self.TREE_SPINE, rng)
            items.append(("cat", edges,
                          random_pairs(self.TREE_VERTICES, self.TREE_REQUESTS, rng)))
        self.schedule = items
        self.trace_schedule = items[:3]
        self.warmup_schedule = [(alg, host, pairs[:60]) for alg, host, pairs in items[:3]]

    def run(self, item):
        alg, host, pairs = item
        greedy = {"paths": self.pd.paths.greedy_paths,
                  "lwdpa": self.pd.lwdpa.greedy_lwdpa,
                  "cat": self.pd.trees.greedy_cat}[alg]
        return greedy(self.build(host, pairs))

    def _reference(self, item):
        alg, host, pairs = item
        return _edges_fn(host), (path_optima(pairs) if alg != "cat" else None)

    def check(self, item, output):
        alg, host, pairs = item
        edges_of, optima = self.ref(item, lambda: self._reference(item))
        used = check_packing(_pairs(output.accepted), pairs, edges_of, maximal=True)
        if alg == "paths":
            expect(len(output.accepted) == optima[0],
                   "greedy_paths misses the interval-scheduling optimum")
        elif alg == "lwdpa":
            expect(optima[1] <= lwdpa_bound(host) * len(used),
                   "greedy_lwdpa is worse than 3 - 3/l of the weighted-interval optimum")


# --------------------------------------------------------------------------
# codec: advice round trips through the CLI
# --------------------------------------------------------------------------


class Codec(Workload):
    """Oracle-bound: ``greediest_opt`` brute-forces every prefix."""

    name = "codec"
    tail_pct = 90.0
    # (problem, request count) strata; an odd count keeps the median inside
    # one stratum instead of on the edge between two
    STRATA = tuple(("lwdpa", k) for k in range(10, 17)) + tuple(("cat", k) for k in range(9, 17))
    PER_STRATUM = 40

    def __init__(self, pd, seed, workdir):
        super().__init__(pd, seed, workdir)
        rng = self.rng
        self.tape_file = os.path.join(workdir, "tape.json")
        self.out_file = os.path.join(workdir, "row.json")
        items = []
        for m in range(self.PER_STRATUM):
            for problem, k in self.STRATA:
                if problem == "lwdpa":
                    host = rng.randint(8, 16)
                    graph = {"kind": "path", "length": host}
                    pairs = random_pairs(host + 1, k, rng)
                else:
                    n = rng.randint(10, 16)
                    host = random_tree_edges(n, rng, min_max_degree=4)
                    graph = {"kind": "tree", "edges": [list(e) for e in host]}
                    pairs = random_pairs(n, k, rng)
                path = os.path.join(workdir, f"{problem}-{k}-{m}.json")
                # the first set-up of a run writes the files and later ones
                # find them in place, as the seed fixes their content: in
                # every set-up, the writes timed the disk, not the program
                if not os.path.exists(path):
                    with open(path, "w") as fh:
                        json.dump({"graph": graph, "requests": [list(p) for p in pairs]}, fh)
                items.append((problem, path, host, pairs))
        self.schedule = items
        self.trace_schedule = items[:len(self.STRATA)]
        self.warmup_schedule = [items[0], items[self.STRATA.index(("cat", 9))]]

    def run(self, item):
        problem, path, _, _ = item
        main = self.pd.cli.main
        base = ["advice", "--problem", problem, "--instance", path]
        encoded = main(base + ["--encode", "--out", self.tape_file])
        decoded = main(base + ["--decode", "--tape", self.tape_file, "--seed", str(self.seed),
                               "--format", "json", "--out", self.out_file])
        return encoded, decoded

    def _reference(self, item):
        problem, _, host, pairs = item
        if problem == "lwdpa":
            return 3 * math.ceil(host / 4), path_optima(pairs)[1]
        return TreeRef(host).advice_bound(), None

    def check(self, item, output):
        problem = item[0]
        expect(output == (0, 0), f"advice exit codes {output}")
        with open(self.tape_file) as fh:
            tape_bits = json.load(fh)["bits"]
        with open(self.out_file) as fh:
            row = json.loads(fh.read())
        # so the next item's CLI calls create the files rather than truncate
        # and rewrite them, which on ext4 flushes to disk at close
        os.remove(self.tape_file)
        os.remove(self.out_file)
        budget, opt = self.ref(item, lambda: self._reference(item))
        expect(row["gain_alg"] == row["gain_opt"], "decoded run misses the optimum")
        expect(row["advice_bits"] == tape_bits, "decoder read a different number of bits")
        expect(row["ms"] == 0, "seeded row has a nonzero ms column")
        if problem == "lwdpa":
            expect(row["gain_alg"] == opt, "decoded gain differs from the weighted-interval optimum")
            expect(row["advice_bits"] == budget, "path tape is not 3 * ceil(l / 4) bits")
        else:
            expect(row["advice_bits"] <= budget, "tree tape exceeds the advice bound")


# --------------------------------------------------------------------------
# games: adversaries, reductions and the grid case analysis
# --------------------------------------------------------------------------


class Games(Workload):
    """Adversary-driven ``Session.max_of`` over chosen candidate sets."""

    name = "games"
    tail_pct = 99.0
    VARIANTS = 13
    GUESS_BITS, TGUESS_BITS = 16, 12

    def __init__(self, pd, seed, workdir):
        super().__init__(pd, seed, workdir)
        rng = self.rng
        lwdpa_algs = pd.battery("lwdpa")
        cat_algs = pd.battery("cat")
        params = pd.lwdpa.PabParams(3, 8)
        fig9 = pd.reduction.fig9_tree(self.TGUESS_BITS)
        items = []
        for _ in range(self.VARIANTS):
            trees = [pd.graphs.TreeGraph(random_tree_edges(rng.randint(8, 14), rng, 4))
                     for _ in range(2)]
            guess = "".join(rng.choice("01") for _ in range(self.GUESS_BITS))
            tguess = "".join(rng.choice("01") for _ in range(self.TGUESS_BITS))
            items += [("pab", alg, params) for alg in lwdpa_algs]
            items += [("grid", alg, None) for alg in pd.grid.grid_battery()]
            items += [("tree", alg, t) for t in trees for alg in cat_algs]
            items += [("guess", alg, guess) for alg in lwdpa_algs]
            items += [("tguess", alg, (fig9, tguess)) for alg in cat_algs]
            items.append(("verify", None, None))
        self.schedule = items
        self.trace_schedule = items[:len(items) // self.VARIANTS]
        firsts = {}
        for item in self.trace_schedule:
            firsts.setdefault(item[0], item)
        self.warmup_schedule = list(firsts.values())

    def run(self, item):
        kind, alg, arg = item
        pd = self.pd
        if kind == "pab":
            return pd.lwdpa.adversary_play_lwdpa(alg, arg)
        if kind == "grid":
            return pd.grid.grid_adversary(alg)
        if kind == "tree":
            return pd.trees.tree_adversary(alg, arg)
        if kind == "guess":
            return pd.reduction.run_guess(alg, arg)
        if kind == "tguess":
            return pd.reduction.run_tguess(alg, *arg)
        return pd.grid.exhaustive_verify_3x3()

    def check(self, item, out):
        kind, alg, arg = item
        if kind == "pab":
            # criterion 03
            check_ratio_at_least(out.ratio, 3 - Fraction(1, arg.a), "P_{a,b} adversary")
            used = check_packing(_pairs(out.opt_witness.accepted), _pairs(out.instance.requests),
                                 lambda p: path_edges(*p))
            expect(len(used) == out.opt_gain, "P_{a,b} witness does not reach its gain")
        elif kind == "tree":
            # criterion 06
            check_ratio_at_least(out.ratio, 2, "tree adversary")
            tree = self.ref(arg, lambda: TreeRef(arg.edges))
            check_packing(_pairs(out.opt_witness.accepted), _pairs(out.instance.requests),
                          lambda p: tree.edges(*p))
            expect(len(out.opt_witness.accepted) == out.opt_gain, "tree witness size differs")
        elif kind == "grid":
            check_ratio_at_least(out.ratio, Fraction(3, 2), "grid adversary")
            _check_grid_witness(out)
        elif kind in ("guess", "tguess"):
            # criterion 09
            right, wrong = (3, 2) if kind == "guess" else (2, 1)
            n = len(arg if kind == "guess" else arg[1])
            expect(out.opt_gain == right * n, "reduction optimum is not exact")
            expect(len(out.records) == n, "one record per hidden bit")
            for rec in out.records:
                expect(rec.alg_gain <= (right if rec.correct else wrong), "block gain over its cap")
            formula = Fraction(right * n, wrong * out.wrong + right * (n - out.wrong))
            if alg.exact_block_accounting:
                expect(out.ratio == formula, "block accounting is not exact")
            else:
                check_ratio_at_least(out.ratio, formula, "reduction")
        else:
            # criterion 10
            expect(out.passed, "3x3 case analysis failed")
            expect({c.case for c in out.cases} == {"corner", "center"}, "3x3 cases are missing")
            for c in out.cases:
                expect(c.ratio >= Fraction(3, 2), "3x3 case below 3/2")
                if c.case == "corner":
                    expect(c.alg_total == 1 and c.followup_only == 2, "corner certificate broken")


def _check_grid_witness(out):
    witness = out.opt_witness
    expect(len(witness.accepted) == out.opt_gain, "grid witness size differs")
    pool = set(_pairs(out.instance.requests))
    used = set()
    for r in witness.accepted:
        expect((r.x, r.y) in pool, "grid witness request is not in the instance")
        walk = witness.allocations[r]
        expect({walk[0][0], walk[-1][1]} == {r.x, r.y}, "grid routing misses an endpoint")
        at = walk[0][0]
        for a, b in walk:
            expect(a == at, "grid routing is not a walk")
            expect(abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1, "grid routing jumps")
            expect(all(0 <= z <= 2 for z in a + b), "grid routing leaves the 3x3 grid")
            edge = frozenset((a, b))
            expect(edge not in used, "grid routings share an edge")
            used.add(edge)
            at = b


WORKLOADS = {cls.name: cls for cls in (Sweep, Bulk, Codec, Games)}
