"""End-to-end acceptance checks, one per advertised guarantee."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial

from priodpa import (
    Decision,
    GridGraph,
    Instance,
    PathGraph,
    Request,
    TreeGraph,
    brute_force_opt,
    cli,
    decode_run,
    gain,
    greedy_cat,
    greedy_lwdpa,
    greedy_paths,
    validate_solution,
)
from priodpa.battery import battery
from priodpa.grid import CORNERS, MIDPOINTS, _grid_answer, distance3_pairs, exhaustive_verify_3x3
from priodpa.lwdpa import (
    LwdpaAdviceAlgorithm,
    PabParams,
    _pab_answer,
    adversary_play_lwdpa,
    encode_lwdpa_advice,
    greedy_lwdpa_algorithm,
)
from priodpa.reduction import (
    entropy_lower_bound,
    fig9_tree,
    run_guess,
    run_tguess,
)
from priodpa.trees import (
    CatAdviceAlgorithm,
    _hub_answer,
    encode_cat_advice,
    pack_s4,
    sigma,
    tree_adversary,
)

from helpers import (
    DEMO,
    all_pairs,
    canonical_trees,
    random_high_degree_tree,
    random_instance,
    random_tree,
)


def test_criterion_01_count_greedy_is_optimal_on_paths(path_sweep):
    assert len(path_sweep) > 30000
    assert all(gain(greedy_paths(inst), "count") == opt for _, inst, opt, _ in path_sweep)


def test_criterion_02_length_greedy_meets_its_exact_bound(path_sweep):
    worst, first = {}, {}  # per l, the sweep's exact worst ratio and the first instance at it
    for l, inst, _, opt in path_sweep:
        alg = gain(greedy_lwdpa(inst), "length")
        if opt == 0:
            assert alg == 0
            continue
        r = Fraction(opt, alg)
        if l == 1:
            assert r == 1  # the bound 3 - 3/l degenerates; greedy is optimal
        else:
            assert r <= 3 - Fraction(3, l)
        if l not in worst or r > worst[l]:
            worst[l], first[l] = r, tuple(q.key for q in inst.requests)
    # the bound 3 - 3/l is never reached on this sweep
    assert worst == {1: 1, 2: 1, 3: Fraction(3, 2), 4: Fraction(3, 2), 5: Fraction(5, 3), 6: 2}
    assert first == {
        1: ((0, 1),),
        2: ((0, 1),),
        3: ((0, 1), (0, 2), (1, 3)),
        4: ((0, 1), (0, 2), (1, 3)),
        5: ((0, 2), (0, 3), (2, 5)),
        6: ((0, 2), (1, 4), (2, 3), (3, 6)),
    }


def test_criterion_03_layered_adversary_beats_the_battery():
    params = PabParams(3, 8)
    bound = 3 - Fraction(1, 3)
    out = adversary_play_lwdpa(greedy_lwdpa_algorithm(), params)
    assert out.ratio >= bound
    algs = battery("lwdpa")
    assert len(algs) >= 12
    for alg in algs:
        o = adversary_play_lwdpa(alg, params)
        assert o.ratio == math.inf or o.ratio >= bound
        assert validate_solution(o.instance, o.opt_witness)


def test_criterion_04_path_codec_hits_the_optimum_in_budget():
    rng = random.Random(12345)
    for _ in range(1000):
        g = PathGraph(rng.randint(1, 16))
        inst = random_instance(g, 8, rng)
        tape = encode_lwdpa_advice(inst)
        assert len(tape) == 3 * ((g.length + 3) // 4)
        sol = decode_run(LwdpaAdviceAlgorithm(), inst, tape).solution
        assert validate_solution(inst, sol)
        assert gain(sol, "length") == brute_force_opt(inst, "length").optimum


def test_criterion_05_tree_greedy_two_competitive_exhaustively():
    checked = 0
    # (opt, alg) at the worst ratio, keyed by "a vertex has degree >= 4",
    # and the tree edges and endpoint pairs of the first instance at it
    worst = {False: (0, 1), True: (0, 1)}
    first = {}
    for n in range(2, 8):
        for edges in canonical_trees(n):
            t = TreeGraph(edges)
            delta = max(t.degree.values())
            pairs = all_pairs(t)
            for k in range(1, 5):
                for combo in itertools.combinations(pairs, k):
                    inst = Instance(t, list(combo))
                    alg = gain(greedy_cat(inst), "count")
                    opt = brute_force_opt(inst, "count").optimum
                    assert opt <= 2 * alg
                    if delta <= 3:
                        assert alg == opt
                    w_opt, w_alg = worst[delta >= 4]
                    if opt * w_alg > w_opt * alg:
                        worst[delta >= 4] = (opt, alg)
                        first[delta >= 4] = (tuple(edges), tuple(q.key for q in combo))
                    checked += 1
    assert checked > 90000
    assert {high: Fraction(*w) for high, w in worst.items()} == {False: 1, True: 2}
    # one request on one edge; three leaf-to-leaf requests on the 4-star
    assert first == {
        False: (((0, 1),), ((0, 1),)),
        True: (((1, 0), (2, 0), (3, 0), (0, 4)), ((1, 2), (2, 3), (3, 4))),
    }


def _criterion_06_trees():
    rng = random.Random(777)
    trees = [TreeGraph([(0, i) for i in range(1, 5)])]
    return trees + [random_high_degree_tree(rng.randint(5, 12), rng) for _ in range(20)]


def test_criterion_06_tree_adversary_beats_the_battery():
    for t in _criterion_06_trees():
        for alg in battery("cat"):
            out = tree_adversary(alg, t)
            assert out.ratio == math.inf or out.ratio >= 2
            assert validate_solution(out.instance, out.opt_witness)


def test_criterion_07_tree_codec_hits_the_optimum_in_budget():
    rng = random.Random(54321)
    for _ in range(1000):
        t = random_tree(rng.randint(2, 12), rng)
        inst = random_instance(t, 6, rng)
        tape = encode_cat_advice(inst)
        degs = list(t.degree.values())
        delta = max(degs)
        if delta <= 3:
            assert len(tape) == 0
        else:
            theta1 = sum(1 for d in degs if d == 1)
            theta3 = sum(1 for d in degs if d == 3)
            cap = (theta1 - theta3 - 2) * math.ceil(math.log2(delta / 2))
            assert len(tape) <= cap
        sol = decode_run(CatAdviceAlgorithm(), inst, tape).solution
        assert validate_solution(inst, sol)
        assert gain(sol, "count") == brute_force_opt(inst, "count").optimum


def test_criterion_08_star_packing_meets_the_demand():
    rng = random.Random(2718)
    for _ in range(1000):
        t = random_tree(rng.randint(2, 40), rng)
        copies = pack_s4(t)
        used = set()
        for center, leaves in copies:
            for leaf in leaves:
                e = frozenset((center, leaf))
                assert e not in used
                used.add(e)
                assert leaf in t.adj[center]
        assert len(copies) >= sigma(t)
    for n in range(1, 11):
        assert len(pack_s4(fig9_tree(n))) >= n


def test_criterion_09_reduction_accounting_is_exact():
    rng = random.Random(99)
    for n in (1, 2, 3, 5, 8, 13, 20):
        bits = "".join(rng.choice("01") for _ in range(n))
        for alg in battery("lwdpa"):
            out = run_guess(alg, bits)
            assert out.opt_gain == 3 * n
            for rec in out.records:
                assert rec.alg_gain <= (3 if rec.correct else 2)
            w = out.wrong
            formula = Fraction(3 * n, 2 * w + 3 * (n - w))
            if alg.exact_block_accounting:
                assert out.ratio == formula
            else:
                assert out.ratio == math.inf or out.ratio >= formula
        tree = fig9_tree(n)
        for alg in battery("cat"):
            out = run_tguess(alg, tree, bits)
            assert out.opt_gain == 2 * n
            for rec in out.records:
                assert rec.alg_gain <= (2 if rec.correct else 1)
            w = out.wrong
            formula = Fraction(2 * n, w + 2 * (n - w))
            if alg.exact_block_accounting:
                assert out.ratio == formula
            else:
                assert out.ratio == math.inf or out.ratio >= formula
        assert abs(entropy_lower_bound(0.75, n) / n - 0.188722) < 1e-6


def test_criterion_10_grid_case_analysis_passes():
    report = exhaustive_verify_3x3()
    assert report.passed
    assert {c.case for c in report.cases} == {"corner", "center"}
    for c in report.cases:
        assert c.ratio >= Fraction(3, 2)
        if c.case == "corner":
            # the exhibited two-call certificate against the single accept
            assert c.alg_total == 1 and c.followup_only == 2
            assert Fraction(c.followup_only, c.alg_total) == 2


def _answer_every_first_pick(answer, candidates, picks):
    """Call ``answer`` on each accepted first pick of ``picks``, a list of
    (request, allocation), check its follow-ups and witness, and count
    its cases."""
    cases = Counter()
    pool = set(candidates)
    for r, allocation in picks:
        case, followups, witness = answer(r, Decision(r, True, allocation))
        # the served top candidate outranks its follow-ups under any order
        assert set(followups) <= pool
        assert r not in followups
        assert validate_solution(Instance(r.graph, (r, *followups)), witness)
        cases[case] += 1
    return cases


def test_every_first_pick_is_answered_by_candidates_and_a_valid_witness():
    """The adversaries' answers hold for every accepted first pick, not
    only those the battery makes, so they hold for every algorithm."""
    for (a, b), counts in (((3, 8), (178, 12, 2, 1)), ((4, 10), (382, 16, 2, 1))):
        params = PabParams(a, b)
        _, longs, units = params.universe
        candidates = longs + units
        cases = _answer_every_first_pick(
            partial(_pab_answer, params), candidates, [(r, None) for r in candidates])
        assert cases == dict(zip(("unit", "middle", "outer", "peak"), counts))
    for t in _criterion_06_trees():
        hub = min(v for v in range(t.n) if t.degree[v] >= 4)
        nb = list(t.adj[hub])[:4]
        pairs = [Request(t, x, y) for x, y in itertools.combinations(nb, 2)]
        cases = _answer_every_first_pick(
            partial(_hub_answer, t, nb), pairs, [(r, None) for r in pairs])
        assert cases == {"hub": 6}
    g = GridGraph()
    pairs = distance3_pairs(g)
    picks = [(r, path) for r in pairs for route in g.routes(r.x, r.y)
             for path in (route, tuple((v, u) for u, v in reversed(route)))]
    # each route from either endpoint, so _served_case reverses half of them
    assert {path[0][0] for _, path in picks} == set(CORNERS) | set(MIDPOINTS)
    assert _answer_every_first_pick(_grid_answer, pairs, picks) == {"corner": 32, "center": 128}


def test_criterion_11_seeded_runs_are_byte_identical(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["run", "--instance", DEMO, "--alg", "greedy-lwdpa", "--seed", "7"]
    assert cli.main(argv + ["--out", str(first)]) == 0
    assert cli.main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    third, fourth = tmp_path / "c.txt", tmp_path / "d.txt"
    argv = ["reduce", "--problem", "lwdpa", "--alg", "random-greedy-3",
            "--n", "12", "--seed", "5"]
    assert cli.main(argv + ["--out", str(third)]) == 0
    assert cli.main(argv + ["--out", str(fourth)]) == 0
    assert third.read_bytes() == fourth.read_bytes()
