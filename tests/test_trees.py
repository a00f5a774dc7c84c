import math
import random

import pytest
from hypothesis import given, strategies as st

from priodpa import (
    Instance,
    InvalidTreeError,
    Request,
    TreeGraph,
    brute_force_opt,
    decode_run,
    gain,
    greediest_opt,
    greedy_cat,
    validate_solution,
)
from priodpa.battery import battery
from priodpa.reduction import fig9_tree
from priodpa.trees import (
    CatAdviceAlgorithm,
    _sides,
    cat_order,
    encode_cat_advice,
    greedy_cat_algorithm,
    pack_s4,
    sigma,
    tree_adversary,
    tree_advice_bound,
)

from helpers import (
    HUB_EDGES,
    NESTED_EDGES,
    STAR4_EDGES,
    prufer_decode,
    random_high_degree_tree,
    random_instance,
    random_tree,
    reference_pack_s4,
    root_walk,
)


def test_order_presents_deeper_peaks_first():
    t = TreeGraph(NESTED_EDGES)
    reqs = [Request(t, 9, 11), Request(t, 12, 13), Request(t, 6, 8)]
    ordered = cat_order(t).sort(reqs)
    assert [r.key for r in ordered] == [(12, 13), (6, 8), (9, 11)]
    assert [t.lca(r.x, r.y) for r in ordered] == [7, 2, 1]
    assert [t.depth[t.lca(r.x, r.y)] for r in ordered] == [3, 2, 1]


def test_peak_endpoint_requests_come_before_pass_through_ones():
    t = TreeGraph(HUB_EDGES)
    ends_at_peak = Request(t, 3, 14)
    passes_through = Request(t, 5, 7)
    assert t.lca(3, 14) in ends_at_peak.key
    assert t.lca(5, 7) not in passes_through.key
    assert [r.key for r in cat_order(t).sort([passes_through, ends_at_peak])] == [
        (3, 14),
        (5, 7),
    ]


def test_greedy_loses_half_on_a_star():
    s = TreeGraph(STAR4_EDGES)
    reqs = [Request(s, 1, 3), Request(s, 2, 3), Request(s, 2, 4)]
    assert [r.key for r in cat_order(s).sort(reqs)] == [(2, 3), (2, 4), (1, 3)]
    inst = Instance(s, reqs)
    assert gain(greedy_cat(inst), "count") == 1
    assert brute_force_opt(inst, "count").optimum == 2


@given(st.data())
def test_root_path_masks_match_parent_walks(data):
    n = data.draw(st.integers(2, 30))
    seq = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    t = TreeGraph(prufer_decode(seq, n))
    for _ in range(5):
        x, y = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        r = Request(t, x, y)
        wx, wy = root_walk(t, r.x), root_walk(t, r.y)
        top = next(v for v in wx if v in wy)
        below_x, below_y = wx[:wx.index(top)], wy[:wy.index(top)]
        assert r.mask == sum(1 << v for v in below_x + below_y)
        assert r.mask.bit_count() == len(below_x) + len(below_y)
        assert t.lca(r.x, r.y) == top
        if below_x and below_y:
            assert _sides(t, r, top) == tuple(sorted((below_x[-1], below_y[-1])))


@given(st.data())
def test_greedy_is_optimal_when_max_degree_is_three(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    while True:
        t = random_tree(rng.randint(2, 9), rng)
        if max(t.degree.values()) <= 3:
            break
    inst = random_instance(t, 5, rng)
    assert gain(greedy_cat(inst), "count") == brute_force_opt(inst, "count").optimum


@given(st.data())
def test_greedy_is_never_worse_than_half_the_optimum(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    t = random_tree(rng.randint(2, 10), rng)
    inst = random_instance(t, 5, rng)
    sol = greedy_cat(inst)
    assert validate_solution(inst, sol)
    assert brute_force_opt(inst, "count").optimum <= 2 * gain(sol, "count")


def test_adversary_forces_two_on_the_four_star():
    s = TreeGraph(STAR4_EDGES)
    out = tree_adversary(greedy_cat_algorithm(), s)
    assert out.case == "hub"
    assert out.ratio == 2
    assert sorted(r.key for r in out.instance.requests) == [(1, 2), (2, 3), (3, 4)]
    assert validate_solution(out.instance, out.opt_witness)


def test_adversary_punishes_a_rejected_first_request():
    s = TreeGraph(STAR4_EDGES)
    reject_first = {a.name: a for a in battery("cat")}["reject-first"]
    out = tree_adversary(reject_first, s)
    assert out.case == "rejected-first"
    assert out.ratio == math.inf


def test_adversary_needs_a_high_degree_vertex():
    with pytest.raises(InvalidTreeError):
        tree_adversary(greedy_cat_algorithm(), TreeGraph([(0, 1), (1, 2), (2, 3)]))


def test_adversary_beats_the_whole_battery_on_one_tree():
    rng = random.Random(5)
    t = random_high_degree_tree(9, rng)
    for alg in battery("cat"):
        out = tree_adversary(alg, t)
        assert out.ratio == math.inf or out.ratio >= 2
        assert validate_solution(out.instance, out.opt_witness)


def test_hub_tree_codec_is_frozen():
    t = TreeGraph(HUB_EDGES)
    reqs = [
        Request(t, 2, 15),
        Request(t, 3, 14),
        Request(t, 5, 7),
        Request(t, 8, 11),
        Request(t, 12, 13),
        Request(t, 4, 5),   # distractor: loses to (8, 11) at the hub
        Request(t, 8, 10),  # distractor: loses to (2, 15)
    ]
    inst = Instance(t, reqs)
    tape = encode_cat_advice(inst)
    assert tape.bits == "0110001001"
    assert tape.to_json() == {"bits": 10, "hex": "624"}
    sol = decode_run(CatAdviceAlgorithm(), inst, tape).solution
    assert sorted(r.key for r in sol.accepted) == [
        (2, 15),
        (3, 14),
        (5, 7),
        (8, 11),
        (12, 13),
    ]
    assert gain(sol, "count") == 5 == brute_force_opt(inst, "count").optimum


def test_codec_writes_nothing_when_max_degree_is_three():
    t = TreeGraph([(0, 1), (1, 2), (1, 3), (3, 4)])
    inst = Instance(t, [Request(t, 0, 2), Request(t, 2, 4)])
    tape = encode_cat_advice(inst)
    assert len(tape) == 0
    sol = decode_run(CatAdviceAlgorithm(), inst, tape).solution
    assert gain(sol, "count") == brute_force_opt(inst, "count").optimum


@given(st.data())
def test_decode_matches_oracle_on_random_trees(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    t = random_tree(rng.randint(2, 10), rng)
    inst = random_instance(t, 5, rng)
    tape = encode_cat_advice(inst)
    assert len(tape) <= tree_advice_bound(t)
    sol = decode_run(CatAdviceAlgorithm(), inst, tape).solution
    assert validate_solution(inst, sol)
    assert gain(sol, "count") == brute_force_opt(inst, "count").optimum
    assert set(sol.accepted) == set(greediest_opt(inst, cat_order(t), "count").accepted)


def test_advice_bound_formula():
    t = TreeGraph(HUB_EDGES)
    per_vertex = sum(
        (d - 2) * math.ceil(math.log2(d / 2))
        for d in t.degree.values()
        if d >= 4
    )
    assert tree_advice_bound(t) == per_vertex == 12
    leaves = sum(1 for d in t.degree.values() if d == 1)
    deg3 = sum(1 for d in t.degree.values() if d == 3)
    delta = max(t.degree.values())
    assert per_vertex <= (leaves - deg3 - 2) * math.ceil(math.log2(delta / 2))


@given(st.data())
def test_advice_bound_dominates_the_per_vertex_sum(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    t = random_tree(rng.randint(4, 12), rng)
    leaves = sum(1 for d in t.degree.values() if d == 1)
    deg3 = sum(1 for d in t.degree.values() if d == 3)
    delta = max(t.degree.values())
    if delta <= 3:
        assert tree_advice_bound(t) == 0
    else:
        cap = (leaves - deg3 - 2) * math.ceil(math.log2(delta / 2))
        assert 0 < tree_advice_bound(t) <= cap


def test_star_packing_on_the_eight_star():
    t = TreeGraph([(0, i) for i in range(1, 9)])
    assert sigma(t) == 1
    assert pack_s4(t) == ((0, (1, 2, 3, 4)), (0, (5, 6, 7, 8)))


def test_each_tree_keeps_its_own_packing():
    small, large = fig9_tree(2), fig9_tree(3)
    assert pack_s4(large) == reference_pack_s4(large)
    assert len(pack_s4(large)) == 3
    assert pack_s4(fig9_tree(2)) == pack_s4(small)


def test_packing_demand_of_the_layered_family():
    assert [sigma(fig9_tree(n)) for n in range(1, 7)] == [1, 2, 3, 4, 5, 6]


def test_no_packing_without_degree_four():
    t = TreeGraph([(0, 1), (1, 2), (1, 3), (3, 4)])
    assert sigma(t) == 0
    assert pack_s4(t) == ()


def test_packing_matches_the_pass_by_pass_reference():
    rng = random.Random(31)
    trees = [fig9_tree(n) for n in range(1, 31)]
    trees += [random_tree(rng.randint(2, 60), rng) for _ in range(400)]
    trees += [random_high_degree_tree(rng.randint(5, 60), rng) for _ in range(100)]
    for t in trees:
        assert pack_s4(t) == reference_pack_s4(t)


@given(st.data())
def test_packing_is_edge_disjoint_and_covers_the_demand(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    t = random_tree(rng.randint(2, 14), rng)
    copies = pack_s4(t)
    used = set()
    for center, leaves in copies:
        assert len(leaves) == 4
        for leaf in leaves:
            e = frozenset((center, leaf))
            assert e not in used  # copies must not share edges
            used.add(e)
            assert leaf in t.adj[center]
    assert len(copies) >= sigma(t)
