import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from priodpa import (
    Instance,
    InvalidParameterError,
    PathGraph,
    Request,
    brute_force_opt,
    decode_run,
    gain,
    greediest_opt,
    greedy_lwdpa,
    instance_from_json,
    validate_solution,
)
from priodpa.battery import battery
from priodpa.engine import GreedyAlgorithm, PriorityOrder
from priodpa.lwdpa import (
    LwdpaAdviceAlgorithm,
    PabParams,
    adversary_play_lwdpa,
    encode_lwdpa_advice,
    greedy_lwdpa_algorithm,
    lwdpa_order,
)

from helpers import DEMO, count_requests, random_instance


def _demo():
    with open(DEMO) as f:
        return instance_from_json(json.load(f))


def test_order_is_longest_first_leftmost_tie():
    g = PathGraph(10)
    reqs = [Request(g, 6, 8), Request(g, 0, 5), Request(g, 3, 8), Request(g, 2, 4)]
    assert [r.key for r in lwdpa_order(g).sort(reqs)] == [
        (0, 5),
        (3, 8),
        (2, 4),
        (6, 8),
    ]


def test_greedy_trace_on_demo_instance():
    inst = _demo()
    sol = greedy_lwdpa(inst)
    # the leftmost longest request blocks everything else
    assert sorted(r.key for r in sol.accepted) == [(4, 9)]
    assert gain(sol, "length") == 5
    opt = brute_force_opt(inst, "length").optimum
    assert opt == 12
    assert Fraction(opt, 5) <= 3 - Fraction(3, inst.graph.length)


@given(st.data())
def test_greedy_within_three_minus_three_over_l(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = PathGraph(rng.randint(2, 10))
    inst = random_instance(g, 6, rng)
    if not inst.requests:
        return
    alg = gain(greedy_lwdpa(inst), "length")
    opt = brute_force_opt(inst, "length").optimum
    assert Fraction(opt, alg) <= 3 - Fraction(3, g.length)


def test_layer_params():
    p = PabParams(3, 3)
    assert p.l == 23
    assert [p.length_of(i) for i in range(1, 6)] == [3, 6, 9, 6, 3]
    with pytest.raises(InvalidParameterError):
        PabParams(2, 3)
    with pytest.raises(InvalidParameterError):
        PabParams(3, 1)


def test_layer_geometry():
    p = PabParams(4, 3)
    g, longs, units = p.universe
    assert g.length == p.l and len(units) == p.l
    assert longs[0].x == 0 and longs[-1].y == p.l
    for a, b in zip(longs, longs[1:]):
        shared = set(range(a.x, a.y)) & set(range(b.x, b.y))
        assert len(shared) == 1  # consecutive long requests overlap in one edge
    for u in units:
        assert u.mask.bit_count() == 1


def test_a_battery_on_one_params_builds_its_universe_once(monkeypatch):
    p = PabParams(3, 8)
    built = count_requests(monkeypatch)
    shared = [adversary_play_lwdpa(alg, p) for alg in battery("lwdpa")]
    # 15 longs and 178 units, once for all fifteen games
    assert built[0] == 193
    assert p.universe is p.universe
    monkeypatch.undo()
    fresh = [adversary_play_lwdpa(alg, PabParams(3, 8)) for alg in battery("lwdpa")]
    assert shared == fresh


def test_each_params_object_plays_its_own_universe():
    adversary_play_lwdpa(greedy_lwdpa_algorithm(), PabParams(3, 8))
    p = PabParams(4, 10)
    out = adversary_play_lwdpa(greedy_lwdpa_algorithm(), p)
    assert out.instance.graph == PathGraph(p.l) == PathGraph(382)
    assert (out.case, out.alg_gain, out.opt_gain) == ("peak", 40, 110)
    assert out.ratio == Fraction(11, 4)


def test_adversary_traps_greedy_at_the_peak():
    out = adversary_play_lwdpa(greedy_lwdpa_algorithm(), PabParams(3, 8))
    assert out.case == "peak"
    assert (out.alg_gain, out.opt_gain) == (24, 64)
    assert out.ratio == Fraction(8, 3)
    assert validate_solution(out.instance, out.opt_witness)


def test_an_outer_long_first_gives_exactly_three_minus_one_over_a():
    # no battery order ranks an outermost long first
    for a, b in ((3, 2), (3, 8), (4, 10), (5, 3)):
        p = PabParams(a, b)
        _, longs, _ = p.universe
        for first in (longs[0], longs[-1]):
            order = PriorityOrder(lambda r, f=first: (r != f, r.x - r.y, r.x), name="outer-first")
            alg = GreedyAlgorithm(lambda g, o=order: o, "outer-first", mode="length")
            out = adversary_play_lwdpa(alg, p)
            assert out.case == "outer"
            assert out.ratio == 3 - Fraction(1, a)
            assert validate_solution(out.instance, out.opt_witness)


def test_adversary_stops_after_a_rejected_first_request():
    reject_first = {a.name: a for a in battery("lwdpa")}["reject-first"]
    out = adversary_play_lwdpa(reject_first, PabParams(3, 8))
    assert out.case == "rejected-first"
    assert out.ratio == math.inf
    assert len(out.instance.requests) == 1


def test_adversary_pairs_a_unit_with_its_long_container():
    shortest = GreedyAlgorithm(
        lambda g: PriorityOrder(lambda r: (r.y - r.x, r.x), name="short"),
        "shortest-first",
        mode="length",
    )
    out = adversary_play_lwdpa(shortest, PabParams(3, 8))
    assert out.case == "unit"
    assert out.alg_gain == 1 and out.opt_gain == 3
    assert out.ratio == 3


def test_adversary_forces_the_general_bound_sample():
    p = PabParams(3, 8)
    bound = 3 - Fraction(1, 3)
    for name in ("greedy", "greedy-reversed", "adaptive-flip", "random-greedy-0"):
        alg = {a.name: a for a in battery("lwdpa")}[name]
        out = adversary_play_lwdpa(alg, p)
        assert out.ratio == math.inf or out.ratio >= bound
        assert validate_solution(out.instance, out.opt_witness)


def test_tape_length_is_three_bits_per_block():
    for l, bits in ((4, 3), (12, 9), (15, 12), (17, 15)):
        g = PathGraph(l)
        inst = Instance(g, [Request(g, 0, min(2, l))])
        assert len(encode_lwdpa_advice(inst)) == bits


def test_single_long_request_block_code():
    g = PathGraph(4)
    tape = encode_lwdpa_advice(Instance(g, [Request(g, 1, 3)]))
    assert tape.bits == "010"
    assert tape.to_json() == {"bits": 3, "hex": "4"}


def test_demo_tape_is_frozen_and_decodes_to_optimum():
    inst = _demo()
    tape = encode_lwdpa_advice(inst)
    assert tape.to_json() == {"bits": 12, "hex": "488"}
    sol = decode_run(LwdpaAdviceAlgorithm(), inst, tape).solution
    assert validate_solution(inst, sol)
    assert gain(sol, "length") == 12


def test_decoder_may_keep_an_equivalent_long_request():
    # (1, 4) and (1, 3)+(3, 4) tie; the decoder must land on full gain either way
    g = PathGraph(5)
    inst = Instance(g, [Request(g, 1, 4), Request(g, 1, 3), Request(g, 3, 4)])
    sol = decode_run(LwdpaAdviceAlgorithm(), inst, encode_lwdpa_advice(inst)).solution
    assert sorted(r.key for r in sol.accepted) == [(1, 4)]
    assert gain(sol, "length") == 3 == brute_force_opt(inst, "length").optimum


def test_all_unit_instance_needs_no_starts():
    g = PathGraph(6)
    inst = Instance(g, [Request(g, i, i + 1) for i in range(6)])
    tape = encode_lwdpa_advice(inst)
    assert tape.bits == "0" * 6  # two blocks, both empty
    assert gain(decode_run(LwdpaAdviceAlgorithm(), inst, tape).solution, "length") == 6


def test_codec_rejects_non_path_hosts():
    from helpers import STAR4_EDGES
    from priodpa import TreeGraph

    s = TreeGraph(STAR4_EDGES)
    with pytest.raises(InvalidParameterError):
        encode_lwdpa_advice(Instance(s, [Request(s, 1, 2)]))


@given(st.data())
def test_decode_matches_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = PathGraph(rng.randint(1, 12))
    inst = random_instance(g, 6, rng)
    tape = encode_lwdpa_advice(inst)
    assert len(tape) == 3 * ((g.length + 3) // 4)
    sol = decode_run(LwdpaAdviceAlgorithm(), inst, tape).solution
    assert validate_solution(inst, sol)
    assert gain(sol, "length") == brute_force_opt(inst, "length").optimum
    assert set(sol.accepted) == set(greediest_opt(inst, lwdpa_order(g), "length").accepted)
