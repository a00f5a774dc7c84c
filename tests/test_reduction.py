import random
from fractions import Fraction

import pytest

from priodpa import (
    GreedyAlgorithm,
    InvalidParameterError,
    InvalidTreeError,
    PriorityAlgorithm,
    PriorityOrder,
    TreeGraph,
)
from priodpa.battery import AdaptiveFlip, battery
from priodpa.lwdpa import greedy_lwdpa_algorithm
from priodpa.reduction import (
    _parse_bits,
    _path_gadget,
    binary_entropy,
    entropy_lower_bound,
    fig9_tree,
    run_guess,
    run_tguess,
)
from priodpa import reduction
from priodpa.trees import greedy_cat_algorithm, pack_s4, sigma

from helpers import (
    count_requests, counting_key, random_high_degree_tree, reference_run_guess, reference_run_tguess,
    replaced,
)


def test_entropy_bound_values():
    assert entropy_lower_bound(0.5, 100) == 0.0
    assert entropy_lower_bound(0.75) == 0.18872187554086717
    assert binary_entropy(0.5) == 1.0


def test_entropy_bound_domain():
    for eps in (0.3, 1.0, 1.5):
        with pytest.raises(InvalidParameterError):
            entropy_lower_bound(eps)
    with pytest.raises(InvalidParameterError):
        binary_entropy(-0.1)


def test_entropy_of_a_certain_bit_is_zero():
    assert binary_entropy(0) == binary_entropy(1) == 0.0


def test_hidden_bits_parse_from_a_list():
    assert _parse_bits([0, 1, 1]) == [0, 1, 1]
    with pytest.raises(InvalidParameterError) as exc:
        _parse_bits([2])
    assert str(exc.value) == "hidden string must be nonempty over {0,1}"


def test_entropy_bound_grows_with_epsilon():
    xs = [0.5 + i / 40 for i in range(20)]
    vals = [entropy_lower_bound(x) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_single_block_right_guess():
    out = run_guess(greedy_lwdpa_algorithm(), "1")
    (rec,) = out.records
    assert (rec.block, rec.guess, rec.hidden, rec.correct) == (1, 1, 1, True)
    assert (rec.alg_gain, rec.opt_gain) == (3, 3)
    assert out.ratio == 1


def test_greedy_accepts_everything_so_ones_cost_nothing():
    out = run_guess(greedy_lwdpa_algorithm(), "1111")
    assert [rec.alg_gain for rec in out.records] == [3, 3, 3, 3]
    # each right guess leaves one follow-up: the complement
    assert len(out.instance.requests) == 8


def test_mixed_string_accounting_is_exact():
    out = run_guess(greedy_lwdpa_algorithm(), "0110")
    assert out.wrong == 2
    assert (out.alg_gain, out.opt_gain) == (10, 12)
    assert out.ratio == Fraction(6, 5)


def test_wrong_guess_caps_a_block_at_two_thirds():
    rng = random.Random(3)
    hidden = "".join(rng.choice("01") for _ in range(5))
    for alg in battery("lwdpa"):
        out = run_guess(alg, hidden)
        assert out.passed
        for rec in out.records:
            assert rec.alg_gain <= (3 if rec.correct else 2)
            if alg.exact_block_accounting:
                assert rec.alg_gain == (3 if rec.correct else 2)


def test_reject_first_underfills_its_first_path_block():
    reject_first = {a.name: a for a in battery("lwdpa")}["reject-first"]
    out = run_guess(reject_first, "10")
    # rejecting m kills the length-2 half of block 1: only one edge is won
    assert [(rec.block, rec.alg_gain) for rec in out.records] == [(1, 1), (2, 2)]
    assert out.alg_gain == 3
    assert not reject_first.exact_block_accounting
    # ...but the star gadget loses no edge to the reject, so the tree
    # battery keeps the flag
    assert {a.name: a for a in battery("cat")}["reject-first"].exact_block_accounting


def test_tree_gadget_accounting():
    out = run_tguess(greedy_cat_algorithm(), fig9_tree(3), "010")
    assert (out.alg_gain, out.opt_gain) == (4, 6)
    assert out.ratio == Fraction(3, 2)
    assert [(rec.alg_gain, rec.correct) for rec in out.records] == [
        (1, False),
        (2, True),
        (1, False),
    ]


def test_wrong_guess_caps_a_star_block_at_one_half():
    rng = random.Random(9)
    hidden = "".join(rng.choice("01") for _ in range(4))
    tree = fig9_tree(4)
    for alg in battery("cat"):
        out = run_tguess(alg, tree, hidden)
        assert out.passed
        for rec in out.records:
            assert rec.alg_gain <= (2 if rec.correct else 1)
            if alg.exact_block_accounting:
                assert rec.alg_gain == (2 if rec.correct else 1)


def test_a_block_over_its_cap_fails_the_outcome_and_wrong_follows_the_records():
    out = run_guess(greedy_lwdpa_algorithm(), "0110")
    assert [(rec.correct, rec.alg_gain) for rec in out.records] == [
        (False, 2), (True, 3), (True, 3), (False, 2)]
    assert out.passed and out.wrong == 2

    def with_first(**changes):
        return replaced(out, records=(replaced(out.records[0], **changes), *out.records[1:]))

    # a wrong guess may gain opt_gain - 1 = 2, a right one opt_gain = 3
    assert not with_first(alg_gain=3).passed
    assert with_first(correct=True, alg_gain=3).passed
    assert not with_first(correct=True, alg_gain=4).passed
    assert (with_first(correct=True).wrong, with_first(alg_gain=0).wrong) == (1, 2)
    assert replaced(out, records=()).passed and replaced(out, records=()).wrong == 0


def test_single_star_right_guess():
    k14 = TreeGraph([(0, i) for i in range(1, 5)])
    out = run_tguess(greedy_cat_algorithm(), k14, "1")
    assert out.records[0].correct
    assert (out.alg_gain, out.opt_gain) == (2, 2)


def test_a_battery_on_one_bit_count_builds_its_gadget_once(monkeypatch):
    bits = "0110100111010010"
    run_guess(greedy_lwdpa_algorithm(), bits + "1")  # the last game had another bit count
    built = count_requests(monkeypatch)
    shared = [run_guess(alg, bits) for alg in battery("lwdpa")]
    # four requests per block, once for all fifteen games
    assert built[0] == 4 * len(bits)
    fresh = []
    for alg in battery("lwdpa"):
        _path_gadget.cache_clear()
        fresh.append(run_guess(alg, bits))
    assert built[0] == 16 * 4 * len(bits)
    assert shared == fresh


def test_a_battery_on_one_tree_packs_it_once(monkeypatch):
    tree, bits = fig9_tree(12), "101100111010"
    packed, real_pack = [0], reduction.pack_s4

    def counted_pack(t):
        packed[0] += 1
        return real_pack(t)

    monkeypatch.setattr(reduction, "pack_s4", counted_pack)
    built = count_requests(monkeypatch)
    shared = [run_tguess(alg, tree, bits) for alg in battery("cat")]
    # the six leaf pairs of each of the twelve stars, once for all fifteen games
    assert (packed[0], built[0]) == (1, 6 * 12)
    fresh = [run_tguess(alg, fig9_tree(12), bits) for alg in battery("cat")]
    assert (packed[0], built[0]) == (1 + len(fresh), 16 * 6 * 12)
    assert shared == fresh


def test_an_equal_tree_plays_on_requests_of_its_own():
    first, second = fig9_tree(4), fig9_tree(4)
    assert first == second and first is not second
    alg = greedy_cat_algorithm()
    before = run_tguess(alg, first, "1001")
    for tree, bits in ((second, "100"), (first, "1001")):
        out = run_tguess(alg, tree, bits)
        assert out.instance.graph is tree
        assert all(r.graph is tree for r in out.instance.requests)
        assert all(rec.m.graph is tree for rec in out.records)
    assert out == before


def test_tree_gadget_needs_enough_star_copies():
    with pytest.raises(InvalidTreeError):
        run_tguess(greedy_cat_algorithm(), fig9_tree(2), "111")
    with pytest.raises(InvalidTreeError):
        run_tguess(greedy_cat_algorithm(), TreeGraph([(0, 1), (1, 2)]), "1")


def test_layered_tree_family():
    t = fig9_tree(3)
    assert sigma(t) == 3
    assert sum(1 for d in t.degree.values() if d == 4) == 6
    with pytest.raises(InvalidParameterError):
        fig9_tree(0)


def test_ratio_identity_at_a_sample_point():
    # n = 8 guesses, 2 wrong: path gadget gain is 2*2 + 3*6
    out = run_guess(greedy_lwdpa_algorithm(), "10111011")
    assert out.wrong == 2
    assert out.ratio == Fraction(3 * 8, 2 * 2 + 3 * 6) == Fraction(12, 11)


def test_hidden_string_validation():
    alg = greedy_lwdpa_algorithm()
    for bad in ("", "012"):
        with pytest.raises(InvalidParameterError):
            run_guess(alg, bad)
    with pytest.raises(InvalidParameterError):
        run_guess(alg, [0, 1, 2])


def _counted_greedy(key, mode):
    """A greedy on a fixed order, with a count of its key evaluations."""
    counted, evals = counting_key(key)
    order = PriorityOrder(counted, name="counted")
    return GreedyAlgorithm(lambda graph: order, "counted-greedy", mode), evals


def test_guessing_games_evaluate_each_gadget_key_a_few_times():
    """A game ranks its gadget requests once per order object, so a fixed
    order evaluates each gadget request's key exactly once."""
    rng = random.Random(10)
    bits = "".join(rng.choice("01") for _ in range(16))
    alg, evals = _counted_greedy(lambda r: (r.x - r.y, r.x), "length")
    out = run_guess(alg, bits)
    assert out.records == run_guess(greedy_lwdpa_algorithm(), bits).records
    assert evals[0] == 4 * 16

    alg, evals = _counted_greedy(lambda r: r.key, "count")
    out = run_tguess(alg, fig9_tree(12), bits[:12])
    assert len(out.records) == 12
    assert evals[0] == 6 * 12


def test_an_adaptive_flip_ranks_the_gadget_once_per_direction():
    rng = random.Random(10)
    bits = "".join(rng.choice("01") for _ in range(16))
    counted, evals = counting_key(lambda r: (r.x - r.y, r.x))
    flip = AdaptiveFlip(lambda graph: PriorityOrder(counted, name="counted"), "length")
    assert len(run_guess(flip, bits).records) == 16
    # the forward order ranks the 64 requests once, and its reverse the 62
    # left live after the first round, whose hidden 0 withdraws m's
    # complement
    assert bits[0] == "0"
    assert evals[0] == 64 + 62


def test_guessing_games_at_scale_evaluate_each_key_once():
    rng = random.Random(11)
    alg, evals = _counted_greedy(lambda r: (r.x - r.y, r.x), "length")
    out = run_guess(alg, "".join(rng.choice("01") for _ in range(3000)))
    assert len(out.records) == 3000 and evals[0] == 4 * 3000

    alg, evals = _counted_greedy(lambda r: r.key, "count")
    out = run_tguess(alg, fig9_tree(1000), "".join(rng.choice("01") for _ in range(1000)))
    assert len(out.records) == 1000 and evals[0] == 6 * 1000


def test_outcome_instances_are_well_formed():
    out = run_guess(greedy_lwdpa_algorithm(), "0101")
    assert out.instance.graph.length == 12
    out_t = run_tguess(greedy_cat_algorithm(), fig9_tree(2), "01")
    assert len({rec.block for rec in out_t.records}) == 2


class _Watched(PriorityAlgorithm):
    """``inner``, with every request it is asked about written down."""

    def __init__(self, inner):
        self.inner, self.name, self.mode = inner, inner.name, inner.mode
        self.readapt = inner.readapt
        self.asked = []

    def initial_order(self, graph, advice):
        return self.inner.initial_order(graph, advice)

    def decide(self, request, state):
        self.asked.append(request)
        return self.inner.decide(request, state)


def _assert_plays_like_the_reference(play, reference, alg, *args):
    new, ref = _Watched(alg), _Watched(alg)
    out, expected = play(new, *args), reference(ref, *args)
    assert new.asked == ref.asked
    assert out.records == expected.records
    assert out.instance == expected.instance
    assert (out.alg_gain, out.opt_gain, out.wrong, out.ratio) == (
        expected.alg_gain, expected.opt_gain, expected.wrong, expected.ratio)


@pytest.mark.parametrize("problem", ["lwdpa", "cat"])
def test_games_play_like_the_round_by_round_reference(problem):
    """The ranked game feeds, decides and scores exactly like the game that
    asks max_of for the top of everything left in every round."""
    rng = random.Random(12)
    for alg in battery(problem):
        for n in (1, 2, 3, 7, 16, 40):
            bits = "".join(rng.choice("01") for _ in range(n))
            if problem == "lwdpa":
                _assert_plays_like_the_reference(run_guess, reference_run_guess, alg, bits)
            else:
                _assert_plays_like_the_reference(
                    run_tguess, reference_run_tguess, alg, fig9_tree(n), bits)
        if problem == "cat":
            for _ in range(6):
                tree = random_high_degree_tree(rng.randint(5, 40), rng)
                n = rng.randint(1, len(pack_s4(tree)))
                bits = "".join(rng.choice("01") for _ in range(n))
                _assert_plays_like_the_reference(
                    run_tguess, reference_run_tguess, alg, tree, bits)


class _MadeAfresh(GreedyAlgorithm):
    """A greedy whose readapt builds a new order object at every decision,
    reversed after every third."""

    def __init__(self, key, mode):
        super().__init__(lambda graph: PriorityOrder(key, name="fresh"), "fresh", mode)

    def readapt(self, state):
        order = self.order_factory(state.graph)
        return order.reversed() if len(state.log) % 3 == 1 else order


def test_an_order_made_afresh_every_decision_plays_like_the_reference():
    rng = random.Random(13)
    bits = "".join(rng.choice("01") for _ in range(12))
    _assert_plays_like_the_reference(
        run_guess, reference_run_guess, _MadeAfresh(lambda r: (r.x - r.y, r.x), "length"), bits)
    _assert_plays_like_the_reference(
        run_tguess, reference_run_tguess, _MadeAfresh(lambda r: r.key, "count"), fig9_tree(12), bits)


def test_an_order_made_afresh_every_decision_ranks_only_live_requests():
    rng = random.Random(13)
    bits = "".join(rng.choice("01") for _ in range(12))
    evals = [0]

    def key(r):
        assert r not in alg.asked, "a fed request was ranked"
        evals[0] += 1
        return (r.x - r.y, r.x)

    alg = _Watched(_MadeAfresh(key, "length"))
    out = run_guess(alg, bits)
    # the first object ranks all 48 gadget requests; each later one ranks
    # only what is live: a round kills its block but for m's follow-ups
    # (one for a hidden 1, two for a hidden 0), a follow-up kills itself
    hidden = iter(bits)
    played, dead, expected = set(), 0, 48
    for r in alg.asked:
        block = r.x // 3
        if block in played:
            dead += 1
        else:
            played.add(block)
            dead += 4 - (1 if next(hidden) == "1" else 2)
        expected += 48 - dead
    assert dead == 48 and len(out.records) == 12
    assert evals[0] == expected < 48 * len(alg.asked)
