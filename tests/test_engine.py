import gc
import hashlib
import math
import random

import pytest
from hypothesis import given, strategies as st

from priodpa import (
    AdviceExhaustedError,
    AdviceTape,
    AdviceWriter,
    Decision,
    GreedyAlgorithm,
    IllegalAcceptanceError,
    Instance,
    InvalidOrderError,
    InvalidParameterError,
    PabParams,
    PathGraph,
    PriorityAlgorithm,
    PriorityOrder,
    PropertyViolation,
    Request,
    Session,
    Solution,
    TreeGraph,
    adversary_play_lwdpa,
    decode_run,
    fig9_tree,
    grid_adversary,
    grid_battery,
    run,
    run_guess,
    run_tguess,
    tree_adversary,
)
from priodpa.battery import _hash_key, battery
from priodpa.engine import RejectFirst, adversary_game
from priodpa.paths import greedy_path_algorithm, right_end_order
from priodpa.reduction import _path_gadget, _star_gadget

from helpers import (
    DEMO,
    NESTED_EDGES,
    all_pairs,
    counting_key,
    random_instance,
    random_tree,
    reference_sort,
)


def _p5_instance():
    g = PathGraph(5)
    return g, Instance(g, [Request(g, 2, 5), Request(g, 0, 2), Request(g, 1, 3)])


def test_fixed_order_presentation_sequence():
    g, inst = _p5_instance()
    seq = right_end_order(g).sort(inst.requests)
    assert [r.key for r in seq] == [(0, 2), (1, 3), (2, 5)]


def test_order_breaks_right_endpoint_ties_on_left_endpoint():
    g = PathGraph(5)
    inst = Instance(g, [Request(g, 1, 3), Request(g, 0, 3)])
    seq = right_end_order(g).sort(inst.requests)
    assert [r.key for r in seq] == [(0, 3), (1, 3)]


def test_max_of_rejects_tied_priorities():
    g = PathGraph(5)
    flat = PriorityOrder(lambda r: 0, name="flat")
    with pytest.raises(InvalidOrderError):
        flat.max_of([Request(g, 0, 2), Request(g, 1, 3)])
    # a unique top does not excuse a tie below it
    low_tie = PriorityOrder(lambda r: (min(r.x, 1),), name="low-tie")
    with pytest.raises(InvalidOrderError):
        low_tie.max_of([Request(g, 0, 2), Request(g, 1, 3), Request(g, 2, 4)])


def test_a_tie_names_the_first_tied_pair_in_presentation_order():
    g = PathGraph(6)
    a, b, c, d, e = (Request(g, x, x + 1) for x in range(5))
    # two separate ties, (a, c) and (b, d), and (b, d) is presented first
    prio = {a: 3, b: 1, c: 3, d: 1, e: 0}
    two_ties = PriorityOrder(lambda r: (prio[r],), name="two-ties")
    for order in (two_ties, two_ties.reversed()):
        first, second = (b, d) if order is two_ties else (a, c)
        with pytest.raises(InvalidOrderError) as caught:
            order.rank([a, b, c, d, e])
        assert str(caught.value) == f"{order.name}: {first} and {second} are not strictly ordered"
    # one tie, at the bottom, is named in the order the items were given
    prio[b] = 2
    with pytest.raises(InvalidOrderError, match=r"Request\(2, 3\) and Request\(0, 1\) are not"):
        two_ties.sort([e, d, c, b, a])
    prio[c] = 4
    assert two_ties.sort([a, b, c, d, e]) == [e, d, b, a, c]


def test_sort_rejects_tied_priorities():
    g, inst = _p5_instance()
    flat = PriorityOrder(lambda r: 0, name="flat")
    with pytest.raises(InvalidOrderError):
        flat.sort(inst.requests)


def test_max_of_singleton_is_trivial():
    g = PathGraph(5)
    flat = PriorityOrder(lambda r: 0, name="flat")
    r = Request(g, 0, 2)
    assert flat.max_of([r]) is r


def test_reversed_order_flips_max():
    g, inst = _p5_instance()
    order = right_end_order(g)
    lo = order.max_of(inst.requests)
    hi = order.reversed().max_of(inst.requests)
    assert lo.key == (0, 2) and hi.key == (2, 5)


def test_run_visits_requests_in_presentation_order():
    g, inst = _p5_instance()
    result = run(greedy_path_algorithm(), inst)
    fed = [d.request for d in result.log]
    assert fed == right_end_order(g).sort(inst.requests)


def _stepwise_instances(problem):
    """The hand-made adaptive example plus seeded random instances."""
    rng = random.Random(f"stepwise-{problem}")
    if problem == "cat":
        return [random_instance(random_tree(rng.randint(4, 10), rng), 7, rng) for _ in range(8)]
    g = PathGraph(6)
    hand = Instance(g, [Request(g, 0, 2), Request(g, 1, 4), Request(g, 2, 6), Request(g, 4, 6)])
    return [hand] + [random_instance(PathGraph(rng.randint(3, 9)), 8, rng) for _ in range(8)]


def test_adaptive_presented_request_is_stepwise_maximum():
    """Reference walk: present the maximum of what is left under the order
    in force, one request at a time, and let every decision readapt it."""
    for problem in ("dpa-path", "lwdpa", "cat"):
        for inst in _stepwise_instances(problem):
            g = inst.graph
            for alg in battery(problem):
                result = run(alg, inst)
                reference = Session(alg, g)
                order = reference.order
                remaining = list(inst.requests)
                while remaining:
                    r = order.max_of(remaining)
                    reference.feed(r)
                    remaining.remove(r)
                    if alg.readapt is not None:
                        order = alg.readapt(reference)
                log = reference.result().log
                assert result.log == log, (problem, alg.name, inst.requests)
                fed = Session(alg, g).drain(reversed(inst.requests))
                assert fed == [d.request for d in log]


def test_battery_names_an_unknown_problem_family():
    with pytest.raises(InvalidParameterError, match="^unknown problem family 'nope'$"):
        battery("nope")


def test_key_evaluations_are_one_per_request():
    """A fixed order is sorted once, ``sort`` decorates once, and a reversed
    order's ``max_of`` is one pass; the adaptive flipper's two order
    objects each rank what is live once: n, then the n - 1 left after the
    first decision."""
    g = PathGraph(30)
    inst = Instance(g, random.Random(4).sample(all_pairs(g), 40))
    key, evals = counting_key(lambda r: (r.y, r.x))

    def counted(requests, walk):
        evals[0] = 0
        walk(requests)
        return evals[0]

    order = PriorityOrder(key, name="counted")
    fixed = GreedyAlgorithm(lambda graph: order, "counted-greedy")
    n = len(inst)
    assert counted(inst, lambda i: run(fixed, i)) == n
    assert counted(list(inst.requests), order.sort) == n
    assert counted(set(inst.requests), order.reversed().max_of) == n
    flip = [a for a in battery("dpa-path") if a.name == "adaptive-flip"][0]
    flip.order_factory = lambda graph: PriorityOrder(key, name="counted")
    assert counted(inst, lambda i: run(flip, i)) == 2 * n - 1


@pytest.mark.parametrize("reverse", [False, True])
def test_max_of_evaluates_each_candidate_once_per_call(reverse):
    g = PathGraph(30)
    rng = random.Random(6)
    universe = all_pairs(g)
    key, evals = counting_key(lambda r: (r.y, r.x))
    order = PriorityOrder(key, name="counted")
    if reverse:
        order = order.reversed()
    pick = max if reverse else min
    for size in (25, 10, 30, 18, 40, 25):
        candidates = rng.sample(universe, size)
        evals[0] = 0
        top = order.max_of(candidates)
        # one pass: a repeated candidate costs as much as a new one
        assert evals[0] == size
        assert top is pick(candidates, key=lambda r: (r.y, r.x))


def test_an_order_and_its_reverse_evaluate_afresh_on_every_call():
    g = PathGraph(12)
    requests = all_pairs(g)
    key, evals = counting_key(lambda r: (r.y, r.x))
    order = PriorityOrder(key, name="counted")
    back = order.reversed()
    for _ in range(3):
        evals[0] = 0
        lo, hi = order.max_of(requests), back.max_of(requests)
        assert evals[0] == 2 * len(requests)
        assert (lo.key, hi.key) == ((0, 1), (11, 12))


def _answer(order, candidates):
    try:
        return order.max_of(candidates)
    except InvalidOrderError:
        return InvalidOrderError


def test_repeated_max_of_answers_like_a_fresh_order():
    """One long-lived order against a fresh one per call, on candidate sets
    that overlap, hold value-equal copies, and tie at the top."""
    rng = random.Random(7)
    g = PathGraph(9)
    pairs = all_pairs(g)
    universe = pairs + [Request(g, r.x, r.y) for r in rng.sample(pairs, 12)]
    tied = set()
    for key in (lambda r: (r.y, r.x), lambda r: (r.y,), lambda r: (r.x * r.y % 7, r.x)):
        for make in (lambda k: PriorityOrder(k), lambda k: PriorityOrder(k).reversed()):
            kept = make(key)
            for _ in range(60):
                candidates = rng.sample(universe, rng.randint(1, 12))
                expected = _answer(make(key), candidates)
                assert _answer(kept, candidates) is expected
                tied.add(expected is InvalidOrderError)
    assert tied == {False, True}


def _ranked(rank, requests):
    try:
        return rank(requests)
    except InvalidOrderError as exc:
        return str(exc)


def test_one_pass_max_of_and_flipped_ranking_match_the_negated_key_sort():
    """Every battery strategy's order, forward and reversed, against the
    sort by negated keys that reversal used to be: ``max_of`` is ``sort``'s
    top or raises its tie, and ``sort`` is the reference's.  The candidate
    sets are the P_{3,8} universe, the 16-bit path gadget, the
    fig9_tree(12) star gadget and 50 seeded subsets of each, drawn with
    value-equal copies that tie any key; a tie-prone order (by x*y mod 7)
    rides along.  It takes about 0.4 s (Python 3.11, 2-vCPU VM)."""
    rng = random.Random(27)
    tree = fig9_tree(12)
    _, longs, units = PabParams(3, 8).universe
    path_sets = [longs + units, _path_gadget(16)[2]]
    hosts = {"dpa-path": path_sets, "lwdpa": path_sets, "cat": [_star_gadget(tree)[2]]}
    tie_prone = PriorityOrder(lambda r: (r.x * r.y % 7, r.x), name="tie-prone")
    outcomes = set()
    for problem, bases in hosts.items():
        algs = battery(problem)
        for base in bases:
            graph = base[0].graph
            pool = list(base) + [Request(graph, r.x, r.y) for r in rng.sample(base, 8)]
            sets = [base] + [rng.sample(pool, rng.randint(1, 20)) for _ in range(50)]
            orders = [(alg.initial_order(graph, None), alg.name == "greedy-reversed") for alg in algs]
            orders.append((tie_prone, False))
            for order, negate in orders:
                for o, neg in ((order, negate), (order.reversed(), not negate)):
                    for c in sets:
                        ranked = _ranked(o.sort, c)
                        assert ranked == _ranked(lambda c: reference_sort(o._key, o.name, c, neg), c)
                        top = _ranked(o.max_of, c)
                        if isinstance(ranked, str):
                            assert top == ranked
                        else:
                            assert top is ranked[0]
                        outcomes.add(type(ranked))
                    with pytest.raises(InvalidParameterError, match="max_of on an empty set"):
                        o.max_of([])
    assert outcomes == {list, str}


def test_sha_keys_are_the_hexdigest_integers():
    for graph in (PathGraph(7), TreeGraph(NESTED_EDGES)):
        for r in all_pairs(graph):
            for seed in range(10):
                hexed = hashlib.sha256(f"{seed}:{r.x}:{r.y}".encode()).hexdigest()
                assert _hash_key(seed, r) == (int(hexed, 16), r.x, r.y)


def test_a_battery_hashes_each_endpoint_pair_once_per_seed(monkeypatch):
    """Each random-order strategy keeps the keys it computed for as long
    as its battery lives, across games and hosts: a key depends on the
    seed and the endpoints alone."""
    small, large = PathGraph(7), PathGraph(9)
    instances = [Instance(small, all_pairs(small)), Instance(large, all_pairs(large))]
    hashed = []

    def counted_hash(seed, r):
        hashed.append((seed, r.x, r.y))
        return _hash_key(seed, r)

    # the module's globals: the package binds the name ``battery`` to the function
    monkeypatch.setitem(battery.__globals__, "_hash_key", counted_hash)
    algs = battery("dpa-path")
    shared = [[run(alg, inst) for alg in algs] for inst in instances * 2]
    seen = {(r.x, r.y) for r in instances[1].requests}
    assert sorted(hashed) == sorted((seed, x, y) for seed in range(10) for x, y in seen)
    monkeypatch.undo()
    fresh = [[run(alg, inst) for alg in battery("dpa-path")] for inst in instances * 2]
    assert shared == fresh
    for alg in algs[5:]:
        seed = int(alg.name.rsplit("-", 1)[1])
        order = alg.initial_order(small, None)
        assert order.sort(instances[0].requests) == sorted(
            instances[0].requests, key=lambda r: _hash_key(seed, r))


def test_drain_feeds_a_fixed_order_in_presentation_sequence():
    g, inst = _p5_instance()
    session = Session(greedy_path_algorithm(), g)
    fed = session.drain(reversed(inst.requests))
    assert fed == right_end_order(g).sort(inst.requests)
    assert [d.request for d in session.result().log] == fed


def test_drain_follows_an_adaptive_order_like_run():
    g = PathGraph(6)
    inst = Instance(
        g,
        [Request(g, 0, 2), Request(g, 1, 4), Request(g, 2, 6), Request(g, 4, 6)],
    )
    alg = [a for a in battery("dpa-path") if a.name == "adaptive-flip"][0]
    session = Session(alg, g)
    fed = session.drain(inst.requests)
    log = run(alg, inst).log
    assert fed == [d.request for d in log]
    assert session.result().log == log
    # the flip really reorders: a fixed right-end order would differ
    assert fed != right_end_order(g).sort(inst.requests)


class _FreshEveryDecision(GreedyAlgorithm):
    """A greedy whose readapt builds a new order object at every decision."""

    def __init__(self, key):
        super().__init__(lambda graph: PriorityOrder(key, name="fresh"), "fresh")

    def readapt(self, state):
        return self.order_factory(state.graph)


def test_an_order_made_afresh_every_decision_ranks_only_live_requests():
    g = PathGraph(30)
    requests = random.Random(8).sample(all_pairs(g), 40)
    dead = set()
    evals = [0]

    def key(r):
        assert r not in dead, "a fed or withdrawn request was ranked"
        evals[0] += 1
        return (r.y, r.x)

    def answer(i, decision):
        # withdraw the two requests listed after the one fed
        dead.update(requests[i:i + 3])
        return range(i + 1, min(i + 3, len(requests)))

    fed = Session(_FreshEveryDecision(key), g).drain(requests, answer)
    # the first object ranks all 40, and each later one only what is live
    gone, expected = set(), len(requests)
    for r in fed:
        i = requests.index(r)
        gone.update(requests[i:i + 3])
        expected += len(requests) - len(gone)
    assert len(gone) == len(requests)
    # ranking all 40 at each of the 21 decisions would cost 40 + 21 * 40
    assert (len(fed), evals[0]) == (21, expected) == (21, 346)


def test_every_battery_game_leaves_no_cyclic_garbage():
    """Every battery algorithm, adaptive ones included, plays each game of
    its problem and frees everything by reference counting alone: with the
    collector off, a collection afterwards finds nothing."""
    tree = TreeGraph([(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6)])
    gc.collect()
    gc.disable()
    try:
        for i, alg in enumerate(battery("lwdpa")):
            adversary_play_lwdpa(alg, PabParams(3, 8))
            run_guess(alg, ("0110", "10011")[i % 2])
        for i, alg in enumerate(battery("cat")):
            tree_adversary(alg, tree)
            run_tguess(alg, fig9_tree(4 + i % 2), "1001")
        for alg in grid_battery():
            grid_adversary(alg)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_battery_games_on_shared_params_and_tree_leave_no_cyclic_garbage():
    """Both batteries play on one ``PabParams`` and on two trees and two
    bit counts in turn: the params and the trees keep the universe and the
    star packings they share, and the gadgets are rebuilt at every switch;
    dropping them frees everything by reference counting alone."""
    params, trees = PabParams(3, 8), (fig9_tree(4), fig9_tree(5))
    gc.collect()
    gc.disable()
    try:
        for i, alg in enumerate(battery("lwdpa")):
            adversary_play_lwdpa(alg, params)
            run_guess(alg, ("0110", "10011")[i % 2])
        for i, alg in enumerate(battery("cat")):
            tree_adversary(alg, trees[i % 2])
            run_tguess(alg, trees[i % 2], "1001")
        del params, trees
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_withdrawn_request_is_never_fed():
    g = PathGraph(30)
    requests = random.Random(9).sample(all_pairs(g), 40)
    for alg in battery("dpa-path"):
        fed_so_far, withdrawn = set(), set()

        def answer(i, decision):
            # withdraw the request listed next, fed already or not
            fed_so_far.add(requests[i])
            j = (i + 1) % len(requests)
            if requests[j] not in fed_so_far:
                withdrawn.add(requests[j])
            return [j]

        session = Session(alg, g)
        fed = session.drain(requests, answer)
        assert [d.request for d in session.result().log] == fed
        assert not set(fed) & withdrawn, alg.name
        assert set(fed) | withdrawn == set(requests)


def test_adversary_game_rejects_an_invalid_witness():
    g = PathGraph(4)
    candidates = [Request(g, 0, 2), Request(g, 1, 3)]
    followups = (Request(g, 1, 3), Request(g, 2, 4))

    def play(*witness):
        # the greedy serves (0, 2), the smaller right end, and accepts (2, 4)
        answer = lambda r, decision: ("case", followups, Solution(g, witness))
        return adversary_game(greedy_path_algorithm(), g, candidates, answer)

    out = play(Request(g, 0, 2), Request(g, 2, 4))
    assert (out.case, out.alg_gain, out.opt_gain, len(out.instance)) == ("case", 2, 2, 3)
    overlapping = (Request(g, 0, 2), Request(g, 1, 3))
    not_served = (Request(g, 0, 1),)
    for witness in (overlapping, not_served):
        with pytest.raises(PropertyViolation):
            play(*witness)


def test_adversary_game_ends_a_rejected_first_pick():
    g = PathGraph(4)
    candidates = [Request(g, 0, 2), Request(g, 1, 3)]

    def answer(r, decision):
        raise AssertionError("answer is asked only about an accepted pick")

    out = adversary_game(RejectFirst(greedy_path_algorithm()), g, candidates, answer)
    assert (out.case, out.alg_gain, out.opt_gain, out.ratio) == ("rejected-first", 0, 1, math.inf)
    assert out.instance.requests == (Request(g, 0, 2),)
    assert out.opt_witness == Solution(g, (Request(g, 0, 2),))


def test_greedy_accepts_exactly_the_fitting_requests():
    g, inst = _p5_instance()
    result = run(greedy_path_algorithm(), inst)
    decisions = {d.request.key: d.accept for d in result.log}
    assert decisions == {(0, 2): True, (1, 3): False, (2, 5): True}


def test_illegal_acceptance_is_detected():
    class Blind(PriorityAlgorithm):
        name = "blind"
        mode = "count"

        def initial_order(self, graph, advice):
            return right_end_order(graph)

        def decide(self, request, state):
            return Decision(request, True)

    g, inst = _p5_instance()
    with pytest.raises(IllegalAcceptanceError, match="reuses an edge"):
        run(Blind(), inst)


def test_decide_receives_the_session_and_its_tape():
    class Reader(PriorityAlgorithm):
        name = "reader"

        def initial_order(self, graph, advice):
            self.seen = []
            return right_end_order(graph)

        def decide(self, request, state):
            self.seen.append((state, state.tape))
            return Decision(request, state.tape.read_bit() == 1 and state.fits(request))

    g, inst = _p5_instance()
    alg, tape = Reader(), AdviceTape("101")
    session = Session(alg, g, tape)
    session.drain(inst.requests)
    assert len(alg.seen) == 3 and all(s is session and t is tape for s, t in alg.seen)
    tape = AdviceTape("110")
    result = decode_run(alg, inst, tape)
    (state, _), = set(alg.seen)
    assert state.tape is tape and result.bits_consumed == 3
    assert state.log == list(result.log)


def test_readapt_receives_the_session_and_its_log_so_far():
    class Watcher(GreedyAlgorithm):
        def __init__(self):
            super().__init__(right_end_order, "watcher")

        def initial_order(self, graph, advice):
            self.seen = []
            return super().initial_order(graph, advice)

        def readapt(self, state):
            self.seen.append((state, list(state.log)))
            return state.order

    g, inst = _p5_instance()
    alg = Watcher()
    session = Session(alg, g)
    fed = session.drain(inst.requests)
    assert fed == right_end_order(g).sort(inst.requests)
    assert len(alg.seen) == 3 and all(s is session for s, _ in alg.seen)
    assert [log for _, log in alg.seen] == [session.log[:i] for i in (1, 2, 3)]
    result = run(alg, inst)
    state, log = alg.seen[-1]
    assert state is not session and log == list(result.log)


def test_session_refeeds_are_decided_against_current_state():
    g, inst = _p5_instance()
    session = Session(greedy_path_algorithm(), g)
    assert session.feed(Request(g, 0, 2)).accept
    assert not session.feed(Request(g, 0, 2)).accept


def test_advice_tape_reads_msb_first():
    tape = AdviceTape("10100")
    assert tape.read_field(3) == 5
    assert tape.read_bit() == 0
    assert tape.consumed == 4


def test_a_zero_width_field_reads_nothing():
    tape = AdviceTape("10")
    assert tape.read_field(0) == 0 and tape.consumed == 0
    assert tape.read_field(2) == 2 and tape.consumed == 2
    assert tape.read_field(0) == 0 and tape.consumed == 2
    with pytest.raises(InvalidParameterError):
        tape.read_field(-1)


def test_advice_tape_exhaustion():
    tape = AdviceTape("1")
    tape.read_bit()
    with pytest.raises(AdviceExhaustedError):
        tape.read_bit()


def test_advice_tape_rejects_non_binary():
    with pytest.raises(InvalidParameterError):
        AdviceTape("10x")


def test_advice_tape_json_format():
    tape = AdviceTape("0110001001")
    assert tape.to_json() == {"bits": 10, "hex": "624"}
    assert AdviceTape.from_json({"bits": 10, "hex": "624"}).bits == "0110001001"


@pytest.mark.parametrize("obj", [
    {"bits": 12, "hex": "48"},  # fewer than ceil(bits / 4) hex digits
    {"bits": 10, "hex": "627"},  # a padding bit is set
    [10, "624"],  # not a JSON object
])
def test_advice_tape_json_is_exactly_the_declared_bits(obj):
    with pytest.raises(InvalidParameterError):
        AdviceTape.from_json(obj)


def test_decoders_must_read_the_whole_tape():
    from priodpa import encode_lwdpa_advice, load_instance
    from priodpa.lwdpa import LwdpaAdviceAlgorithm

    inst = load_instance(DEMO)
    tape = encode_lwdpa_advice(inst)
    result = decode_run(LwdpaAdviceAlgorithm(), inst, AdviceTape(tape.bits))
    assert len(result.solution.accepted) == 3
    with pytest.raises(InvalidParameterError, match="8 of 20 advice bits left unread"):
        decode_run(LwdpaAdviceAlgorithm(), inst, AdviceTape(tape.bits + "0" * 8))


def test_lwdpa_decoder_reads_its_table_on_an_empty_instance():
    from priodpa import encode_lwdpa_advice
    from priodpa.lwdpa import LwdpaAdviceAlgorithm

    empty = Instance(PathGraph(4), [])
    tape = encode_lwdpa_advice(empty)
    assert len(tape) == 3
    assert decode_run(LwdpaAdviceAlgorithm(), empty, tape).bits_consumed == 3


@given(st.text(alphabet="01", max_size=64))
def test_advice_tape_json_roundtrip(bits):
    assert AdviceTape.from_json(AdviceTape(bits).to_json()).bits == bits


def test_advice_writer_rejects_overflow():
    w = AdviceWriter()
    with pytest.raises(InvalidParameterError):
        w.write_field(8, 3)


@given(st.lists(st.integers(min_value=0, max_value=255), max_size=12))
def test_writer_reader_roundtrip(values):
    w = AdviceWriter()
    for v in values:
        w.write_field(v, 8)
    tape = w.tape()
    assert len(tape) == 8 * len(values)
    assert [tape.read_field(8) for _ in values] == values


def test_rerun_with_same_tape_reproduces_log():
    from priodpa import encode_lwdpa_advice, load_instance
    from priodpa.lwdpa import LwdpaAdviceAlgorithm

    inst = load_instance(DEMO)
    tape = encode_lwdpa_advice(inst)
    first = run(LwdpaAdviceAlgorithm(), inst, AdviceTape(tape.bits))
    second = run(LwdpaAdviceAlgorithm(), inst, AdviceTape(tape.bits))
    assert [(d.request.key, d.accept) for d in first.log] == [
        (d.request.key, d.accept) for d in second.log
    ]
    assert first.bits_consumed == second.bits_consumed <= len(tape)


def test_greedy_ignores_advice_tape():
    g, inst = _p5_instance()
    result = run(greedy_path_algorithm(), inst, AdviceTape("1111"))
    assert result.bits_consumed == 0
