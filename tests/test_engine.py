import pytest
from hypothesis import given, strategies as st

from priodpa import (
    AdviceExhaustedError,
    AdviceTape,
    AdviceWriter,
    Decision,
    IllegalAcceptanceError,
    Instance,
    InvalidOrderError,
    InvalidParameterError,
    PathGraph,
    PriorityAlgorithm,
    PriorityOrder,
    Request,
    Session,
    presentation_sequence,
    run,
)
from priodpa.battery import battery
from priodpa.paths import greedy_path_algorithm, right_end_order

from helpers import DEMO


def _p5_instance():
    g = PathGraph(5)
    return g, Instance(g, [Request(g, 2, 5), Request(g, 0, 2), Request(g, 1, 3)])


def test_fixed_order_presentation_sequence():
    g, inst = _p5_instance()
    seq = presentation_sequence(right_end_order(g), inst)
    assert [r.key for r in seq] == [(0, 2), (1, 3), (2, 5)]


def test_order_breaks_right_endpoint_ties_on_left_endpoint():
    g = PathGraph(5)
    inst = Instance(g, [Request(g, 1, 3), Request(g, 0, 3)])
    seq = presentation_sequence(right_end_order(g), inst)
    assert [r.key for r in seq] == [(0, 3), (1, 3)]


def test_max_of_rejects_tied_priorities():
    g = PathGraph(5)
    flat = PriorityOrder(lambda r: 0, name="flat")
    with pytest.raises(InvalidOrderError):
        flat.max_of([Request(g, 0, 2), Request(g, 1, 3)])


def test_sort_rejects_tied_priorities():
    g, inst = _p5_instance()
    flat = PriorityOrder(lambda r: 0, name="flat")
    with pytest.raises(InvalidOrderError):
        presentation_sequence(flat, inst)


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


def test_from_comparator():
    def prefers(a, b):
        return (a.y - a.x, a.x) < (b.y - b.x, b.x)

    g = PathGraph(5)
    order = PriorityOrder.from_comparator(prefers, name="short-first")
    seq = presentation_sequence(
        order, Instance(g, [Request(g, 0, 3), Request(g, 3, 4), Request(g, 0, 2)])
    )
    assert [r.key for r in seq] == [(3, 4), (0, 2), (0, 3)]


def test_presentation_sequence_rejects_adaptive_orders():
    g, inst = _p5_instance()
    adaptive = [a for a in battery("dpa-path") if a.name == "adaptive-flip"][0]
    with pytest.raises(InvalidOrderError):
        presentation_sequence(adaptive.initial_order(g, None), inst)


def test_run_visits_requests_in_presentation_order():
    g, inst = _p5_instance()
    result = run(greedy_path_algorithm(), inst)
    fed = [d.request for d in result.log]
    assert fed == list(presentation_sequence(right_end_order(g), inst))


def test_adaptive_presented_request_is_stepwise_maximum():
    g = PathGraph(6)
    inst = Instance(
        g,
        [Request(g, 0, 2), Request(g, 1, 4), Request(g, 2, 6), Request(g, 4, 6)],
    )
    alg = [a for a in battery("dpa-path") if a.name == "adaptive-flip"][0]
    result = run(alg, inst)
    order = alg.initial_order(g, None)
    remaining = list(inst.requests)
    history = []
    for decision in result.log:
        assert decision.request == order.max_of(remaining)
        remaining.remove(decision.request)
        history.append(decision)
        if order.readapt is not None:
            order = order.readapt(history)
    assert not remaining


def test_drain_feeds_a_fixed_order_in_presentation_sequence():
    g, inst = _p5_instance()
    session = Session(greedy_path_algorithm(), g)
    fed = session.drain(reversed(inst.requests))
    assert fed == list(presentation_sequence(right_end_order(g), inst))
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
    assert fed != list(presentation_sequence(right_end_order(g), inst))


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

        def decide(self, request, state, advice):
            return Decision(request, True)

    g, inst = _p5_instance()
    with pytest.raises(IllegalAcceptanceError):
        run(Blind(), inst)


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
