"""Arbitrary JSON through every file-reading subcommand: the CLI must exit 0
or 2, and exit 2 with a single ``error:`` line, never with a traceback."""

import contextlib
import io
import json
import string
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from priodpa import cli

from helpers import prufer_decode

# Integers stay small: a path of length 10**9 is valid input, but its masks
# and brute-force runs would take the test far past a few seconds.
SMALL = st.integers(-2, 12)

ANY_JSON = st.recursive(
    st.none() | st.booleans() | SMALL | st.floats(-3, 12) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10,
)


@st.composite
def prufer_trees(draw):
    n = draw(st.integers(2, 12))
    # labels 0-2 recur often, so vertices of degree >= 4 are common
    label = st.integers(0, n - 1) | st.integers(0, min(n - 1, 2))
    seq = draw(st.lists(label, min_size=n - 2, max_size=n - 2))
    return [list(e) for e in prufer_decode(seq, n)]


GRAPHS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("path"), "length": SMALL | ANY_JSON}),
    st.fixed_dictionaries({"kind": st.just("tree"),
                           "edges": prufer_trees() | st.lists(st.lists(SMALL, max_size=3),
                                                              max_size=6)}),
    st.fixed_dictionaries({"kind": st.just("grid"), "rows": SMALL, "cols": SMALL}),
    ANY_JSON,
)
ENDPOINT = SMALL | st.lists(SMALL, min_size=2, max_size=2) | ANY_JSON
REQUESTS = st.one_of(
    st.lists(st.lists(SMALL, min_size=2, max_size=2), max_size=7),
    st.lists(st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2), min_size=2,
                      max_size=2), max_size=5),
    st.lists(st.lists(ENDPOINT, min_size=1, max_size=3), max_size=4),
    ANY_JSON,
)


@st.composite
def hosted_requests(draw):
    """A valid host with endpoint pairs drawn from its vertices; a pair may
    still repeat a vertex, or another pair reversed."""
    kind = draw(st.sampled_from(["path", "tree", "grid"]))
    if kind == "path":
        length = draw(st.integers(1, 10))
        graph, vertices = {"kind": kind, "length": length}, list(range(length + 1))
    elif kind == "tree":
        edges = draw(prufer_trees())
        graph, vertices = {"kind": kind, "edges": edges}, list(range(len(edges) + 1))
    else:
        graph = {"kind": kind, "rows": 3, "cols": 3}
        vertices = [[r, c] for r in range(3) for c in range(3)]
    pairs = st.lists(st.sampled_from(vertices), min_size=2, max_size=2)
    return {"graph": graph, "requests": draw(st.lists(pairs, max_size=7, unique_by=str))}


@st.composite
def sized_tapes(draw):
    bits = draw(st.integers(0, 24))
    digits = -(-bits // 4)
    return {"bits": bits, "hex": draw(st.text("0123456789abcdef", min_size=digits,
                                              max_size=digits))}


INSTANCES = st.one_of(
    hosted_requests(),
    st.fixed_dictionaries({"graph": GRAPHS, "requests": REQUESTS}),
    ANY_JSON,
)
TAPES = st.one_of(
    sized_tapes(),
    st.fixed_dictionaries({"bits": SMALL | st.integers(0, 40) | ANY_JSON,
                           "hex": st.text(string.hexdigits + "xz", max_size=12) | ANY_JSON}),
    ANY_JSON,
)


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))  # an uncaught exception fails the test
    assert rc in (0, 2), (argv, rc, err.getvalue())
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
    return rc, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(INSTANCES, TAPES)
def test_any_json_input_exits_0_or_2_without_a_traceback(instance, tape):
    with tempfile.TemporaryDirectory() as tmp:
        inst, tape_file, own_tape = (str(Path(tmp) / n) for n in ("i.json", "t.json", "o.json"))
        Path(inst).write_text(json.dumps(instance))
        Path(tape_file).write_text(json.dumps(tape))
        _cli("run", "--instance", inst, "--alg", "greedy", "--seed", "0")
        _cli("run", "--instance", inst, "--alg", "greedy-lwdpa", "--seed", "0")
        _cli("verify", "--instance", inst)
        _cli("pack-s4", "--tree", inst)
        _cli("adversary", "--family", "tree", "--tree", inst, "--alg", "greedy", "--seed", "0")
        for problem in ("lwdpa", "cat"):
            _cli("advice", "--problem", problem, "--decode", "--instance", inst,
                 "--tape", tape_file, "--seed", "0")
            rc, out = _cli("advice", "--problem", problem, "--encode", "--instance", inst)
            if rc == 0:
                # a tape the encoder wrote decodes to its last bit
                Path(own_tape).write_text(out)
                rc, _ = _cli("advice", "--problem", problem, "--decode", "--instance", inst,
                             "--tape", own_tape, "--seed", "0")
                assert rc == 0
