"""Every entry of ``tests/linecov_keep.txt`` still names one statement or arm.

``python tests/linecov.py`` traces the whole suite, so it is not part of
it.  This is the check of its keep-list that needs no tracing, so a
refactor that moves or rewrites a kept line fails here first.  It also
checks the script's opcode-event probe under the running interpreter.
"""

import sys

import linecov
from linecov import PACKAGE, arms, keep_entries, kept_lines, opcode_events


def test_each_kept_line_names_exactly_one_statement_of_its_module():
    entries = keep_entries()
    assert entries
    for module, scope, text, reason in entries:
        assert len(kept_lines(module, scope, text)) == 1, (module, scope, text)
        assert reason.strip()


def test_each_conditional_expression_has_two_arms_named_by_its_text():
    texts = [t for _, t in arms("oracle.py").values()]
    assert texts == ["(1, 0) if largest else (0, 1) [body]", "(1, 0) if largest else (0, 1) [orelse]"]
    (span,) = kept_lines("oracle.py", "_extreme_opt", texts[1])
    (line, col), (end_line, end_col) = span
    assert line == end_line
    assert (PACKAGE / "oracle.py").read_text().splitlines()[line - 1][col:end_col] == "(0, 1)"


def test_the_probe_sees_opcode_events_and_puts_the_trace_function_back():
    before = sys.gettrace()
    assert opcode_events()
    assert sys.gettrace() is before


def test_an_interpreter_without_opcode_events_exits_2_in_one_line(monkeypatch, capsys):
    monkeypatch.setattr(linecov, "opcode_events", lambda: False)
    assert linecov.main([]) == 2
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and f"Python {sys.version.split()[0]} " in out
