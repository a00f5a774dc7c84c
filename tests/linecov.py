"""Line coverage of ``src/priodpa`` by the test suite, with the standard library only.

Run from the repository root:

    python tests/linecov.py            # the whole suite
    python tests/linecov.py ARGS ...   # pytest arguments, such as one test file

A ``sys.settrace`` hook is installed before anything imports ``priodpa``, so
module-level statements and ``def`` lines count as reached; then pytest
runs in this process.  The hook records the lines executed in the package's
files and traces no frame of other code.  All three trace functions are
module-level: a trace function that reached itself through a closure
would put a reference cycle on every traced frame, and the suite's
no-cyclic-garbage tests would fail.

A line runs when either arm of a conditional expression on it runs, so
arms are counted apart.  A frame whose code holds an instruction inside
an arm also traces opcodes (``f_trace_opcodes``), and the offsets that
run there are mapped through ``co_positions()`` to source spans: an arm
is taken when some instruction inside its span runs.  ``co_positions``
needs Python 3.11 or later, and so does this script.  Some interpreters
send no opcode events to a ``sys.settrace`` hook (Python 3.12.1 sends
none), and under them every arm would read untaken.  So before pytest
runs, one call of a one-line probe is traced with the same hook; when no
opcode event arrives, the script prints one line naming the interpreter
and exits 2.

Statements are read with ``ast``.  Docstrings, ``global`` and ``nonlocal``
make no code and are not counted, and a decorated ``def`` or ``class``
starts at its first decorator.  A statement is reached when any line of its
head runs: the lines from its start to the line before its first nested
statement, or to its end if it has none.  Each unreached statement is
printed per module, and so is each untaken arm; those listed in
``tests/linecov_keep.txt`` are marked as kept.  The exit code is 0 when
pytest passes and every unreached statement and untaken arm is kept, 1
otherwise, and 2 when the probe sees no opcode event.  Pytest does not
collect this script
(its name does not start with ``test_``).
"""

import ast
import re
import sys
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "priodpa"
KEEP = ROOT / "tests" / "linecov_keep.txt"

# module:scope: statement's first line  # reason
_ENTRY = re.compile(r"(?P<module>[\w.]+\.py):(?P<scope>[\w.<>]+): (?P<text>.+?)  # (?P<reason>.+)")

_PREFIX = str(PACKAGE) + "/"
_hits = defaultdict(set)  # file name -> the line numbers that ran
_ran = defaultdict(set)  # code holding an arm -> the offsets that ran in it
_holds_arm = {}  # code object -> whether an instruction of it is inside an arm


def _trace_line(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_line


def _trace_arms(frame, event, arg):
    if event == "opcode":
        _ran[frame.f_code].add(frame.f_lasti)
    elif event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
        # set here, not at the call event: Python 3.13 applies a flag set
        # at the call event only from the code's next call on
        frame.f_trace_opcodes = True
    return _trace_arms


def _trace_call(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(_PREFIX):
        return None
    holds = _holds_arm.get(code)
    if holds is None:
        spans = arms(Path(code.co_filename).name)
        holds = _holds_arm[code] = any(_inside(pos, spans) for pos in code.co_positions())
    return _trace_arms if holds else _trace_line


def _probe():
    return None


def _trace_probe(frame, event, arg):
    return _trace_arms if frame.f_code is _probe.__code__ else None


def opcode_events():
    """Whether this interpreter sends opcode events to ``_trace_arms``:
    one call of the one-line ``_probe`` is traced with it, and the offsets
    it ran are read and dropped.  The trace function in force before is
    put back."""
    previous = sys.gettrace()
    sys.settrace(_trace_probe)
    try:
        _probe()
    finally:
        sys.settrace(previous)
    return bool(_ran.pop(_probe.__code__, None))


def _inside(position, spans):
    """The spans among ``spans`` that hold the instruction at
    ``position``, a ``co_positions()`` entry."""
    line, end_line, col, end_col = position
    if line is None or col is None:
        return []
    return [s for s in spans if s[0] <= (line, col) and (end_line, end_col) <= s[1]]


def _is_docstring(node):
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
        and isinstance(node.value.value, str)


def _collect(body, scope, lines, out):
    for i, node in enumerate(body):
        if (i == 0 and _is_docstring(node)) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        decorators = getattr(node, "decorator_list", None)
        first = decorators[0].lineno if decorators else node.lineno
        nested = [getattr(node, f, []) for f in ("body", "orelse", "finalbody")]
        nested += [h.body for h in getattr(node, "handlers", [])]
        nested = [b for b in nested if b]
        last = min(b[0].lineno for b in nested) - 1 if nested else node.end_lineno
        out[first] = (scope, lines[first - 1].strip(), range(first, max(first, last) + 1))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
            _collect(node.body, inner, lines, out)
        else:
            for b in nested:
                _collect(b, scope, lines, out)


def statements(module):
    """The statements of ``src/priodpa/<module>``: each one's first line
    mapped to ``(scope, stripped text of that line, lines of its head)``,
    where the scope is the dotted name of the innermost ``def`` or
    ``class`` that holds it, or ``<module>``."""
    source = (PACKAGE / module).read_text()
    out = {}
    _collect(ast.parse(source).body, "<module>", source.splitlines(), out)
    return out


def _collect_arms(node, scope, source, out):
    if isinstance(node, ast.IfExp):
        text = " ".join(ast.get_source_segment(source, node).split())
        for which in ("body", "orelse"):
            arm = getattr(node, which)
            span = ((arm.lineno, arm.col_offset), (arm.end_lineno, arm.end_col_offset))
            out[span] = (scope, f"{text} [{which}]")
    inner = scope
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
    for child in ast.iter_child_nodes(node):
        # a def's decorators and defaults and a class's bases lie outside it
        in_body = inner != scope and child in node.body
        _collect_arms(child, inner if in_body else scope, source, out)


@lru_cache(maxsize=None)
def arms(module):
    """The arms of the conditional expressions of ``src/priodpa/<module>``:
    each arm's span, ``((line, column), (end line, end column))``, mapped
    to ``(scope, text)``.  The scope is named as a statement's is, and the
    text is the whole expression on one line followed by ``[body]`` for
    the arm taken when its test holds or ``[orelse]`` for the other."""
    source = (PACKAGE / module).read_text()
    out = {}
    _collect_arms(ast.parse(source), "<module>", source, out)
    return out


def keep_entries():
    """The entries of ``tests/linecov_keep.txt`` as ``(module, scope,
    text, reason)``; blank lines and ``#`` comments are skipped, and a line
    of any other shape raises ValueError."""
    entries = []
    for line in KEEP.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        m = _ENTRY.fullmatch(line)
        if not m:
            raise ValueError(f"not a keep entry: {line!r}")
        entries.append(m.group("module", "scope", "text", "reason"))
    return entries


def kept_lines(module, scope, text):
    """The first lines of the statements of ``module`` in ``scope`` whose
    first line reads ``text``, and the spans of its arms in ``scope``
    whose text is ``text``."""
    lines = [n for n, (s, t, _) in statements(module).items() if (s, t) == (scope, text)]
    return lines + [span for span, key in arms(module).items() if key == (scope, text)]


def taken_arms():
    """The spans of the arms that ran, by file name."""
    taken = defaultdict(set)
    for code, offsets in _ran.items():
        spans = arms(Path(code.co_filename).name)
        positions = list(code.co_positions())
        for offset in offsets:
            taken[code.co_filename].update(_inside(positions[offset // 2], spans))
    return taken


def main(args):
    if not opcode_events():
        print(f"Python {sys.version.split()[0]} ({sys.executable}) sends no opcode events"
              " to a sys.settrace hook, so no arm can be counted under it")
        return 2
    sys.settrace(_trace_call)
    try:
        import pytest

        rc = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    kept = defaultdict(dict)
    for module, scope, text, reason in keep_entries():
        for n in kept_lines(module, scope, text):
            kept[module][n] = reason
    taken = taken_arms()
    total = total_arms = missing = held = 0
    for path in sorted(PACKAGE.glob("*.py")):
        hit = _hits[str(path)]
        stmts = statements(path.name)
        unreached = [(n, n, text) for n, (_, text, head) in sorted(stmts.items())
                     if hit.isdisjoint(head)]
        spans = arms(path.name)
        untaken = [(span, span[0][0], text) for span, (_, text) in sorted(spans.items())
                   if span not in taken[str(path)]]
        total += len(stmts)
        total_arms += len(spans)
        if unreached:
            print(f"{path.name}: {len(unreached)} of {len(stmts)} statements unreached")
        if untaken:
            print(f"{path.name}: {len(untaken)} of {len(spans)} arms untaken")
        for key, n, text in unreached + untaken:
            reason = kept[path.name].get(key)
            held += reason is not None
            missing += reason is None
            print(f"  {n:4} {'kept' if reason else 'MISSED':6} {text}")
    print(f"{total} statements and {total_arms} arms, {held + missing} unreached or untaken:"
          f" {held} kept, {missing} missed")
    if rc != 0:
        print(f"pytest exited {rc}")
    return 0 if rc == 0 and missing == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
