"""Line coverage of ``src/priodpa`` by the test suite, with the standard library only.

Run from the repository root:

    python tests/linecov.py            # the whole suite
    python tests/linecov.py ARGS ...   # pytest arguments, such as one test file

A ``sys.settrace`` hook is installed before anything imports ``priodpa``, so
module-level statements and ``def`` lines count as reached; then pytest
runs in this process.  The hook records the lines executed in the package's
files and traces no frame of other code.  Both trace functions are
module-level: a trace function that reached itself through a closure
would put a reference cycle on every traced frame, and the suite's
no-cyclic-garbage tests would fail.

Statements are read with ``ast``.  Docstrings, ``global`` and ``nonlocal``
make no code and are not counted, and a decorated ``def`` or ``class``
starts at its first decorator.  A statement is reached when any line of its
head runs: the lines from its start to the line before its first nested
statement, or to its end if it has none.  Each unreached statement is
printed per module; those listed in ``tests/linecov_keep.txt`` are marked
as kept.  The exit code is 0 when pytest passes and every unreached
statement is kept, and 1 otherwise.  Pytest does not collect this script
(its name does not start with ``test_``).
"""

import ast
import re
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "priodpa"
KEEP = ROOT / "tests" / "linecov_keep.txt"

# module:scope: statement's first line  # reason
_ENTRY = re.compile(r"(?P<module>[\w.]+\.py):(?P<scope>[\w.<>]+): (?P<text>.+?)  # (?P<reason>.+)")

_PREFIX = str(PACKAGE) + "/"
_hits = defaultdict(set)  # file name -> the line numbers that ran


def _trace_line(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_line


def _trace_call(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PREFIX):
        return _trace_line
    return None


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
    first line reads ``text``."""
    return [n for n, (s, t, _) in statements(module).items() if (s, t) == (scope, text)]


def main(args):
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
    total = missing = held = 0
    for path in sorted(PACKAGE.glob("*.py")):
        hit = _hits[str(path)]
        stmts = statements(path.name)
        unreached = [(n, text) for n, (_, text, head) in sorted(stmts.items())
                     if hit.isdisjoint(head)]
        total += len(stmts)
        if unreached:
            print(f"{path.name}: {len(unreached)} of {len(stmts)} statements unreached")
        for n, text in unreached:
            reason = kept[path.name].get(n)
            held += reason is not None
            missing += reason is None
            print(f"  {n:4} {'kept' if reason else 'MISSED':6} {text}")
    print(f"{total} statements, {held + missing} unreached: {held} kept, {missing} missed")
    if rc != 0:
        print(f"pytest exited {rc}")
    return 0 if rc == 0 and missing == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
