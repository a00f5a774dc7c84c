"""Replay the golden CLI transcripts under the interpreter that runs this.

Run from anywhere, with any Python the package supports:

    python tests/replay_goldens.py            # every case
    python tests/replay_goldens.py NAME ...   # the named ones

It reads ``tests/data/golden/cases.json`` and the ``<name>.out`` files,
calls ``priodpa.cli.main`` in process for each case, and checks the exit
code, an empty stderr and stdout byte for byte; ``tests/test_golden.py``
runs each case through the same ``replay``.
It imports the package from this checkout's ``src/`` and needs only the
standard library, so it runs where pytest is not installed.  After the
cases it also checks that nothing loaded OpenSSL's ``_hashlib``: the
package takes SHA-256 from CPython's built-in module, and this process
imports nothing else that would load it.  The exit code is 0 when every
case matches and ``_hashlib`` is not loaded, 1 otherwise, and 2 for an
unknown case name.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
GOLDEN = DATA / "golden"

sys.path.insert(0, str(ROOT / "src"))

from priodpa import cli  # noqa: E402  (after the path is set)

CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def replay(case):
    """The mismatches of one case, as short descriptions."""
    argv = [a.replace("{data}", str(DATA)) for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its argv this way
            rc = exc.code
    problems = []
    if rc != case["rc"]:
        problems.append(f"exit code {rc}, not {case['rc']}")
    if err.getvalue():
        problems.append(f"stderr {err.getvalue().strip()!r}")
    if out.getvalue().encode("utf-8") != (GOLDEN / f"{case['name']}.out").read_bytes():
        problems.append("stdout differs")
    return problems


def main(names):
    known = {c["name"] for c in CASES}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}")
        return 2
    cases = [c for c in CASES if c["name"] in names] if names else CASES
    failed = 0
    for case in cases:
        problems = replay(case)
        failed += bool(problems)
        if problems:
            print(f"FAILED {case['name']}: {'; '.join(problems)}")
    openssl = "_hashlib" in sys.modules
    if openssl:
        print("FAILED: OpenSSL's _hashlib is loaded")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"{len(cases) - failed} of {len(cases)} golden cases match under Python {version}")
    return 1 if failed or openssl else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
