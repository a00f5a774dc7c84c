"""Byte-for-byte replay of recorded CLI transcripts.

``data/golden/cases.json`` lists each command line (with ``{data}`` standing
for ``tests/data``) and its exit code; ``data/golden/<name>.out`` holds the
exact stdout it printed.  Every command passes ``--seed`` so the ``ms``
column is 0 and the output is deterministic.
"""

import json

import pytest

from priodpa import cli

from helpers import DATA

GOLDEN = DATA / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_transcript_is_byte_identical(case, capsys):
    argv = [a.replace("{data}", str(DATA)) for a in case["argv"]]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert (rc, captured.err) == (case["rc"], "")
    expected = (GOLDEN / f"{case['name']}.out").read_bytes().decode()
    assert captured.out == expected
