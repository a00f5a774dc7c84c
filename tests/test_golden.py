"""Byte-for-byte replay of recorded CLI transcripts.

``data/golden/cases.json`` lists each command line (with ``{data}`` standing
for ``tests/data``) and its exit code; ``data/golden/<name>.out`` holds the
exact stdout it printed.  Every command that takes ``--seed`` passes it, so
the ``ms`` column is 0 and the output is deterministic.  Each case goes
through the same ``replay`` as ``python tests/replay_goldens.py``; a
failure lists which of the exit code, stderr and stdout differ.
"""

import pytest

from replay_goldens import CASES, replay


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_transcript_is_byte_identical(case):
    assert replay(case) == []
