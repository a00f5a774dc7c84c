"""Byte-for-byte replay of recorded CLI transcripts.

``data/golden/cases.json`` lists each command line (with ``{data}`` standing
for ``tests/data``) and its exit code; ``data/golden/<name>.out`` holds the
exact stdout it printed.  Every command that takes ``--seed`` passes it, so
the ``ms`` column is 0 and the output is deterministic.  Each case goes
through the same ``replay`` as ``python tests/replay_goldens.py``; a
failure lists which of the exit code, stderr and stdout differ.

The whole replay also runs in a subprocess under each supported minor
version of Python, and under this interpreter with two string-hash seeds,
so no transcript depends on the interpreter or on set and dict order of
strings.  Interpreters are looked up among pyenv's versions
(``$PYENV_ROOT``, or ``~/.pyenv``) and then on ``PATH``; one that is not
found is a skip that says so.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from replay_goldens import CASES, ROOT, replay

# the minor versions from the floor in pyproject.toml up
MINORS = ("3.10", "3.11", "3.12", "3.13")


def _interpreter(minor):
    """The newest pyenv build of ``minor``, else ``python<minor>`` on PATH, else None."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    builds = [p for p in versions.glob(f"{minor}.*/bin/python") if p.parts[-3].split(".")[2].isdigit()]
    if builds:
        return str(max(builds, key=lambda p: int(p.parts[-3].split(".")[2])))
    return shutil.which(f"python{minor}")


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_transcript_is_byte_identical(case):
    assert replay(case) == []


@pytest.mark.parametrize("python, hashseed", [(m, None) for m in MINORS] + [("this", "0"), ("this", "1")],
                         ids=[f"python{m}" for m in MINORS] + ["hashseed-0", "hashseed-1"])
def test_every_transcript_replays_under_each_interpreter(python, hashseed):
    exe = sys.executable if python == "this" else _interpreter(python)
    if exe is None:
        pytest.skip(f"no Python {python} interpreter found")
    env = dict(os.environ)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run([exe, str(ROOT / "tests" / "replay_goldens.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    version = ".".join(map(str, sys.version_info[:2])) if python == "this" else python
    assert proc.stdout.startswith(f"{len(CASES)} of {len(CASES)} golden cases match under Python {version}.")
