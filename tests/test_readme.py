"""The README's library example runs and gives the values its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_matches_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(block, namespace)
    stated = {}
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if sep and comment.strip().isdigit():
            stated[code.strip()] = int(comment)
    assert stated == {'gain(sol, "length")': 5, 'brute_force_opt(inst, "length").optimum': 12}
    for expr, value in stated.items():
        assert eval(expr, namespace) == value
    assert [r.key for r in namespace["sol"].accepted] == [(4, 9)]  # "accepts (4, 9)"
