"""Every mutant in ``tests/mutants.py`` still names a line of the code.

``python tests/mutants.py`` reports a mutant whose original text is gone
or repeated as stale, but it runs pytest once per mutant and so is not
part of the suite.  This is the same check without running anything, so
a refactor that moves a mutated line fails here first.
"""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_names_one_line_of_its_module(name):
    module, original, mutated, test_file = MUTANTS[name]
    text = (ROOT / "src" / "priodpa" / module).read_text()
    assert text.count(original) == 1
    assert original != mutated
    assert (ROOT / test_file).is_file()
