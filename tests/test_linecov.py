"""Every entry of ``tests/linecov_keep.txt`` still names one statement.

``python tests/linecov.py`` traces the whole suite, so it is not part of
it.  This is the check of its keep-list that needs no tracing, so a
refactor that moves or rewrites a kept line fails here first.
"""

from linecov import keep_entries, kept_lines


def test_each_kept_line_names_exactly_one_statement_of_its_module():
    entries = keep_entries()
    assert entries
    for module, scope, text, reason in entries:
        assert len(kept_lines(module, scope, text)) == 1, (module, scope, text)
        assert reason.strip()
