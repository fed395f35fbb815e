"""Tests for tools/code_lines.py — the code-line counter."""

import os
import sys
import textwrap

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")
sys.path.insert(0, os.path.abspath(TOOLS))

from code_lines import count_code_lines  # noqa: E402


def test_counts_code_but_not_comments_docstrings_or_blank_lines():
    source = textwrap.dedent(
        '''\
        """Module docstring,
        over two lines."""

        import os  # a trailing comment keeps its code line

        # A comment line.


        class Widget:
            """Class docstring."""

            size = 3

            def grow(self, by=1):
                """Function docstring,

                with a blank line inside.
                """
                text = """a multi-line string

                is code"""
                return (
                    self.size + by
                )
        '''
    )
    # import, class, size, def, text (2 non-blank rows), return (3 rows).
    assert count_code_lines(source) == 9


def test_empty_and_comment_only_sources_count_zero():
    assert count_code_lines("") == 0
    assert count_code_lines("# only a comment\n\n") == 0
