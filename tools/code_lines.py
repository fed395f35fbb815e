#!/usr/bin/env python3
"""Count lines of code: non-blank lines outside comments and docstrings.

Pure stdlib (``ast`` + ``tokenize``).  A line counts when a token other
than a comment covers it and the line is not blank; module, class and
function docstrings are excluded whole.  Every other string literal is
code, so a multi-line string counts its non-blank lines.

Usage::

    python tools/code_lines.py [path ...]     # default: src

Prints one ``count  path`` line per file, then ``count  total``.
"""

import argparse
import ast
import io
import sys
import tokenize

from lint_repro import iter_python_files

#: Tokens that carry no code: layout, comments and the file frame.
_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        if ast.get_docstring(node, clean=False) is None:
            continue
        first = node.body[0]
        lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source):
    """Non-blank lines of ``source`` outside comments and docstrings."""
    covered = set()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for token in tokens:
        if token.type not in _NON_CODE:
            covered.update(range(token.start[0], token.end[0] + 1))
    covered -= _docstring_lines(ast.parse(source))
    lines = source.splitlines()
    return sum(1 for row in covered if lines[row - 1].strip())


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Count code lines (see module docstring)."
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to count (default: src)",
    )
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(iter_python_files(args.paths)):
        with open(path, encoding="utf-8") as handle:
            count = count_code_lines(handle.read())
        total += count
        print("{:6d}  {}".format(count, path))
    print("{:6d}  total".format(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
