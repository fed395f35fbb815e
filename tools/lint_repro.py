#!/usr/bin/env python3
"""Repo invariant linter: mechanized checks for the rules the code review
kept re-litigating.  Pure stdlib (``ast`` + ``re``), no third-party deps,
so it runs anywhere CI has a Python.

Usage::

    python tools/lint_repro.py [path ...]     # default: src

Rules
-----
``dense-materialization``
    No ``.toarray()`` / ``.todense()`` and no dense n x n (or k x n)
    array allocation (``np.zeros((a, b))``, ``np.identity(n)``, ...)
    outside the whitelisted budget-guarded helpers below.  Everything
    else must stay sparse or route through
    :func:`repro.graph.matrices.dense_rows`.

``lock-discipline``
    No matrix products (``@`` / ``.multiply(...)``) lexically inside a
    ``with ..._lock:`` block.  The engine's contract is: compute outside
    the lock, publish under it; a matmul under a lock serializes every
    concurrent reader behind one multiplication.  Also: no callback
    dispatch (a call named ``callback`` / ``*_callback``) under a lock —
    user code invoked while a lock is held can block every other thread
    on it or deadlock by re-entering the library; hand events to a
    queue and invoke callbacks from a notifier thread instead (see
    :mod:`repro.streaming.subscription`).

``int32-index``
    No explicit 32-bit index construction (``np.int32``,
    ``dtype="int32"``, ``astype("int32")``).  SciPy upcasts CSR indices
    to int64 when nnz demands it; hand-built int32 indices silently
    overflow on large graphs instead.

``exception-taxonomy``
    Public modules (``src/repro/api``, ``src/repro/server``) must raise
    :class:`repro.exceptions.ReproError` subclasses, not bare
    ``KeyError`` / ``ValueError`` / ``IndexError``, so callers can catch
    the library taxonomy.  (``TypeError`` for caller programming errors
    is conventional and allowed.)

``private-scipy``
    Only ``repro/graph/matrices.py`` may import a private SciPy module
    (a dotted path with a ``_``-prefixed part, such as
    ``scipy.sparse._sparsetools``).  Private kernels can change
    signature between SciPy releases; one module owning them keeps the
    code a SciPy upgrade can break in one place.

``private-graph``
    Only ``repro/graph/database.py`` and ``repro/graph/matrices.py``
    may read a database's storage on an object other than ``self``:
    the edge index ``_out``, the node table ``_ids`` / ``_types`` /
    ``_index``, ``_position_lists``, which returns the live position
    sets, and the write counter ``_writes``, by which a lazy view
    tells whether its database still holds the view's version.
    Positions and their sets are an internal encoding that every
    public method translates to ids, and the counter means something
    only to the view that recorded it; anything else that reads them
    must be changed whenever they are.

Suppressions
------------
A finding is waived by a comment on the same line or the line above::

    # repro-lint: ok(<rule>) <reason>

The reason is mandatory, and an unused suppression is itself an error —
stale waivers must not outlive the code they excused.

Dense-materialization whitelist
-------------------------------
``DENSE_WHITELIST`` below is the repo's density audit, in code: every
site allowed to build a dense array, with the budget argument that
justifies it.  ROADMAP's "audit dense materialization" item is this
table — adding an entry *is* extending the audit, and reviews happen on
its diff.
"""

import argparse
import ast
import os
import re
import sys
from collections import namedtuple

#: Every site allowed to materialize a dense array, keyed by
#: (path suffix, dotted qualname), mapped to the budget argument that
#: justifies it.  This table is the density audit.
DENSE_WHITELIST = {
    ("repro/graph/matrices.py", "dense_rows"):
        "the budget-guarded k x n slice helper itself; callers pass "
        "query-batch row sets, never the full node range",
    ("repro/similarity/simrank.py", "simrank_matrix"):
        "SimRank is inherently dense n x n; the SimRank class guards "
        "with max_nodes before calling",
    ("repro/similarity/rwr.py", "RWR.score_rows"):
        "k x n output rows for a query batch (k = batch size)",
    ("repro/similarity/pattern_constrained.py", "PatternRWR.score_rows"):
        "k x n output rows for a query batch (k = batch size)",
    ("repro/similarity/neighborhood.py", "Katz.score_rows"):
        "k x n output rows for a query batch (k = batch size)",
    ("repro/lang/matrix_semantics.py", "pathsim_rows"):
        "k x n score block filled by direct CSR buffer reads; k is the "
        "query-batch size",
    ("repro/lang/matrix_semantics.py", "CommutingMatrixEngine.score_plans"):
        "k x n accumulator summed across the prepared patterns",
}

RULES = (
    "dense-materialization",
    "lock-discipline",
    "int32-index",
    "exception-taxonomy",
    "private-scipy",
    "private-graph",
)

#: The one module allowed to import private SciPy modules.
_PRIVATE_SCIPY_OWNER = "repro/graph/matrices.py"

#: The modules that own a graph database's storage, and its attributes.
_GRAPH_OWNERS = ("repro/graph/database.py", "repro/graph/matrices.py")
_GRAPH_STORAGE = {
    "_out", "_ids", "_types", "_index", "_position_lists", "_writes",
}

#: Exception names public api/server modules may not raise bare.
_BARE_EXCEPTIONS = {"KeyError", "ValueError", "IndexError"}

#: Modules the exception-taxonomy rule applies to (path substrings).
_PUBLIC_PREFIXES = ("repro/api/", "repro/server/")

_NUMPY_ALIASES = {"np", "numpy"}

_SUPPRESSION = re.compile(
    r"#\s*repro-lint:\s*ok\((?P<rule>[a-z0-9-]+)\)\s*(?P<reason>\S.*)?$"
)

Violation = namedtuple("Violation", ["path", "line", "rule", "message"])


def _posix(path):
    return path.replace(os.sep, "/")


def _is_whitelisted(path, qualname):
    posix = _posix(path)
    for (suffix, allowed), _reason in DENSE_WHITELIST.items():
        if posix.endswith(suffix) and qualname == allowed:
            return True
    return False


def _mentions_lock(node):
    """True when a with-item expression names something ``*_lock``."""
    for child in ast.walk(node):
        name = None
        if isinstance(child, ast.Attribute):
            name = child.attr
        elif isinstance(child, ast.Name):
            name = child.id
        if name is not None and (name == "lock" or name.endswith("_lock")):
            return True
    return False


def _constant_int(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, int)


def _dense_shape_tuple(node):
    """A literal shape tuple with >= 2 non-constant dimensions."""
    if not isinstance(node, ast.Tuple) or len(node.elts) < 2:
        return False
    dynamic = [e for e in node.elts if not _constant_int(e)]
    return len(dynamic) >= 2


class _Linter(ast.NodeVisitor):
    def __init__(self, path):
        self.path = path
        self.violations = []
        self._qualname = []
        self._lock_depth = 0
        self._public = any(
            prefix in _posix(path) for prefix in _PUBLIC_PREFIXES
        )

    def report(self, node, rule, message):
        self.violations.append(
            Violation(self.path, node.lineno, rule, message)
        )

    @property
    def qualname(self):
        return ".".join(self._qualname) or "<module>"

    # -- scope tracking -------------------------------------------------

    def _visit_scope(self, node):
        self._qualname.append(node.name)
        self.generic_visit(node)
        self._qualname.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_ClassDef = _visit_scope

    def _visit_with(self, node):
        locked = any(_mentions_lock(item.context_expr) for item in node.items)
        if locked:
            self._lock_depth += 1
        self.generic_visit(node)
        if locked:
            self._lock_depth -= 1

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    # -- rules ----------------------------------------------------------

    def _check_scipy_import(self, node, dotted):
        parts = dotted.split(".")
        if parts[0] != "scipy" or not any(
            part.startswith("_") for part in parts
        ):
            return
        if _posix(self.path).endswith(_PRIVATE_SCIPY_OWNER):
            return
        self.report(
            node,
            "private-scipy",
            "import of private SciPy module {} in {}; only {} may use "
            "SciPy internals".format(
                dotted, self.qualname, _PRIVATE_SCIPY_OWNER
            ),
        )

    def visit_Import(self, node):
        for alias in node.names:
            self._check_scipy_import(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module and not node.level:
            for alias in node.names:
                self._check_scipy_import(
                    node, "{}.{}".format(node.module, alias.name)
                )
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult) and self._lock_depth:
            self.report(
                node,
                "lock-discipline",
                "matrix product inside a `with ..._lock:` block in "
                "{}; compute outside the lock, publish under it".format(
                    self.qualname
                ),
            )
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
        self._check_callback_dispatch(node, func)
        self._check_int32_args(node)
        self.generic_visit(node)

    def _check_callback_dispatch(self, node, func):
        if not self._lock_depth:
            return
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name is not None and (
            name == "callback" or name.endswith("_callback")
        ):
            self.report(
                node,
                "lock-discipline",
                "callback dispatched inside a `with ..._lock:` block in "
                "{}; enqueue the event and invoke callbacks from a "
                "notifier thread with no lock held".format(self.qualname),
            )

    def _check_attribute_call(self, node, func):
        if func.attr in ("toarray", "todense"):
            if not _is_whitelisted(self.path, self.qualname):
                self.report(
                    node,
                    "dense-materialization",
                    ".{}() in {} is not whitelisted; stay sparse or use "
                    "repro.graph.matrices.dense_rows".format(
                        func.attr, self.qualname
                    ),
                )
            return
        if func.attr == "multiply" and self._lock_depth:
            self.report(
                node,
                "lock-discipline",
                ".multiply() inside a `with ..._lock:` block in "
                "{}; compute outside the lock, publish under it".format(
                    self.qualname
                ),
            )
        if (
            isinstance(func.value, ast.Name)
            and func.value.id in _NUMPY_ALIASES
        ):
            self._check_numpy_alloc(node, func.attr)
        if func.attr == "astype" and any(
            isinstance(arg, ast.Constant) and arg.value == "int32"
            for arg in node.args
        ):
            self.report(
                node,
                "int32-index",
                'astype("int32") in {}; indices must stay 64-bit '
                "safe".format(self.qualname),
            )

    def _check_numpy_alloc(self, node, attr):
        if attr == "int32":
            return  # handled as an Attribute read in visit_Attribute
        dense = False
        if attr in ("identity", "eye"):
            dense = bool(node.args) and not _constant_int(node.args[0])
        elif attr in ("zeros", "empty", "ones", "full"):
            dense = bool(node.args) and _dense_shape_tuple(node.args[0])
        if dense and not _is_whitelisted(self.path, self.qualname):
            self.report(
                node,
                "dense-materialization",
                "np.{}(...) allocates a dense 2-D array in {} outside "
                "the whitelist; see DENSE_WHITELIST in "
                "tools/lint_repro.py".format(attr, self.qualname),
            )

    def _check_int32_args(self, node):
        for keyword in node.keywords:
            value = keyword.value
            if (
                keyword.arg == "dtype"
                and isinstance(value, ast.Constant)
                and value.value == "int32"
            ):
                self.report(
                    node,
                    "int32-index",
                    'dtype="int32" in {}; indices must stay 64-bit '
                    "safe".format(self.qualname),
                )

    def visit_Attribute(self, node):
        on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
        if (
            node.attr in _GRAPH_STORAGE
            and not on_self
            and not _posix(self.path).endswith(_GRAPH_OWNERS)
        ):
            self.report(
                node,
                "private-graph",
                "read of graph storage .{} in {}; only {} may read it "
                "on another object".format(
                    node.attr, self.qualname, " and ".join(_GRAPH_OWNERS)
                ),
            )
        if (
            node.attr == "int32"
            and isinstance(node.value, ast.Name)
            and node.value.id in _NUMPY_ALIASES
        ):
            self.report(
                node,
                "int32-index",
                "np.int32 in {}; indices must stay 64-bit safe".format(
                    self.qualname
                ),
            )
        self.generic_visit(node)

    def visit_Raise(self, node):
        if self._public and node.exc is not None:
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            if (
                isinstance(target, ast.Name)
                and target.id in _BARE_EXCEPTIONS
            ):
                self.report(
                    node,
                    "exception-taxonomy",
                    "public module raises bare {} in {}; raise a "
                    "repro.exceptions.ReproError subclass".format(
                        target.id, self.qualname
                    ),
                )
        self.generic_visit(node)


def _collect_suppressions(text, path):
    """``{line: rule}`` plus violations for malformed waivers."""
    suppressions = {}
    malformed = []
    for number, line in enumerate(text.splitlines(), start=1):
        if "repro-lint" not in line:
            continue
        match = _SUPPRESSION.search(line)
        if match is None:
            malformed.append(
                Violation(
                    path,
                    number,
                    "unused-suppression",
                    "malformed repro-lint comment; expected "
                    "`# repro-lint: ok(<rule>) <reason>`",
                )
            )
            continue
        rule, reason = match.group("rule"), match.group("reason")
        if rule not in RULES:
            malformed.append(
                Violation(
                    path,
                    number,
                    "unused-suppression",
                    "unknown rule {!r} in repro-lint comment".format(rule),
                )
            )
        elif not reason:
            malformed.append(
                Violation(
                    path,
                    number,
                    "unused-suppression",
                    "repro-lint suppression needs a reason",
                )
            )
        else:
            suppressions[number] = rule
    return suppressions, malformed


def lint_source(text, path="<string>"):
    """Lint one module's source text; returns a list of Violations."""
    suppressions, violations = _collect_suppressions(text, path)
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as error:
        violations.append(
            Violation(
                path,
                error.lineno or 0,
                "syntax",
                "cannot parse: {}".format(error.msg),
            )
        )
        return violations

    linter = _Linter(path)
    linter.visit(tree)

    used = set()
    for violation in linter.violations:
        waived = False
        for line in (violation.line, violation.line - 1):
            if suppressions.get(line) == violation.rule:
                used.add(line)
                waived = True
                break
        if not waived:
            violations.append(violation)

    for line, rule in sorted(suppressions.items()):
        if line not in used:
            violations.append(
                Violation(
                    path,
                    line,
                    "unused-suppression",
                    "suppression for {!r} matches no finding; remove "
                    "it".format(rule),
                )
            )
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))


def lint_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path)


def iter_python_files(paths):
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, _dirs, files in os.walk(path):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Check repo invariants (see module docstring)."
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    args = parser.parse_args(argv)
    violations = []
    checked = 0
    for path in iter_python_files(args.paths):
        checked += 1
        violations.extend(lint_file(path))
    for violation in violations:
        print(
            "{}:{}: {}: {}".format(
                violation.path, violation.line, violation.rule,
                violation.message,
            )
        )
    print(
        "lint_repro: {} file(s), {} violation(s)".format(
            checked, len(violations)
        ),
        file=sys.stderr,
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
