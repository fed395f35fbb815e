"""Tests for tools/lint_repro.py — the repo invariant linter.

Each rule gets a positive (fires on bad code) and a negative (quiet on
good code) check through the ``lint_source`` entry point, plus the
suppression lifecycle and the real-source-tree-is-clean gate that CI
relies on.
"""

import os
import sys
import textwrap

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")
sys.path.insert(0, os.path.abspath(TOOLS))

from lint_repro import (  # noqa: E402
    DENSE_WHITELIST,
    iter_python_files,
    lint_file,
    lint_source,
)


def lint(code, path="src/repro/example.py"):
    return lint_source(textwrap.dedent(code), path)


def rules_of(violations):
    return [violation.rule for violation in violations]


# -- dense-materialization ---------------------------------------------


def test_toarray_flagged():
    violations = lint(
        """
        def scores(matrix):
            return matrix.toarray()
        """
    )
    assert rules_of(violations) == ["dense-materialization"]
    assert violations[0].line == 3
    assert "scores" in violations[0].message


def test_todense_flagged():
    assert rules_of(lint("x = m.todense()")) == ["dense-materialization"]


def test_dense_2d_allocation_flagged():
    violations = lint(
        """
        import numpy as np

        def build(n):
            return np.zeros((n, n))
        """
    )
    assert rules_of(violations) == ["dense-materialization"]


def test_dynamic_identity_flagged():
    assert rules_of(lint("import numpy as np\ns = np.identity(n)")) == [
        "dense-materialization"
    ]


def test_constant_and_1d_allocations_allowed():
    assert lint(
        """
        import numpy as np
        a = np.zeros(n)
        b = np.zeros((3, 4))
        c = np.ones(len(items))
        d = np.identity(5)
        e = np.full(n - old, 0.0)
        """
    ) == []


def test_whitelisted_function_may_densify():
    path, qualname = "src/repro/graph/matrices.py", "dense_rows"
    assert (os.path.join("repro", "graph", "matrices.py").replace(
        os.sep, "/"), qualname) in {
        (suffix, name) for suffix, name in DENSE_WHITELIST
    }
    code = """
    import numpy as np

    def dense_rows(matrix, indices):
        rows = np.zeros((len(indices), matrix.shape[1]))
        return rows
    """
    assert lint(code, path=path) == []
    # The same code outside the whitelisted (path, qualname) is flagged.
    assert rules_of(lint(code, path="src/repro/other.py")) == [
        "dense-materialization"
    ]


# -- lock-discipline ---------------------------------------------------


def test_matmul_under_lock_flagged():
    violations = lint(
        """
        def publish(self, left, right):
            with self._lock:
                self._cache = left @ right
        """
    )
    assert rules_of(violations) == ["lock-discipline"]


def test_multiply_under_lock_flagged():
    violations = lint(
        """
        def publish(self, left, right):
            with self._compiler_lock:
                self._cache = left.multiply(right)
        """
    )
    assert rules_of(violations) == ["lock-discipline"]


def test_matmul_outside_lock_allowed():
    assert lint(
        """
        def publish(self, left, right):
            product = left @ right
            with self._lock:
                self._cache = product
        """
    ) == []


def test_non_lock_with_allowed():
    assert lint(
        """
        def load(self, path, left, right):
            with open(path) as handle:
                return left @ right
        """
    ) == []


def test_callback_dispatch_under_lock_flagged():
    violations = lint(
        """
        def publish(self, event):
            with self._lock:
                self._callback(event)
        """
    )
    assert rules_of(violations) == ["lock-discipline"]
    assert "callback" in violations[0].message


def test_bare_callback_call_under_lock_flagged():
    violations = lint(
        """
        def notify(callback, event, lock):
            with lock:
                callback(event)
        """
    )
    assert rules_of(violations) == ["lock-discipline"]


def test_callback_dispatch_outside_lock_allowed():
    assert lint(
        """
        def publish(self, event):
            with self._lock:
                queued = list(self._events)
            for callback in queued:
                callback(event)
        """
    ) == []


def test_callback_reference_under_lock_allowed():
    # Storing or enqueueing a callback under a lock is the sanctioned
    # pattern; only *invoking* one there is a violation.
    assert lint(
        """
        def register(self, callback):
            with self._lock:
                self._callbacks.append(callback)
                hook = self._lookup(callback)
            hook()
        """
    ) == []


# -- int32-index -------------------------------------------------------


def test_np_int32_flagged():
    violations = lint(
        """
        import numpy as np
        indices = np.asarray(raw, dtype=np.int32)
        """
    )
    assert rules_of(violations) == ["int32-index"]


def test_dtype_string_int32_flagged():
    assert rules_of(
        lint("import numpy as np\nx = np.arange(5, dtype=\"int32\")")
    ) == ["int32-index"]


def test_astype_int32_flagged():
    assert rules_of(lint("y = x.astype(\"int32\")")) == ["int32-index"]


def test_int64_allowed():
    assert lint(
        """
        import numpy as np
        a = np.asarray(raw, dtype=np.int64)
        b = x.astype("int64")
        """
    ) == []


# -- exception-taxonomy ------------------------------------------------


def test_bare_valueerror_in_public_module_flagged():
    violations = lint(
        """
        def bind(name):
            raise ValueError("bad " + name)
        """,
        path="src/repro/api/session.py",
    )
    assert rules_of(violations) == ["exception-taxonomy"]


def test_bare_keyerror_in_server_module_flagged():
    assert rules_of(
        lint("raise KeyError(node)", path="src/repro/server/app.py")
    ) == ["exception-taxonomy"]


def test_reproerror_subclass_allowed_in_public_module():
    assert lint(
        """
        from repro.exceptions import ConfigurationError

        def bind(value):
            raise ConfigurationError("bad value {}".format(value))
        """,
        path="src/repro/api/session.py",
    ) == []


def test_bare_raise_and_typeerror_allowed_in_public_module():
    assert lint(
        """
        def convert(value):
            try:
                return int(value)
            except OverflowError:
                raise
            finally:
                pass

        def check(value):
            raise TypeError("programming error")
        """,
        path="src/repro/server/protocol.py",
    ) == []


def test_valueerror_outside_public_modules_allowed():
    assert lint(
        "raise ValueError('internal')", path="src/repro/lang/plan.py"
    ) == []


# -- private-scipy ------------------------------------------------------


@pytest.mark.parametrize(
    "code",
    [
        "import scipy.sparse._sparsetools",
        "from scipy.sparse._sparsetools import csr_matmat",
        "from scipy.sparse import _sparsetools",
        "from scipy.sparse._sputils import get_index_dtype",
    ],
)
def test_private_scipy_import_flagged(code):
    violations = lint(code, path="src/repro/lang/matrix_semantics.py")
    assert rules_of(violations) == ["private-scipy"]


def test_private_scipy_import_allowed_in_matrices_module():
    assert lint(
        "from scipy.sparse import _sparsetools",
        path="src/repro/graph/matrices.py",
    ) == []


def test_public_scipy_imports_allowed():
    assert lint(
        """
        import scipy.sparse as sp
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import spsolve
        from ._private import helper
        """
    ) == []


def test_private_scipy_import_waived():
    assert lint(
        """
        # repro-lint: ok(private-scipy) pinned by the oldest-deps CI job
        from scipy.sparse import _sparsetools
        """
    ) == []


# -- private-graph ------------------------------------------------------


@pytest.mark.parametrize(
    "attribute",
    ["_out", "_ids", "_types", "_index", "_position_lists", "_writes"],
)
def test_private_graph_read_flagged(attribute):
    violations = lint(
        """
        def degree(database, node):
            return database.{}
        """.format(attribute),
        path="src/repro/lang/plan.py",
    )
    assert rules_of(violations) == ["private-graph"]
    assert "degree" in violations[0].message


@pytest.mark.parametrize(
    "path", ["src/repro/graph/database.py", "src/repro/graph/matrices.py"]
)
def test_private_graph_read_allowed_in_owner_modules(path):
    assert lint("types = database._types", path=path) == []


def test_private_graph_own_attributes_allowed():
    assert lint(
        """
        class Table:
            def size(self):
                return len(self._index) + len(self._types)
        """
    ) == []


def test_private_graph_read_waived():
    assert lint(
        """
        # repro-lint: ok(private-graph) a debugging dump of raw positions
        raw = database._out
        """
    ) == []


# -- suppressions ------------------------------------------------------


def test_same_line_suppression():
    assert lint(
        """
        x = m.toarray()  # repro-lint: ok(dense-materialization) tiny fixture
        """
    ) == []


def test_previous_line_suppression():
    assert lint(
        """
        # repro-lint: ok(dense-materialization) tiny fixture matrix
        x = m.toarray()
        """
    ) == []


def test_suppression_is_rule_specific():
    violations = lint(
        """
        # repro-lint: ok(int32-index) wrong rule for this line
        x = m.toarray()
        """
    )
    # The finding survives AND the waiver is reported as unused.
    assert sorted(rules_of(violations)) == [
        "dense-materialization",
        "unused-suppression",
    ]


def test_unused_suppression_flagged():
    violations = lint(
        """
        # repro-lint: ok(dense-materialization) nothing dense here
        x = 1
        """
    )
    assert rules_of(violations) == ["unused-suppression"]


def test_suppression_requires_reason():
    violations = lint(
        """
        # repro-lint: ok(dense-materialization)
        x = m.toarray()
        """
    )
    assert "unused-suppression" in rules_of(violations)
    assert "dense-materialization" in rules_of(violations)


def test_unknown_rule_in_suppression_flagged():
    violations = lint("# repro-lint: ok(no-such-rule) whatever")
    assert rules_of(violations) == ["unused-suppression"]


def test_syntax_error_reported_not_raised():
    violations = lint_source("def broken(:\n", "src/repro/x.py")
    assert rules_of(violations) == ["syntax"]


# -- the real tree is clean --------------------------------------------


@pytest.mark.parametrize("tree", ["src"])
def test_source_tree_is_clean(tree):
    root = os.path.join(os.path.dirname(__file__), os.pardir, tree)
    violations = []
    for path in iter_python_files([os.path.abspath(root)]):
        violations.extend(lint_file(path))
    assert violations == [], "\n".join(
        "{}:{}: {}: {}".format(v.path, v.line, v.rule, v.message)
        for v in violations
    )
