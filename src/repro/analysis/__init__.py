"""Static analysis for similarity patterns.

:class:`PatternTypeChecker` checks a pattern against a schema alone:
endpoint-type errors and redundant spellings, each a spanned
:class:`Diagnostic`.  Two consumers:

* the plan compiler, which calls
  :meth:`PatternTypeChecker.assert_well_typed` on every new pattern to
  reject ill-typed ones *before* any matrix work (surfaced as
  :class:`repro.exceptions.PatternTypeError` carrying the diagnostic
  list — the CLI and the HTTP 400 body both render it);
* ``CommutingMatrixEngine.check`` and ``explain`` (hence ``repro
  check`` and ``session.check()``), which report the warning tier too
  and add the two density warnings from the planner's nnz estimate
  over the engine's own view.

Spans index into :func:`render_with_spans`, the AST printer behind
``str()`` (defined in :mod:`repro.lang.ast`, re-exported here).

The repo-invariant linter (dense-materialization, lock discipline,
index width, exception taxonomy) is a separate stdlib-``ast`` tool at
``tools/lint_repro.py`` — it checks this codebase, not patterns.
"""

from repro.analysis.diagnostics import (
    ERROR,
    WARNING,
    Diagnostic,
    has_errors,
    sort_diagnostics,
)
from repro.analysis.typecheck import ANY, Endpoints, PatternTypeChecker
from repro.lang.ast import render_with_spans

__all__ = [
    "ANY",
    "ERROR",
    "WARNING",
    "Diagnostic",
    "Endpoints",
    "PatternTypeChecker",
    "has_errors",
    "render_with_spans",
    "sort_diagnostics",
]
