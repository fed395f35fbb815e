"""The chase: repairing a database to satisfy full tgds.

Section 3 shows that a schema's constraints determine its invertible
structural variations — but real data rarely arrives constraint-clean.
The chase is the classic procedure that *makes* an instance satisfy a
set of tgds by adding the implied facts: while some constraint has a
premise match whose conclusion is missing, add the conclusion edges.

We implement the chase for **full tgds with label/reversed-label
conclusions** (exactly the constraint class Proposition 1 derives from
invertible transformations).  For full tgds the chase always terminates:
the node set is fixed, so the edge set can only grow to a finite bound.

Typical uses:

* make a scraped dataset eligible for a catalog transformation
  (``chase(db, derived_source_constraints(mapping))``);
* compute derived labels — e.g. BioMed's ``*-indirect`` closure is one
  chase step;
* check how far from constraint-clean a dataset is
  (:func:`chase_delta`).
"""

from repro.constraints.evaluation import match_conjunctive
from repro.constraints.premise_graph import normalize_atoms
from repro.exceptions import ConstraintError
from repro.graph.matrices import MatrixView
from repro.lang.ast import Label, Reverse


def _conclusion_edges(constraint, binding):
    """The ground edges a premise match obliges the database to contain."""
    edges = []
    for source, pattern, target in normalize_atoms(constraint.conclusion):
        if isinstance(pattern, Label):
            label = pattern.name
            endpoints = (binding.get(source), binding.get(target))
        elif isinstance(pattern, Reverse) and isinstance(
            pattern.operand, Label
        ):
            label = pattern.operand.name
            endpoints = (binding.get(target), binding.get(source))
        else:
            raise ConstraintError(
                "chase supports single-label conclusions only, got "
                "({}, {}, {})".format(source, pattern, target)
            )
        if None in endpoints:
            raise ConstraintError(
                "chase supports full tgds only; {} has existential "
                "conclusion variables".format(constraint)
            )
        edges.append((endpoints[0], label, endpoints[1]))
    return edges


def chase(database, constraints, max_rounds=None):
    """Chase a copy of ``database`` with full tgds until all are satisfied.

    Parameters
    ----------
    constraints:
        Iterable of full :class:`Tgd` with single-label conclusion atoms.
    max_rounds:
        Safety bound on fixpoint rounds; defaults to
        ``len(labels) * num_nodes**2 + 1`` (the trivial edge-count bound,
        never reached in practice).

    Each round matches every premise on one view of the round's
    database, collects the conclusion edges it lacks, then writes them.
    Returns the chased database (new edges only; the chase of full tgds
    never adds nodes); ``database`` itself is not written.
    """
    constraints = list(constraints)
    for constraint in constraints:
        if not getattr(constraint, "is_full", lambda: False)():
            raise ConstraintError(
                "chase supports full tgds only: {}".format(constraint)
            )
    result = database.copy()
    if max_rounds is None:
        max_rounds = (
            len(result.schema.labels) * max(result.num_nodes(), 1) ** 2 + 1
        )

    for _ in range(max_rounds):
        view = MatrixView(result)
        missing = dict.fromkeys(  # an insertion-ordered set
            edge
            for constraint in constraints
            for binding in match_conjunctive(view, constraint.premise)
            for edge in _conclusion_edges(constraint, binding)
            if not result.has_edge(*edge)
        )
        if not missing:
            return result
        result.add_edges(missing)
    raise ConstraintError(
        "chase did not converge within {} rounds".format(max_rounds)
    )


def chase_delta(database, constraints):
    """Edges the chase would add — a constraint-violation measure.

    Returns a set of ``(source, label, target)`` triples; empty iff the
    database already satisfies every constraint.
    """
    chased = chase(database, constraints)
    return chased.edge_set() - database.edge_set()


def repair_report(database, constraints):
    """Human-readable summary of how constraint-clean a database is."""
    constraints = list(constraints)
    delta = chase_delta(database, constraints)
    by_label = {}
    for _, label, _ in delta:
        by_label[label] = by_label.get(label, 0) + 1
    lines = [
        "chase delta: {} missing edges over {} constraints".format(
            len(delta), len(constraints)
        )
    ]
    for label in sorted(by_label):
        lines.append("  {:<24s} {}".format(label, by_label[label]))
    return "\n".join(lines)
