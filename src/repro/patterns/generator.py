"""Algorithm 1 — PatternGenerator.

Turn a user's *simple pattern* into the set ``E_p`` of RREs whose
aggregated similarity score is structurally robust (Proposition 5):

* the original pattern is always in the set;
* each constraint-matched sub-pattern may be replaced by the RREs
  Algorithm 2 derives from the constraint's premise graph;
* labels introduced by *defining* constraints (conclusion label absent
  from the premise) are replaced by their premise traversals directly
  (Section 6.1).

The worklist mirrors the paper's pseudocode: states are ``(r, i)`` where
``r`` is the RRE built so far and ``i`` the number of consumed input
steps; at each state we either keep the original next label or jump over
a rewritten sub-pattern.
"""

from repro.exceptions import ConstraintError
from repro.lang.ast import concat, simple_pattern, simple_steps
from repro.lang.parser import as_patterns
from repro.patterns.filters import select_constraints, split_constraints
from repro.patterns.per_constraint import label_definitions, mod_pattern_refs


class GenerationResult:
    """The output of :func:`generate_patterns` with provenance counters."""

    def __init__(self, patterns, constraints_used, truncated):
        self.patterns = list(patterns)
        self.constraints_used = constraints_used
        self.truncated = truncated

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self):
        return len(self.patterns)

    def __repr__(self):
        return "GenerationResult(patterns={}, constraints_used={}, truncated={})".format(
            len(self.patterns), self.constraints_used, self.truncated
        )


def generate_patterns(
    pattern,
    constraints,
    use_filters=True,
    max_patterns=128,
    max_replacements_per_constraint=256,
):
    """Run Algorithm 1 on a simple pattern.

    Parameters
    ----------
    pattern:
        The user's simple pattern (string or AST); only concatenation and
        reverse traversal are allowed, per Section 5.
    constraints:
        The schema's tgd constraints.
    use_filters:
        Apply the Section-6 optimizations.  Disabling them reproduces the
        paper's "takes days to finish" configuration on large constraint
        sets (bounded here by ``max_patterns``).
    max_patterns:
        Cap on ``|E_p|``; generation stops (and flags ``truncated``) when
        reached.

    Returns a :class:`GenerationResult`; ``result.patterns[0]`` is always
    the input pattern.
    """
    pattern = as_patterns([pattern])[0]
    try:
        steps = simple_steps(pattern)
    except ValueError as error:
        raise ConstraintError(
            "Algorithm 1 takes a simple pattern: {}".format(error)
        ) from None
    if not steps:
        raise ConstraintError("Algorithm 1 needs a non-empty simple pattern")

    selected = select_constraints(
        list(constraints), pattern, use_filters=use_filters
    )
    recursive, defining = split_constraints(selected)

    # Pre-compute per-constraint rewrite options over the *whole* input;
    # Replacement.start/.length localize them (the pseudocode recomputes
    # per suffix, which is equivalent but wasteful).
    replacements_by_start = {}
    for constraint in recursive:
        options = mod_pattern_refs(
            constraint,
            steps,
            max_patterns=max_replacements_per_constraint,
            conclusion_filter=use_filters,
        )
        for option in options:
            replacements_by_start.setdefault(option.start, []).append(option)

    # Defining constraints: per-label replacement patterns.
    definitions = {}
    for constraint in defining:
        for label_name, patterns in label_definitions(constraint).items():
            definitions.setdefault(label_name, []).extend(patterns)

    done = []
    truncated = False
    # Worklist of (parts, i): parts is the list of pattern pieces built.
    processing = [([], 0)]
    while processing:
        parts, i = processing.pop(0)
        if i >= len(steps):
            candidate = concat(*parts)
            if candidate not in done:
                done.append(candidate)
            continue
        if len(done) >= max_patterns:
            truncated = True
            break

        # Option 1: keep the original next step (possibly substituting a
        # defined label).
        name, reversed_ = steps[i]
        original_step = simple_pattern([steps[i]])
        processing.append((parts + [original_step], i + 1))
        for definition in definitions.get(name, ()):
            replacement = definition.reverse() if reversed_ else definition
            if replacement != original_step:
                processing.append((parts + [replacement], i + 1))

        # Option 2: rewrite a sub-pattern starting here.
        for option in replacements_by_start.get(i, ()):
            processing.append(
                (parts + [option.pattern], i + option.length)
            )

        if len(processing) > 4 * max_patterns:
            truncated = True
            processing = processing[: 4 * max_patterns]

    # The original pattern must be first (Algorithm 1 line 7 keeps it).
    original = simple_pattern(steps)
    ordered = [original] + [p for p in done if p != original]
    return GenerationResult(
        ordered[:max_patterns],
        constraints_used=len(selected),
        truncated=truncated,
    )
