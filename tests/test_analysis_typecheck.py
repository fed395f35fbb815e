"""Tests for the schema-aware pattern type checker.

Covers the endpoint algebra, every diagnostic code with its span, the
fail-fast wiring through engine/session/prepared, the Algorithm-1 seed
corpus staying clean, and a property test: any pattern the checker
accepts must evaluate without error on a schema-conforming graph (and
any pattern it rejects must be refused by the engine).
"""

import itertools

import hypothesis.strategies as st
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from repro.analysis import (
    ANY,
    Diagnostic,
    Endpoints,
    PatternTypeChecker,
    has_errors,
    render_with_spans,
)
from repro.datasets import schemas as S
from repro.exceptions import PatternTypeError
from repro.graph import GraphDatabase, Schema
from repro.lang import CommutingMatrixEngine
from repro.lang.ast import Concat, Label, Nested, Reverse, Skip, Union
from repro.lang.parser import parse_pattern
from repro.transform.catalog import EXPERIMENT_PATTERNS


def check(text, schema=None, **kwargs):
    checker = PatternTypeChecker(schema or S.DBLP_SCHEMA, **kwargs)
    return checker.check(parse_pattern(text))


def codes(diagnostics):
    return [d.code for d in diagnostics]


def endpoints_of(text, schema=None):
    checker = PatternTypeChecker(schema or S.DBLP_SCHEMA)
    return checker.endpoints(parse_pattern(text))


# -- endpoint algebra --------------------------------------------------


def test_label_endpoints_come_from_schema():
    assert endpoints_of("w").pairs == frozenset({("author", "paper")})
    assert endpoints_of("w-").pairs == frozenset({("paper", "author")})


def test_concat_composes_endpoints():
    # author -w-> paper -p-in-> proc
    assert endpoints_of("w.p-in").pairs == frozenset({("author", "proc")})


def test_epsilon_is_the_identity_component():
    eps = endpoints_of("eps")
    assert eps.diag and not eps.pairs
    assert eps.source_types() is ANY


def test_star_closure_adds_identity():
    closure = endpoints_of("(w.w-)*")
    assert closure.diag
    assert ("author", "author") in closure.pairs


def test_nested_restricts_to_source_diagonal():
    assert endpoints_of("[p-in-.r-a]").pairs == frozenset({("proc", "proc")})


def test_union_merges_disjoint_blocks():
    pairs = endpoints_of("r-a-.r-a+p-in.p-in-").pairs
    assert pairs == frozenset({("area", "area"), ("paper", "paper")})


def test_untyped_schema_is_wildcard():
    schema = Schema(["a", "b"])
    endpoints = endpoints_of("a.b-", schema=schema)
    assert endpoints.is_any


def test_endpoints_describe():
    assert endpoints_of("w").describe() == "{author->paper}"
    assert Endpoints(ANY).describe() == "any"


# -- error diagnostics -------------------------------------------------


def test_unknown_label():
    diagnostics = check("zzz")
    assert codes(diagnostics) == ["unknown-label"]
    assert diagnostics[0].span == (0, 3)
    assert "'zzz'" in diagnostics[0].message


def test_unknown_label_span_inside_concat():
    diagnostics = check("p-in.zzz")
    assert codes(diagnostics) == ["unknown-label"]
    assert diagnostics[0].span == (5, 8)
    assert diagnostics[0].pattern_text == "p-in.zzz"


def test_endpoint_mismatch():
    # w ends at paper, but a second w starts from author.
    diagnostics = check("w.w")
    assert codes(diagnostics) == ["endpoint-mismatch"]
    assert "{paper}" in diagnostics[0].message
    assert "{author}" in diagnostics[0].message
    # The span points at the offending right-hand part.
    assert diagnostics[0].span == (2, 3)


def test_endpoint_mismatch_does_not_cascade():
    # One bad junction recovers to ANY: later junctions are not blamed.
    diagnostics = check("w.w.p-in")
    assert codes(diagnostics) == ["endpoint-mismatch"]


def test_union_mismatch_on_half_aligned_branches():
    # Both start from author, but end at paper vs proc.
    diagnostics = check("w+w.p-in")
    assert codes(diagnostics) == ["union-mismatch"]
    assert "source" in diagnostics[0].message


def test_union_of_fully_disjoint_branches_is_legal():
    # The block-matrix idiom: area-area similarity OR proc-proc
    # similarity; populations never mix.
    assert check("r-a-.r-a+p-in.p-in-") == []


def test_statically_empty_conjunction():
    # w relates author->paper, r-a relates paper->area: no node pair
    # can satisfy both.
    diagnostics = check("w&r-a")
    assert codes(diagnostics) == ["statically-empty"]


def test_errors_sort_before_warnings():
    diagnostics = check("zzz.w--")
    assert [d.severity for d in diagnostics] == ["error", "warning"]


# -- warning diagnostics -----------------------------------------------


def _engine_over(n, nnz, types=("author", "paper", "proc", "area")):
    """An engine over a typed DBLP graph: ``n`` nodes, ``nnz[label]`` edges.

    Node types cycle through ``types``; each label links the first
    sources of its type to every target of its type, in order.
    """
    db = GraphDatabase(S.DBLP_SCHEMA)
    for position in range(n):
        node_type = types[position % len(types)]
        db.add_node("{}:{}".format(node_type, position), node_type)
    for name, count in nnz.items():
        source_type, target_type = S.DBLP_SCHEMA.node_types[name]
        pairs = itertools.product(
            db.nodes_of_type(source_type), db.nodes_of_type(target_type)
        )
        db.add_edges(
            (source, name, target)
            for source, target in itertools.islice(pairs, count)
        )
    engine = CommutingMatrixEngine(db)
    assert engine.view.num_nodes() == n
    assert {name: engine.view.label_nnz(name) for name in nnz} == nnz
    return engine


def _dense_engine():
    """75 authors who each wrote all 25 papers: ``(w.w-)*`` links every
    pair of authors, over half of the 100^2 possible entries."""
    engine = _engine_over(
        100, {"w": 75 * 25}, types=("author", "author", "author", "paper")
    )
    assert _closure_nnz(engine.view) == 100 + 75 * 75 - 75
    return engine


def _closure_nnz(view):
    """Nonzeros of ``(w.w-)*``: the identity plus every author pair
    that shared papers link, however many hops apart.

    The engine's sum itself diverges (an author reaches itself in every
    power), so the count is of the closure's support.
    """
    w = view.adjacency("w")
    step = (w @ w.T > 0).astype(float)
    reach = sp.identity(view.num_nodes(), format="csr")
    while True:
        grown = (reach + reach @ step > 0).astype(float)
        if grown.nnz == reach.nnz:
            return grown.nnz
        reach = grown


def engine_check(engine, text):
    return engine.check([parse_pattern(text)])[0][1]


def test_star_blowup_warning():
    # Average out-degree 56 >= 1 under the star: the closure is dense.
    diagnostics = engine_check(_dense_engine(), "(w.w-)*")
    assert "star-blowup" in codes(diagnostics)
    assert all(d.severity == "warning" for d in diagnostics)


def test_density_budget_warning():
    diagnostics = engine_check(_dense_engine(), "(w.w-)*")
    assert "density-budget" in codes(diagnostics)
    assert diagnostics[0].span == (0, 7)


def test_a_closure_confined_to_a_small_block_is_not_dense():
    # 6 of 25 authors wrote all 150 w edges: the closure is the identity
    # plus a 6 x 6 block, 130 of 10,000 entries, however dense the
    # uniform surrogate over all 100 nodes reads.
    engine = _engine_over(100, {"w": 150, "p-in": 10, "r-a": 10})
    assert _closure_nnz(engine.view) == 130
    assert engine_check(engine, "(w.w-)*") == []


def test_sparse_pattern_has_no_density_warnings():
    engine = _engine_over(1000, {"w": 50, "p-in": 50, "r-a": 50})
    assert engine_check(engine, "w.p-in") == []


def test_density_warnings_skip_ill_typed_patterns_and_empty_graphs():
    # A pattern with errors has no plan, hence no estimate.
    diagnostics = engine_check(_dense_engine(), "(w.w-)*.zzz")
    assert codes(diagnostics) == ["unknown-label"]
    empty = CommutingMatrixEngine(GraphDatabase(S.DBLP_SCHEMA))
    assert engine_check(empty, "(w.w-)*") == []


def test_engine_check_leaves_the_planning_state_alone():
    engine = _dense_engine()
    engine.matrices_many([parse_pattern("w.p-in"), parse_pattern("w-.w")])
    interned = len(engine.compiler)
    uses = dict(engine.compiler.subchain_uses)
    results = engine.check(
        [parse_pattern(text) for text in ("(w.w-)*", "w.w-.w.p-in", "w.w")]
    )
    assert codes(results[0][1]) == ["density-budget", "star-blowup"]
    assert len(engine.compiler) == interned
    assert dict(engine.compiler.subchain_uses) == uses


def test_redundant_reverse_warning():
    diagnostics = check("w--")
    assert codes(diagnostics) == ["redundant-reverse"]
    assert "'w'" in diagnostics[0].message


def test_redundant_union_warning():
    # The parser dedups union branches, so build the AST directly.
    checker = PatternTypeChecker(S.DBLP_SCHEMA)
    diagnostics = checker.check(Union([Label("w"), Label("w")]))
    assert codes(diagnostics) == ["redundant-union"]


def test_warnings_do_not_raise():
    checker = PatternTypeChecker(S.DBLP_SCHEMA)
    diagnostics = checker.assert_well_typed(parse_pattern("w--"))
    assert codes(diagnostics) == ["redundant-reverse"]


# -- assert_well_typed / diagnostics payloads --------------------------


def test_assert_well_typed_raises_with_diagnostics():
    checker = PatternTypeChecker(S.DBLP_SCHEMA)
    with pytest.raises(PatternTypeError) as excinfo:
        checker.assert_well_typed(parse_pattern("w.w"))
    error = excinfo.value
    assert codes(error.diagnostics) == ["endpoint-mismatch"]
    assert "w.w" in str(error)


def test_diagnostic_to_dict_round_trip():
    diagnostic = check("zzz")[0]
    payload = diagnostic.to_dict()
    assert payload["severity"] == "error"
    assert payload["code"] == "unknown-label"
    assert payload["span"] == [0, 3]
    assert payload["pattern"] == "zzz"


def test_diagnostic_caret_rendering():
    diagnostic = check("p-in.zzz")[0]
    rendered = diagnostic.format(caret=True)
    lines = rendered.splitlines()
    assert lines[1].endswith("p-in.zzz")
    assert lines[2].endswith("     ^^^")


def test_render_with_spans_matches_str():
    for text in ["w.p-in", "(w+r-a)*", "[w-.w]", "<<w.w->>", "w&w"]:
        pattern = parse_pattern(text)
        rendered, spans = render_with_spans(pattern)
        assert rendered == str(pattern)
        assert spans[id(pattern)] == (0, len(rendered))


# -- fail-fast wiring --------------------------------------------------


def _typed_dblp():
    db = GraphDatabase(S.DBLP_SCHEMA)
    for author in ("ann", "bob"):
        db.add_node(author, "author")
    for paper in ("p1", "p2"):
        db.add_node(paper, "paper")
    db.add_node("vldb", "proc")
    db.add_node("dbs", "area")
    db.add_edges(
        [
            ("ann", "w", "p1"),
            ("bob", "w", "p2"),
            ("p1", "p-in", "vldb"),
            ("p2", "p-in", "vldb"),
            ("p1", "r-a", "dbs"),
        ]
    )
    return db


def test_engine_rejects_ill_typed_pattern():
    engine = CommutingMatrixEngine(_typed_dblp())
    with pytest.raises(PatternTypeError):
        engine.matrix(parse_pattern("w.w"))


def test_engine_check_surfaces_diagnostics():
    engine = CommutingMatrixEngine(_typed_dblp())
    results = engine.check([parse_pattern("w.w-"), parse_pattern("zzz")])
    assert results[0][1] == []
    assert codes(results[1][1]) == ["unknown-label"]


def test_session_prepare_fails_fast():
    from repro.api import SimilaritySession

    session = SimilaritySession(_typed_dblp())
    with pytest.raises(PatternTypeError):
        session.prepare("relsim", patterns=["w.w"])
    # Well-typed patterns still prepare fine.
    session.prepare("relsim", patterns=["w.w-"])


def test_materialize_prunes_ill_typed_meta_paths():
    from repro.api import SimilaritySession

    session = SimilaritySession(_typed_dblp())
    cached = session.materialize(max_length=2)
    assert cached > 0
    # 6 steps (3 labels x 2 directions) would give 6 + 36 = 42 chains
    # untyped; the typed schema admits far fewer (w.w is ill-typed,
    # w.p-in is fine, ...), and every cached one type-checks clean.
    assert cached < 42
    checker = PatternTypeChecker(S.DBLP_SCHEMA)
    from repro.lang.parser import parse_pattern as parse

    for text, _entry in session.engine.export_cache():
        assert not has_errors(checker.check(parse(text))), text


def test_session_check_method():
    from repro.api import SimilaritySession

    session = SimilaritySession(_typed_dblp())
    results = session.check("w.w")
    assert codes(results[0][1]) == ["endpoint-mismatch"]


# -- the seed corpus type-checks clean ---------------------------------

_CORPUS = [
    ("DBLP2SIGM", "relsim_source", S.DBLP_SCHEMA),
    ("DBLP2SIGM", "pathsim_source", S.DBLP_SCHEMA),
    ("DBLP2SIGM", "pathsim_target", S.SIGM_SCHEMA),
    ("WSUC2ALCH", "relsim_source", S.WSU_SCHEMA),
    ("WSUC2ALCH", "pathsim_source", S.WSU_SCHEMA),
    ("WSUC2ALCH", "pathsim_target", S.ALCH_SCHEMA),
    ("BioMedT", "relsim_source", S.BIOMED_SCHEMA),
    ("BioMedT", "pathsim_source", S.BIOMED_SCHEMA),
    ("BioMedT", "pathsim_target", S.BIOMED_T_SCHEMA),
]


@pytest.mark.parametrize("experiment,key,schema", _CORPUS)
def test_experiment_corpus_is_clean(experiment, key, schema):
    text = EXPERIMENT_PATTERNS[experiment][key]
    checker = PatternTypeChecker(schema)
    diagnostics = checker.check(parse_pattern(text))
    assert not has_errors(diagnostics), [d.format() for d in diagnostics]


# -- property: accepted <=> evaluable ----------------------------------

_TYPE_POPULATIONS = {
    "author": ["a0", "a1", "a2"],
    "paper": ["p0", "p1", "p2", "p3"],
    "proc": ["v0", "v1"],
    "area": ["r0", "r1"],
}


@st.composite
def typed_graphs(draw):
    db = GraphDatabase(S.DBLP_SCHEMA)
    for node_type, nodes in _TYPE_POPULATIONS.items():
        for node in nodes:
            db.add_node(node, node_type)
    for label in sorted(S.DBLP_SCHEMA.labels):
        source_type, target_type = S.DBLP_SCHEMA.node_types[label]
        edges = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(_TYPE_POPULATIONS[source_type]),
                    st.sampled_from(_TYPE_POPULATIONS[target_type]),
                ),
                max_size=6,
            )
        )
        for source, target in edges:
            db.add_edge(source, label, target)
    return db


def typed_pattern_strategy():
    leaves = st.sampled_from(
        [
            Label("w"),
            Label("p-in"),
            Label("r-a"),
            Reverse(Label("w")),
            Reverse(Label("p-in")),
            Reverse(Label("r-a")),
        ]
    )

    def extend(children):
        # Star is excluded: its counting semantics diverge on cyclic
        # random graphs (StarDivergenceError), which is a run-time
        # property of the data, not a type error.
        return st.one_of(
            children.map(Reverse),
            children.map(Nested),
            children.map(Skip),
            st.tuples(children, children).map(lambda p: Concat(list(p))),
            st.tuples(children, children).map(lambda p: Union(list(p))),
        )

    return st.recursive(leaves, extend, max_leaves=5)


@given(db=typed_graphs(), pattern=typed_pattern_strategy())
@settings(max_examples=80, deadline=None)
def test_accepted_patterns_evaluate_and_rejected_patterns_raise(db, pattern):
    checker = PatternTypeChecker(S.DBLP_SCHEMA)
    diagnostics = checker.check(pattern)
    engine = CommutingMatrixEngine(db)
    if has_errors(diagnostics):
        with pytest.raises(PatternTypeError):
            engine.matrix(pattern)
    else:
        matrix = engine.matrix(pattern)
        n = db.num_nodes()
        assert matrix.shape == (n, n)


# -- diagnostics value-object hygiene ----------------------------------


def test_diagnostic_equality_and_invalid_severity():
    a = Diagnostic("error", "unknown-label", "m", span=(0, 1))
    b = Diagnostic("error", "unknown-label", "m", span=(0, 1))
    assert a == b and hash(a) == hash(b)
    with pytest.raises(ValueError):
        Diagnostic("fatal", "x", "m")
