"""Unit tests for repro.lang.ast."""

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.lang import (
    EPSILON,
    Concat,
    Conj,
    Epsilon,
    Label,
    Nested,
    Reverse,
    Skip,
    Star,
    Union,
    concat,
    label,
    parse_pattern,
    simple_pattern,
    simple_steps,
    strip_skips,
    union,
)
from repro.lang.ast import render_with_spans


def test_structural_equality_and_hash():
    a = Concat([Label("a"), Label("b")])
    b = Concat([Label("a"), Label("b")])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Concat([Label("b"), Label("a")])


def test_concat_flattens():
    pattern = Concat([Concat([Label("a"), Label("b")]), Label("c")])
    assert [str(p) for p in pattern.parts] == ["a", "b", "c"]


def test_union_flattens():
    pattern = Union([Union([Label("a"), Label("b")]), Label("c")])
    assert len(pattern.parts) == 3


def test_concat_requires_two_parts():
    with pytest.raises(ValueError):
        Concat([Label("a")])


def test_concat_helper_tolerates_few_args():
    assert concat() == EPSILON
    assert concat(Label("a")) == Label("a")
    assert concat(Label("a"), EPSILON) == Label("a")


def test_union_helper_dedupes():
    assert union(Label("a"), Label("a")) == Label("a")
    assert isinstance(union(Label("a"), Label("b")), Union)


def test_str_minimal_parentheses():
    pattern = Concat([Union([Label("a"), Label("b")]), Label("c")])
    assert str(pattern) == "(a+b).c"
    pattern = Union([Concat([Label("a"), Label("b")]), Label("c")])
    assert str(pattern) == "a.b+c"


def test_str_reverse_and_star():
    assert str(Reverse(Label("a"))) == "a-"
    assert str(Star(Label("a"))) == "a*"
    assert str(Reverse(Concat([Label("a"), Label("b")]))) == "(a.b)-"


def test_str_nested_and_skip():
    assert str(Nested(Label("a"))) == "[a]"
    assert str(Skip(Concat([Label("a"), Label("b")]))) == "<<a.b>>"


def test_labels_collects_all():
    pattern = Concat([Label("a"), Nested(Skip(Label("b"))), Reverse(Label("c"))])
    assert pattern.labels() == {"a", "b", "c"}


def test_is_simple():
    assert simple_pattern(["a", "b-"]).is_simple()
    assert not Nested(Label("a")).is_simple()
    assert not Concat([Label("a"), Skip(Label("b"))]).is_simple()
    assert EPSILON.is_simple()


def test_reverse_collapses_double_reversal():
    pattern = Label("a")
    assert pattern.reverse().reverse() == pattern


def test_reverse_of_concat_reverses_order():
    pattern = concat(Label("a"), Label("b"))
    assert str(pattern.reverse()) == "b-.a-"


def test_reverse_of_union_is_memberwise():
    pattern = union(Label("a"), Label("b"))
    assert pattern.reverse() == union(Reverse(Label("a")), Reverse(Label("b")))


def test_reverse_of_nested_is_identity():
    pattern = Nested(Label("a"))
    assert pattern.reverse() == pattern


def test_reverse_of_skip_reverses_inner():
    pattern = Skip(concat(Label("a"), Label("b")))
    assert str(pattern.reverse()) == "<<b-.a->>"


def test_reverse_of_epsilon():
    assert EPSILON.reverse() == EPSILON


def test_simple_pattern_from_strings_with_trailing_dash():
    pattern = simple_pattern(["a", "b-"])
    assert str(pattern) == "a.b-"


def test_simple_pattern_from_tuples():
    pattern = simple_pattern([("a", False), ("b", True)])
    assert str(pattern) == "a.b-"


def test_simple_steps_roundtrip():
    steps = [("a", False), ("b", True), ("a", False)]
    assert simple_steps(simple_pattern(steps)) == steps


def test_simple_steps_rejects_rre():
    with pytest.raises(ValueError):
        simple_steps(Nested(Label("a")))


def test_strip_skips():
    pattern = Skip(concat(Label("a"), Skip(Label("b"))))
    assert str(strip_skips(pattern)) == "a.b"


def test_strip_skips_inside_nested():
    pattern = Nested(Skip(Label("a")))
    assert strip_skips(pattern) == Nested(Label("a"))


def test_num_operations():
    assert Label("a").num_operations() == 1
    assert concat(Label("a"), Label("b")).num_operations() == 3


def test_label_requires_name():
    with pytest.raises(ValueError):
        Label("")


def test_epsilon_singleton_semantics():
    assert Epsilon() == EPSILON
    assert str(EPSILON) == "eps"


def _any_pattern():
    leaves = st.one_of(
        st.builds(Epsilon), st.sampled_from(["a", "b", "p-in"]).map(Label)
    )

    def extend(children):
        parts = st.lists(children, min_size=2, max_size=3)
        return st.one_of(
            children.map(Reverse),
            children.map(Star),
            children.map(Nested),
            children.map(Skip),
            parts.map(Concat),
            parts.map(Union),
            parts.map(Conj),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@given(pattern=_any_pattern())
@settings(max_examples=500, deadline=None)
def test_render_with_spans_locates_every_subterm(pattern):
    text, spans = render_with_spans(pattern)
    assert text == str(pattern)
    stack = [pattern]
    while stack:
        node = stack.pop()
        stack.extend(node.children())
        start, end = spans[id(node)]
        assert text[start:end] == str(node)


@given(pattern=_any_pattern())
@settings(max_examples=300, deadline=None)
def test_hash_is_cached_and_structural(pattern):
    first = hash(pattern)
    assert hash(pattern) == first
    # A copy is made of new nodes that carry no cached hash.
    copy = pickle.loads(pickle.dumps(pattern))
    assert copy == pattern and hash(copy) == first
    # The parser drops some spellings (a+a, eps.a); what it keeps is an
    # equal pattern and hashes equal.
    parsed = parse_pattern(str(pattern))
    if parsed == pattern:
        assert hash(parsed) == first
