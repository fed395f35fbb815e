"""Unit tests for the RRE parser (tokenizer + grammar + round trips)."""

import pytest

from repro.exceptions import PatternSyntaxError
from repro.lang import (
    EPSILON,
    Concat,
    Label,
    Nested,
    Reverse,
    Skip,
    Star,
    Union,
    parse_pattern,
    tokenize,
)


def test_single_label():
    assert parse_pattern("a") == Label("a")


def test_hyphenated_label():
    assert parse_pattern("published-in") == Label("published-in")


def test_trailing_dash_is_reverse():
    assert parse_pattern("published-in-") == Reverse(Label("published-in"))


def test_double_reverse_token():
    assert parse_pattern("a--") == Reverse(Reverse(Label("a")))


def test_concat_with_dot():
    assert parse_pattern("a.b") == Concat([Label("a"), Label("b")])


def test_concat_with_middle_dot():
    assert parse_pattern("a·b") == Concat([Label("a"), Label("b")])


def test_union_lowest_precedence():
    pattern = parse_pattern("a.b+c")
    assert isinstance(pattern, Union)
    assert pattern.parts[0] == Concat([Label("a"), Label("b")])


def test_parentheses_override():
    pattern = parse_pattern("a.(b+c)")
    assert isinstance(pattern, Concat)
    assert isinstance(pattern.parts[1], Union)


def test_star_binds_tighter_than_concat():
    pattern = parse_pattern("a.b*")
    assert pattern == Concat([Label("a"), Star(Label("b"))])


def test_reverse_after_group():
    pattern = parse_pattern("(a.b)-")
    assert pattern == Reverse(Concat([Label("a"), Label("b")]))


def test_nested_brackets():
    assert parse_pattern("[a.b]") == Nested(Concat([Label("a"), Label("b")]))


def test_skip_brackets():
    assert parse_pattern("<<a>>") == Skip(Label("a"))


def test_nested_inside_concat():
    pattern = parse_pattern("field.[published-in-].field-")
    assert isinstance(pattern, Concat)
    assert isinstance(pattern.parts[1], Nested)


def test_epsilon_keyword():
    assert parse_pattern("eps") == EPSILON


def test_whitespace_tolerated():
    assert parse_pattern(" a . b ") == parse_pattern("a.b")


def test_star_of_group():
    assert parse_pattern("(a.b)*") == Star(Concat([Label("a"), Label("b")]))


@pytest.mark.parametrize(
    "text",
    [
        "a.b",
        "a.b-",
        "published-in.published-in-",
        "a+b+c",
        "(a+b).c",
        "[a.b-].c",
        "<<a.b>>.c-",
        "a*.b",
        "<<r-a-.p-in->>.p-in.p-in-.<<p-in.r-a>>",
        "field.[published-in-].[published-in-].field-",
        "eps",
        "(a.[b.<<c>>])-",
    ],
)
def test_round_trip(text):
    pattern = parse_pattern(text)
    assert parse_pattern(str(pattern)) == pattern


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "   ",
        ".a",
        "a.",
        "a..b",
        "(a",
        "a)",
        "[a",
        "<<a>",
        "a>>",
        "+a",
        "a+",
        "a b",
        "a ? b",
        "-a",
    ],
)
def test_syntax_errors(bad):
    with pytest.raises(PatternSyntaxError):
        parse_pattern(bad)


def test_error_reports_position():
    with pytest.raises(PatternSyntaxError) as excinfo:
        parse_pattern("a.?")
    assert excinfo.value.position == 2


def test_non_string_input():
    with pytest.raises(PatternSyntaxError):
        parse_pattern(42)


def test_tokenizer_hyphen_lookahead():
    kinds = [t.kind for t in tokenize("p-in-.r-a")]
    assert kinds == ["LABEL", "-", ".", "LABEL", "EOF"]


def test_tokenizer_skip_tokens():
    kinds = [t.kind for t in tokenize("<<a>>")]
    assert kinds == ["<<", "LABEL", ">>", "EOF"]


def test_as_patterns_coerces_one_or_many():
    from repro.exceptions import EvaluationError
    from repro.lang.parser import as_patterns

    ast = parse_pattern("a.b-")
    assert as_patterns("a.b-") == [ast]
    assert as_patterns(ast) == [ast]
    assert as_patterns(["a.b-", ast]) == [ast, ast]
    with pytest.raises(TypeError, match="got 42"):
        as_patterns([42])
    with pytest.raises(TypeError, match="got \\['a'\\]"):
        as_patterns([["a"]])
    with pytest.raises(EvaluationError):
        as_patterns([])
