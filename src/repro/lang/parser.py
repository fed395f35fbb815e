"""Tokenizer and recursive-descent parser for the RRE concrete syntax.

Grammar (lowest to highest precedence)::

    conj    := union ("&" union)*
    union   := concat ("+" concat)*
    concat  := postfix (("." | "·") postfix)*
    postfix := primary ("*" | "-")*
    primary := "(" union ")"
             | "[" union "]"            (nested)
             | "<<" union ">>"          (skip)
             | "eps"                    (empty pattern)
             | LABEL

Labels may contain hyphens (``published-in``), so the tokenizer resolves
the ambiguity with the reverse operator by a one-character lookahead: a
``-`` immediately followed by a label character continues the label, while
a ``-`` at the end of a label token (or standing alone after ``)``, ``]``,
``>>`` or ``*``) is the reverse operator.  This matches how the paper
writes ``published-in-`` for the reverse of ``published-in``.
"""

import string

from repro.exceptions import EvaluationError, PatternSyntaxError
from repro.lang.ast import (
    EPSILON,
    Label,
    Nested,
    Pattern,
    Reverse,
    Skip,
    Star,
    concat,
    conj,
    union,
)

_LABEL_START = set(string.ascii_letters + "_")
_LABEL_BODY = set(string.ascii_letters + string.digits + "_")

# Token kinds
_LBRACKET = "["
_RBRACKET = "]"
_LPAREN = "("
_RPAREN = ")"
_LSKIP = "<<"
_RSKIP = ">>"
_DOT = "."
_PLUS = "+"
_AMP = "&"
_STAR = "*"
_MINUS = "-"
_LABEL = "LABEL"
_EOF = "EOF"


class _Token:
    __slots__ = ("kind", "value", "position")

    def __init__(self, kind, value, position):
        self.kind = kind
        self.value = value
        self.position = position

    def __repr__(self):
        return "Token({}, {!r}, {})".format(self.kind, self.value, self.position)


def tokenize(text):
    """Produce the token list for ``text``; raises on bad characters."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _LABEL_START:
            start = i
            i += 1
            while i < n:
                if text[i] in _LABEL_BODY:
                    i += 1
                elif (
                    text[i] == "-"
                    and i + 1 < n
                    and text[i + 1] in _LABEL_BODY
                ):
                    # hyphen inside a label like "published-in"
                    i += 2
                else:
                    break
            tokens.append(_Token(_LABEL, text[start:i], start))
            continue
        if ch == "<" and text[i : i + 2] == "<<":
            tokens.append(_Token(_LSKIP, "<<", i))
            i += 2
            continue
        if ch == ">" and text[i : i + 2] == ">>":
            tokens.append(_Token(_RSKIP, ">>", i))
            i += 2
            continue
        if ch in "()[]+*-&":
            kind = {
                "(": _LPAREN,
                ")": _RPAREN,
                "[": _LBRACKET,
                "]": _RBRACKET,
                "+": _PLUS,
                "*": _STAR,
                "-": _MINUS,
                "&": _AMP,
            }[ch]
            tokens.append(_Token(kind, ch, i))
            i += 1
            continue
        if ch == "." or ch == "·":
            tokens.append(_Token(_DOT, ch, i))
            i += 1
            continue
        raise PatternSyntaxError(
            "unexpected character {!r}".format(ch), position=i, text=text
        )
    tokens.append(_Token(_EOF, "", n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.position = 0

    def peek(self):
        return self.tokens[self.position]

    def advance(self):
        token = self.tokens[self.position]
        self.position += 1
        return token

    def expect(self, kind):
        token = self.peek()
        if token.kind != kind:
            raise PatternSyntaxError(
                "expected {} but found {!r}".format(kind, token.value or "end"),
                position=token.position,
                text=self.text,
            )
        return self.advance()

    # -- grammar ------------------------------------------------------
    def parse(self):
        pattern = self.conjunction()
        token = self.peek()
        if token.kind != _EOF:
            raise PatternSyntaxError(
                "trailing input {!r}".format(token.value),
                position=token.position,
                text=self.text,
            )
        return pattern

    def conjunction(self):
        parts = [self.union()]
        while self.peek().kind == _AMP:
            self.advance()
            parts.append(self.union())
        if len(parts) == 1:
            return parts[0]
        return conj(*parts)

    def union(self):
        parts = [self.concat()]
        while self.peek().kind == _PLUS:
            self.advance()
            parts.append(self.concat())
        if len(parts) == 1:
            return parts[0]
        return union(*parts)

    def concat(self):
        parts = [self.postfix()]
        while self.peek().kind == _DOT:
            self.advance()
            parts.append(self.postfix())
        if len(parts) == 1:
            return parts[0]
        return concat(*parts)

    def postfix(self):
        pattern = self.primary()
        while True:
            kind = self.peek().kind
            if kind == _STAR:
                self.advance()
                pattern = Star(pattern)
            elif kind == _MINUS:
                self.advance()
                pattern = Reverse(pattern)
            else:
                return pattern

    def primary(self):
        token = self.peek()
        if token.kind == _LPAREN:
            self.advance()
            inner = self.conjunction()
            self.expect(_RPAREN)
            return inner
        if token.kind == _LBRACKET:
            self.advance()
            inner = self.conjunction()
            self.expect(_RBRACKET)
            return Nested(inner)
        if token.kind == _LSKIP:
            self.advance()
            inner = self.conjunction()
            self.expect(_RSKIP)
            return Skip(inner)
        if token.kind == _LABEL:
            self.advance()
            if token.value == "eps":
                return EPSILON
            return Label(token.value)
        raise PatternSyntaxError(
            "expected a pattern but found {!r}".format(token.value or "end"),
            position=token.position,
            text=self.text,
        )


def parse_pattern(text):
    """Parse concrete RRE syntax into an AST.

    >>> str(parse_pattern("field.[published-in-].field-"))
    'field.[published-in-].field-'
    """
    if not isinstance(text, str):
        raise PatternSyntaxError("pattern must be a string, got {!r}".format(text))
    if not text.strip():
        raise PatternSyntaxError("empty pattern string")
    return _Parser(text).parse()


def as_patterns(patterns):
    """One pattern or an iterable of patterns, as a list of ASTs.

    Every pattern-taking API accepts concrete syntax or an AST: strings
    are parsed, ASTs pass through, anything else raises ``TypeError``,
    and an empty set raises :class:`~repro.exceptions.EvaluationError`.
    A caller that takes exactly one pattern passes ``[pattern]``, so a
    list is never mistaken for one pattern.
    """
    if isinstance(patterns, (str, Pattern)):
        patterns = [patterns]
    resolved = []
    for pattern in patterns:
        if isinstance(pattern, str):
            pattern = parse_pattern(pattern)
        if not isinstance(pattern, Pattern):
            raise TypeError(
                "pattern must be a string or Pattern AST, got {!r}".format(
                    pattern
                )
            )
        resolved.append(pattern)
    if not resolved:
        raise EvaluationError("at least one pattern is required")
    return resolved
