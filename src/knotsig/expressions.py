"""Knot expressions: names, torus knots, mirrors, connected sums, multiples.

Grammar (whitespace-insensitive)::

    expr   := term (('#' | '+' | '-') term)*
    term   := INT '*' term | INT '(' expr ')' | '-' term | atom
    atom   := NAME | 'T' '(' INT ',' INT ')' | '(' expr ')'

'#' and '+' both mean connected sum; a binary or unary '-' mirrors its
operand, so "-5_1 # -10_132" and "2*3_1 - 5_1" read like the usual knot
notation.  Names are table names such as 3_1, 10_132, 11n6, unknot.
"""

from __future__ import annotations

import re

from .errors import BraidError, ExpressionError, TableError
from .record import Record
from .seifert import SeifertMatrix, connected_sum


class KnotExpression(Record):
    """Abstract term tree; use parse_expression to build one."""

    __slots__ = ()


class NamedKnot(KnotExpression):
    __slots__ = ("name",)

    name: str


class TorusKnot(KnotExpression):
    __slots__ = ("p", "q")

    p: int
    q: int


class Mirror(KnotExpression):
    __slots__ = ("inner",)

    inner: KnotExpression


class Sum(KnotExpression):
    __slots__ = ("left", "right")

    left: KnotExpression
    right: KnotExpression


class Multiple(KnotExpression):
    __slots__ = ("count", "inner")

    count: int
    inner: KnotExpression


_TOKEN = re.compile(r"T\(|[0-9]+[a-z_][0-9]+|unknot|[0-9]+|[()#+*,-]", re.I)


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExpressionError(f"unexpected character at position {pos}: {text[pos:]!r}")
        out.append(m.group(0))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise ExpressionError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def take_digits(self) -> int:
        tok = self.take()
        if not tok.isdigit():  # tokens are ASCII, so this is [0-9]+
            raise ExpressionError(f"torus parameters are plain digits, found {tok!r}")
        return int(tok)

    def parse_expr(self) -> KnotExpression:
        node = self.parse_term()
        while self.peek() in ("#", "+", "-"):
            op = self.take()
            rhs = self.parse_term()
            if op == "-":
                rhs = Mirror(rhs)
            node = Sum(node, rhs)
        return node

    def parse_term(self) -> KnotExpression:
        tok = self.peek()
        if tok == "-":
            self.take()
            return Mirror(self.parse_term())
        if tok is not None and tok.isdigit():
            count = int(self.take())
            tok = self.peek()
            if tok == "*":
                self.take()
                return Multiple(count, self.parse_term())
            if tok == "(":
                self.take()
                inner = self.parse_expr()
                self.take(")")
                return Multiple(count, inner)
            raise ExpressionError(f"number {count} must be followed by '*' or '(...)'")
        return self.parse_atom()

    def parse_atom(self) -> KnotExpression:
        tok = self.take()
        if tok == "(":
            inner = self.parse_expr()
            self.take(")")
            return inner
        if tok.upper() == "T(":
            p = self.take_digits()
            self.take(",")
            q = self.take_digits()
            self.take(")")
            return TorusKnot(p, q)
        if re.fullmatch(r"[0-9]+[a-z_][0-9]+|unknot", tok, re.I):
            return NamedKnot(tok.lower())
        raise ExpressionError(f"unexpected token {tok!r}")


def parse_expression(text: str) -> KnotExpression:
    """Parse a knot expression; ExpressionError on bad syntax."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    parser = _Parser(tokens)
    node = parser.parse_expr()
    if parser.peek() is not None:
        raise ExpressionError(f"trailing input from token {parser.peek()!r}")
    return node


def resolve(expr: KnotExpression | str,
            extra_table: dict[str, SeifertMatrix] | None = None) -> SeifertMatrix:
    """Seifert matrix of an expression: table lookups, braid-built torus
    knots, mirrors, and block sums.  Unknown names raise ExpressionError."""
    if isinstance(expr, str):
        expr = parse_expression(expr)
    return _resolve(expr, extra_table or {})


def _resolve(node: KnotExpression, extra) -> SeifertMatrix:
    if isinstance(node, NamedKnot):
        if node.name in extra:
            return extra[node.name]
        from . import knot_table

        try:
            return knot_table.lookup(node.name)
        except TableError as e:
            raise ExpressionError(str(e)) from e
    if isinstance(node, TorusKnot):
        from .braids import seifert_from_braid, torus_braid

        try:
            return seifert_from_braid(torus_braid(node.p, node.q))
        except BraidError as e:
            raise ExpressionError(f"T({node.p},{node.q}): {e}") from e
    if isinstance(node, Mirror):
        return _resolve(node.inner, extra).mirror()
    if isinstance(node, Sum):
        return connected_sum(_resolve(node.left, extra), _resolve(node.right, extra))
    if isinstance(node, Multiple):
        out = SeifertMatrix.empty()
        base = _resolve(node.inner, extra)
        for _ in range(node.count):
            out = connected_sum(out, base)
        return out
    raise ExpressionError(f"unknown expression node {node!r}")


def expression_to_str(node: KnotExpression) -> str:
    if isinstance(node, NamedKnot):
        return node.name
    if isinstance(node, TorusKnot):
        return f"T({node.p},{node.q})"
    if isinstance(node, Mirror):
        return f"-{expression_to_str(node.inner)}"
    if isinstance(node, Sum):
        return f"{expression_to_str(node.left)} # {expression_to_str(node.right)}"
    if isinstance(node, Multiple):
        return f"{node.count}*{expression_to_str(node.inner)}"
    return repr(node)
