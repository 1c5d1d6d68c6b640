"""Parser for the expression mini-grammar used by all file inputs.

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-' power | power
    power  := atom ('^' INT)?
    atom   := rational | variable | 'exp' '(' [rational '*'] variable ')'
              | '(' expr ')'
    rational := INT ['/' INT]        variable := t1 .. tn

Whitespace is insignificant.  '/' occurs only inside rational literals;
there is no general division.  Exponents are nonnegative integers, and a
power whose exponent or total degree exceeds ``MAX_POWER_DEGREE`` is a
parse error.  Errors carry the 1-based line and column of the offending
token.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .qpoly import QPoly

Q = Fraction

# Largest exponent, and largest total degree of a power, that the parser
# expands.  Far above any degree the toolkit writes; a larger power is
# refused before its expansion can run away.
MAX_POWER_DEGREE = 64

_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()]|\S")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            line_start = pos + 1
            pos += 1
            continue
        if ch in " \t\r":
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        assert m is not None
        tok = m.group(0)
        col = pos - line_start + 1
        if tok.isdigit():
            kind = "int"
        elif tok[0].isalpha() or tok[0] == "_":
            kind = "name"
        elif tok in "+-*/^()":
            kind = tok
        else:
            raise ParseError(f"unexpected character {tok!r}", line, col)
        tokens.append(_Token(kind, tok, line, col))
        pos = m.end()
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = nvars

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", tok.line, tok.col)
        return self.advance()

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    # -- grammar ------------------------------------------------------------

    def parse(self) -> QPoly:
        value = self.expr()
        if self.peek().kind != "end":
            raise self.fail(f"unexpected token {self.peek().text!r}")
        return value

    def expr(self) -> QPoly:
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> QPoly:
        value = self.unary()
        while self.peek().kind == "*":
            self.advance()
            value = value * self.unary()
        return value

    def unary(self) -> QPoly:
        if self.peek().kind == "-":
            self.advance()
            return -self.power()
        return self.power()

    def power(self) -> QPoly:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind == "-":
                raise self.fail("negative exponents are outside the ring")
            tok = self.expect("int")
            exponent = int(tok.text)
            if max(exponent, base.total_degree() * exponent) > MAX_POWER_DEGREE:
                raise ParseError(
                    f"power exceeds the degree bound {MAX_POWER_DEGREE}", tok.line, tok.col
                )
            return base ** exponent
        return base

    def atom(self) -> QPoly:
        tok = self.peek()
        if tok.kind == "int":
            return QPoly.const(self.nvars, self.rational())
        if tok.kind == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        if tok.kind == "name":
            if tok.text == "exp":
                return self.exp_call()
            axis = self.variable()
            return QPoly.var(self.nvars, axis)
        shown = tok.text or "end of input"
        raise ParseError(f"expected a value, found {shown!r}", tok.line, tok.col)

    def rational(self) -> Q:
        tok = self.expect("int")
        value = Q(int(tok.text))
        if self.peek().kind == "/":
            self.advance()
            den_tok = self.expect("int")
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("zero denominator", den_tok.line, den_tok.col)
            value /= den
        return value

    def signed_rational(self) -> Q:
        sign = Q(1)
        if self.peek().kind == "-":
            self.advance()
            sign = -sign
        return sign * self.rational()

    def variable(self) -> int:
        tok = self.expect("name")
        m = re.fullmatch(r"t(\d+)", tok.text)
        if not m:
            raise ParseError(f"unknown name {tok.text!r} (variables are t1..t{self.nvars})", tok.line, tok.col)
        idx = int(m.group(1))
        if not 1 <= idx <= self.nvars:
            raise ParseError(f"variable {tok.text} out of range 1..{self.nvars}", tok.line, tok.col)
        return idx - 1

    def exp_call(self) -> QPoly:
        self.expect("name")
        self.expect("(")
        rate = Q(1)
        if self.peek().kind in ("int", "-"):
            rate = self.signed_rational()
            self.expect("*")
        axis = self.variable()
        self.expect(")")
        return QPoly.exp(self.nvars, axis, rate)


def parse_expr(text: str, nvars: int) -> QPoly:
    """Parse an expression in the coordinates t1..t{nvars}."""
    return _Parser(text, nvars).parse()


def parse_rational(text: str) -> Q:
    """Parse a standalone rational literal such as '-3/4' or '2'."""
    parser = _Parser(text, 0)
    value = parser.signed_rational()
    if parser.peek().kind != "end":
        tok = parser.peek()
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)
    return value
