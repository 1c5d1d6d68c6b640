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
parse error.  Digits are ASCII 0-9.  A token longer than
``MAX_TOKEN_LENGTH``, parentheses nested deeper than ``MAX_NESTING_DEPTH``
and a value outside the ring (an exp rate beyond ``qpoly.EXP_RATE_LIMIT``,
or a product of total degree beyond ``qpoly.POWER_LIMIT``) are parse errors
too.  Errors carry the 1-based line and column of the offending token.

:func:`parse_expr` first reads the sum-of-monomials form that
``QPoly.__str__`` prints,

    sum    := ['-'] term ((' + ' | ' - ') term)*
    term   := rational | [rational '*'] factor ('*' factor)*
    factor := tN ['^' INT] | 'exp(' tN ')' | 'exp(' ['-'] rational '*' tN ')'

in one pass, straight into integer numerators over one common denominator
(:func:`_read_sum`).  Text outside that form, and text that reaches a bound
(a non-ASCII character, a number longer than ``MAX_TOKEN_LENGTH``, an
exponent beyond ``MAX_POWER_DEGREE``, a variable outside t1..tn, a total
degree beyond ``qpoly.POWER_LIMIT``, a rate beyond ``qpoly.EXP_RATE_LIMIT``,
a zero denominator, an axis with two exp factors), goes to the
recursive-descent parser, which gives every value and every error.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from .errors import OutOfRingError, ParseError
from .qpoly import EXP_RATE_LIMIT, POWER_LIMIT, QPoly, from_packed, unit_keys

Q = Fraction

# Largest exponent, and largest total degree of a power, that the parser
# expands.  Far above any degree the toolkit writes; a larger power is
# refused before its expansion can run away.
MAX_POWER_DEGREE = 64

# Longest token, so longest number, the parser converts.  Far above any
# literal the toolkit writes, and below Python's int/str conversion limit.
MAX_TOKEN_LENGTH = 1000

# Deepest parenthesis nesting; the recursive-descent parser stays far from
# Python's recursion limit below it.
MAX_NESTING_DEPTH = 100

_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()]|.")


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
        if len(tok) > MAX_TOKEN_LENGTH:
            raise ParseError(f"token longer than the bound of {MAX_TOKEN_LENGTH} characters", line, col)
        if "0" <= tok[0] <= "9":
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
        self.depth = 0

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

    @staticmethod
    def in_ring(build, tok: _Token) -> QPoly:
        """Run one ring operation; a result outside the ring is an input error at tok."""
        try:
            return build()
        except OutOfRingError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc

    # -- grammar ------------------------------------------------------------

    def parse(self, rule):
        """Apply one grammar rule to the whole input."""
        value = rule()
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
            tok = self.advance()
            rhs = self.unary()
            value = self.in_ring(lambda: value * rhs, tok)
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
            return self.in_ring(lambda: base ** exponent, tok)
        return base

    def atom(self) -> QPoly:
        tok = self.peek()
        if tok.kind == "int":
            return QPoly.const(self.nvars, self.rational())
        if tok.kind == "(":
            if self.depth == MAX_NESTING_DEPTH:
                raise self.fail(f"parentheses exceed the nesting bound {MAX_NESTING_DEPTH}")
            self.advance()
            self.depth += 1
            value = self.expr()
            self.depth -= 1
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
        m = re.fullmatch(r"t([0-9]+)", tok.text)
        if not m:
            raise ParseError(f"unknown name {tok.text!r} (variables are t1..t{self.nvars})", tok.line, tok.col)
        idx = int(m.group(1))
        if not 1 <= idx <= self.nvars:
            raise ParseError(f"variable {tok.text} out of range 1..{self.nvars}", tok.line, tok.col)
        return idx - 1

    def exp_call(self) -> QPoly:
        self.expect("name")
        self.expect("(")
        tok = self.peek()
        rate = Q(1)
        if tok.kind in ("int", "-"):
            rate = self.signed_rational()
            self.expect("*")
        axis = self.variable()
        self.expect(")")
        return self.in_ring(lambda: QPoly.exp(self.nvars, axis, rate), tok)


def parse_expr(text: str, nvars: int) -> QPoly:
    """Parse an expression in the coordinates t1..t{nvars}."""
    value = _read_sum(text, nvars)
    if value is not None:
        return value
    parser = _Parser(text, nvars)
    return parser.parse(parser.expr)


@functools.cache
def _coordinates(nvars: int) -> tuple[dict[str, int], list[int]]:
    """The axis of each variable name t1..tn, and each axis's packed key."""
    return {f"t{axis + 1}": axis for axis in range(nvars)}, unit_keys(nvars)


def _digits(text: str) -> bool:
    """Whether ``text`` is one number token: ASCII digits within the token
    bound.  The caller has checked that its text is ASCII."""
    return text.isdigit() and len(text) <= MAX_TOKEN_LENGTH


def _ratio(text: str, signed: bool = False) -> tuple[int, int] | None:
    """INT or INT/INT, after one '-' when ``signed``, as (numerator,
    denominator > 0); None for any other text."""
    sign = 1
    if signed and text.startswith("-"):
        sign, text = -1, text[1:]
    num, slash, den = text.partition("/")
    if not _digits(num) or slash and not (_digits(den) and int(den)):
        return None
    return sign * int(num), int(den) if slash else 1


def _read_sum(text: str, nvars: int) -> QPoly | None:
    """The value of ``text`` in the printed sum-of-monomials form of the
    module docstring, or None when the text leaves that form or reaches a
    bound; the recursive-descent parser then reads it."""
    if not text.isascii():
        return None
    pieces = text.split(" ")
    if not len(pieces) % 2:
        return None
    names, units = _coordinates(nvars)
    parts: dict[tuple, list[tuple[int, int, int]]] = {}
    for index in range(0, len(pieces), 2):
        term = pieces[index]
        sign = 1
        if index:
            if pieces[index - 1] == "-":
                sign = -1
            elif pieces[index - 1] != "+":
                return None
        elif term.startswith("-"):
            sign, term = -1, term[1:]
        factors = term.split("*")
        num, den = 1, 1
        if factors[0][:1].isdigit():
            coefficient = _ratio(factors.pop(0))
            if coefficient is None:
                return None
            num, den = coefficient
        packed = degree = 0
        rates: dict[int, Fraction] = {}
        tokens = iter(factors)
        for factor in tokens:
            if factor.startswith("exp("):
                # exp(tN), or exp(R*tN), which the split on '*' cut in two.
                if factor.endswith(")"):
                    rate, name = (1, 1), factor[4:-1]
                else:
                    rate, name = _ratio(factor[4:], signed=True), next(tokens, "")
                    if not name.endswith(")"):
                        return None
                    name = name[:-1]
                axis = names.get(name)
                if rate is None or axis is None or axis in rates:
                    return None
                rates[axis] = Fraction(*rate)
                if abs(rates[axis]) > EXP_RATE_LIMIT:
                    return None
                continue
            name, caret, power = factor.partition("^")
            axis = names.get(name)
            if axis is None:
                return None
            if caret:
                if not _digits(power) or int(power) > MAX_POWER_DEGREE:
                    return None
                power = int(power)
            else:
                power = 1
            packed += power * units[axis]
            degree += power
        if degree > POWER_LIMIT:
            return None
        efac = tuple(sorted((axis, rate) for axis, rate in rates.items() if rate))
        parts.setdefault(efac, []).append((packed, sign * num, den))
    return from_packed(nvars, parts)


def parse_rational(text: str) -> Q:
    """Parse a standalone rational literal such as '-3/4' or '2'."""
    parser = _Parser(text, 0)
    return parser.parse(parser.signed_rational)
