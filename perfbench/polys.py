"""Small exact quasi-polynomial algebra for generating benchmark inputs.

This module is independent of the package under test: it parses and prints
the file expression grammar (rationals, t1..tn, + - * ^, exp(k*ti),
parentheses) and applies exact linear changes of coordinates.

A polynomial is a dict mapping a key ``(powers, rates)`` to a nonzero
Fraction, for the term ``c * prod t_i^powers[i] * prod exp(rates[i]*t_i)``.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q

_TOKEN = re.compile(r"\s*(?:(\d+)|(t\d+|exp)|(.))")


def const(c, n: int) -> dict:
    c = Q(c)
    return {((0,) * n, (Q(0),) * n): c} if c else {}


def var(i: int, n: int) -> dict:
    powers = tuple(1 if k == i else 0 for k in range(n))
    return {(powers, (Q(0),) * n): Q(1)}


def add(p: dict, q: dict, scale=1) -> dict:
    out = dict(p)
    for key, c in q.items():
        v = out.get(key, 0) + scale * c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (pp, pr), a in p.items():
        for (qp, qr), b in q.items():
            key = (tuple(x + y for x, y in zip(pp, qp)), tuple(x + y for x, y in zip(pr, qr)))
            v = out.get(key, 0) + a * b
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def power(p: dict, k: int, n: int) -> dict:
    out = const(1, n)
    for _ in range(k):
        out = mul(out, p)
    return out


def scale(p: dict, c) -> dict:
    c = Q(c)
    return {key: c * v for key, v in p.items()} if c else {}


def parse(text: str, n: int) -> dict:
    """Parse one expression of the file grammar in the variables t1..tn."""
    toks = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        num, name, sym = m.groups()
        toks.append(("int", int(num)) if num else ("name", name) if name else ("sym", sym))
        pos = m.end()
    toks.append(("end", None))
    i = 0

    def peek():
        return toks[i]

    def take(kind=None, value=None):
        nonlocal i
        tok = toks[i]
        if (kind and tok[0] != kind) or (value is not None and tok[1] != value):
            raise ValueError(f"unexpected token {tok!r} in {text!r}")
        i += 1
        return tok

    def rational():
        v = Q(take("int")[1])
        if peek() == ("sym", "/"):
            take()
            v /= take("int")[1]
        return v

    def variable():
        idx = int(take("name")[1][1:]) - 1
        if not 0 <= idx < n:
            raise ValueError(f"variable out of range in {text!r}")
        return idx

    def atom():
        kind, value = peek()
        if kind == "int":
            return const(rational(), n)
        if (kind, value) == ("sym", "("):
            take()
            v = expr()
            take("sym", ")")
            return v
        if (kind, value) == ("name", "exp"):
            take()
            take("sym", "(")
            rate = Q(1)
            if peek()[0] == "int" or peek() == ("sym", "-"):
                sign = -1 if peek() == ("sym", "-") else 1
                if sign < 0:
                    take()
                rate = sign * rational()
                take("sym", "*")
            axis = variable()
            take("sym", ")")
            return {((0,) * n, tuple(rate if k == axis else Q(0) for k in range(n))): Q(1)}
        return var(variable(), n)

    def factor():
        base = atom()
        if peek() == ("sym", "^"):
            take()
            return power(base, take("int")[1], n)
        return base

    def unary():
        if peek() == ("sym", "-"):
            take()
            return scale(unary(), -1)
        return factor()

    def term():
        v = unary()
        while peek() == ("sym", "*"):
            take()
            v = mul(v, unary())
        return v

    def expr():
        v = term()
        while peek() in (("sym", "+"), ("sym", "-")):
            sign = 1 if take()[1] == "+" else -1
            v = add(v, term(), sign)
        return v

    out = expr()
    take("end")
    return out


def _sort_key(item):
    (powers, rates), _c = item
    return (-sum(powers), tuple(-x for x in powers), tuple(-x for x in rates))


def fmt(p: dict) -> str:
    """Print a polynomial in the file grammar (canonical term order)."""
    if not p:
        return "0"
    parts = []
    for (powers, rates), c in sorted(p.items(), key=_sort_key):
        factors = [f"t{k + 1}" + (f"^{e}" if e > 1 else "") for k, e in enumerate(powers) if e]
        factors += [f"exp({r}*t{k + 1})" if r != 1 else f"exp(t{k + 1})" for k, r in enumerate(rates) if r]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        parts.append(("-" if c < 0 else "+", body))
    first_sign, first = parts[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def substitute(p: dict, a: list[list[Q]]) -> dict:
    """p(A s): replace each t_i by sum_l a[i][l] * s_l."""
    n = len(a)
    images = [{next(iter(var(l, n))): Q(a[i][l]) for l in range(n) if a[i][l]} for i in range(n)]
    out: dict = {}
    for (powers, rates), c in p.items():
        term = const(c, n)
        for i, e in enumerate(powers):
            if e:
                term = mul(term, power(images[i], e, n))
        exp_rates = [Q(0)] * n
        for i, r in enumerate(rates):
            for l in range(n):
                exp_rates[l] += r * a[i][l]
        shift = ((0,) * n, tuple(exp_rates))
        term = mul(term, {shift: Q(1)})
        out = add(out, term)
    return out


def exp_rates(p: dict, axis: int) -> set:
    return {rates[axis] for (_powers, rates) in p if rates[axis]}


def inverse(m: list[list[Q]]) -> list[list[Q]]:
    """Exact inverse by Gauss-Jordan elimination; raises on a singular matrix."""
    n = len(m)
    aug = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Q(0)) for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]
