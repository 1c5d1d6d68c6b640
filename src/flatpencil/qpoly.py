"""Exact quasi-polynomial and rational-function arithmetic over Q.

The scalar ring of the whole toolkit.  A :class:`QPoly` in ``nvars``
coordinates t1..tn is a finite Q-linear combination of terms

    t1^a1 * ... * tn^an * exp(r1*t1) * ... * exp(rn*tn)

with integer powers ``ai >= 0`` and rational rates ``ri`` (mostly zero).
A term is keyed by the pair

    (coordinate powers, exponential factors)

where the exponential factors are stored sparsely as a sorted tuple of
``(axis, rate)`` pairs with nonzero rates.  Products of exponentials on the
same coordinate normalize by adding rates, so the term map is a canonical
form: two QPoly are equal iff their term maps are equal.  No floating point
enters any arithmetic path; coefficients are `fractions.Fraction`.

:class:`RatFunc` is a fraction num/den of two QPoly, kept as it was built:
no common factors are cancelled and no denominator is scaled.  A value is
zero iff its numerator is, and equality is decided by cross-multiplication,
so no canonical form is needed.  The certificates are numerator identities
over the dense set where the denominator is nonzero; :func:`exact_divide`
turns a fraction into a quasi-polynomial when the division is exact.

Coordinate axes are 0-based throughout the library; the 1-based names
t1..tn appear only in parsed/printed expressions and JSON files.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import OutOfRingError

Q = Fraction

# A single term: (coordinate powers, ((axis, rate), ...)).
TermKey = tuple[tuple[int, ...], tuple[tuple[int, Q], ...]]

# Rates beyond this magnitude indicate a runaway product of exponential
# generators; the ring is kept finitely presented by treating it as an error.
EXP_RATE_LIMIT = Q(10**9)

# Iteration cap for exact_divide.  Exceeding it reports the division as
# inexact, so the caller keeps a fraction instead of a quotient.
_DIV_STEP_LIMIT = 20000


def _as_q(x) -> Q:
    if isinstance(x, Q):
        return x
    if isinstance(x, int):
        return Q(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QPoly:
    """Immutable exact quasi-polynomial."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[TermKey, Q] | None = None):
        self.nvars = nvars
        clean: dict[TermKey, Q] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff != 0:
                    clean[key] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "QPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value) -> "QPoly":
        value = _as_q(value)
        if value == 0:
            return cls(nvars)
        return cls(nvars, {((0,) * nvars, ()): value})

    @classmethod
    def var(cls, nvars: int, axis: int) -> "QPoly":
        if not 0 <= axis < nvars:
            raise IndexError(f"axis {axis} out of range for {nvars} variables")
        pows = [0] * nvars
        pows[axis] = 1
        return cls(nvars, {(tuple(pows), ()): Q(1)})

    @classmethod
    def exp(cls, nvars: int, axis: int, rate) -> "QPoly":
        """The unit exp(rate * t_axis)."""
        if not 0 <= axis < nvars:
            raise IndexError(f"axis {axis} out of range for {nvars} variables")
        rate = _as_q(rate)
        if rate == 0:
            return cls.const(nvars, 1)
        return cls(nvars, {((0,) * nvars, ((axis, rate),)): Q(1)})

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(self.nvars, other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; never used as a key

    def __add__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(self.nvars, other)
        if not isinstance(other, QPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        res = QPoly(self.nvars)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        res = QPoly(self.nvars)
        res.terms = {key: -coeff for key, coeff in self.terms.items()}
        return res

    def __sub__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(self.nvars, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other) -> "QPoly":
        return (self.__neg__()).__add__(other)

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            other = _as_q(other)
            if other == 0:
                return QPoly(self.nvars)
            res = QPoly(self.nvars)
            res.terms = {key: coeff * other for key, coeff in self.terms.items()}
            return res
        if not isinstance(other, QPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        out: dict[TermKey, Q] = {}
        for (pa, ea), ca in self.terms.items():
            for (pb, eb), cb in other.terms.items():
                key = (_mul_pows(pa, pb), _mul_exps(ea, eb))
                new = out.get(key, 0) + ca * cb
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        res = QPoly(self.nvars)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = QPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def diff(self, axis: int) -> "QPoly":
        """Partial derivative; exponential units obey d/dt exp(r t) = r exp(r t)."""
        if not 0 <= axis < self.nvars:
            raise IndexError(f"axis {axis} out of range")
        out: dict[TermKey, Q] = {}

        def put(key: TermKey, c: Q) -> None:
            new = out.get(key, 0) + c
            if new:
                out[key] = new
            else:
                out.pop(key, None)

        for (pows, efac), coeff in self.terms.items():
            a = pows[axis]
            if a:
                lowered = list(pows)
                lowered[axis] = a - 1
                put((tuple(lowered), efac), coeff * a)
            rate = _exp_rate(efac, axis)
            if rate:
                put((pows, efac), coeff * rate)
        res = QPoly(self.nvars)
        res.terms = out
        return res

    def integrate(self, axis: int) -> "QPoly":
        """An antiderivative with zero integration constant on every term.

        For a term t^a exp(r t) with r != 0, repeated integration by parts
        gives exp(r t) * sum_{j=0..a} (-1)^j a!/(a-j)! t^(a-j) / r^(j+1).
        """
        if not 0 <= axis < self.nvars:
            raise IndexError(f"axis {axis} out of range")
        total = QPoly(self.nvars)
        for (pows, efac), coeff in self.terms.items():
            a = pows[axis]
            rate = _exp_rate(efac, axis)
            if rate == 0:
                raised = list(pows)
                raised[axis] = a + 1
                total = total + QPoly(self.nvars, {(tuple(raised), efac): coeff / (a + 1)})
            else:
                acc: dict[TermKey, Q] = {}
                falling = 1
                for j in range(a + 1):
                    newpows = list(pows)
                    newpows[axis] = a - j
                    c = coeff * Q((-1) ** j) * falling / rate ** (j + 1)
                    acc[(tuple(newpows), efac)] = acc.get((tuple(newpows), efac), 0) + c
                    falling *= a - j
                total = total + QPoly(self.nvars, acc)
        return total

    # -- substitution and embedding -----------------------------------------

    def substitute(self, images: list["QPoly"]) -> "QPoly":
        """Substitute t_i -> images[i].

        Coordinate powers compose with arbitrary polynomial images.  An
        exponential factor on axis i composes only when images[i] is a
        homogeneous linear form sum_j c_j t_j, as the product of the
        exp(rate * c_j * t_j); exp of a constant or of a higher-degree
        polynomial leaves the ring.
        """
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        if not images:
            return self
        target_n = images[0].nvars
        out = QPoly.zero(target_n)
        pow_cache: dict[tuple[int, int], QPoly] = {}

        def image_pow(axis: int, p: int) -> QPoly:
            key = (axis, p)
            got = pow_cache.get(key)
            if got is None:
                got = images[axis] ** p
                pow_cache[key] = got
            return got

        for (pows, efac), coeff in self.terms.items():
            piece = QPoly.const(target_n, coeff)
            for axis, p in enumerate(pows):
                if p:
                    piece = piece * image_pow(axis, p)
            for axis, rate in efac:
                image = images[axis]
                if any(iefac or sum(ipows) != 1 for (ipows, iefac) in image.terms):
                    raise OutOfRingError(
                        f"cannot substitute into exp on t{axis + 1}: image is not "
                        "a homogeneous linear form"
                    )
                for (ipows, _e), scale in image.terms.items():
                    piece = piece * QPoly.exp(target_n, ipows.index(1), rate * scale)
            out = out + piece
        return out

    def lift(self, new_nvars: int) -> "QPoly":
        """Embed into a ring with extra trailing variables."""
        if new_nvars < self.nvars:
            raise ValueError("cannot shrink the ring")
        pad = (0,) * (new_nvars - self.nvars)
        res = QPoly(new_nvars)
        res.terms = {(pows + pad, efac): c for (pows, efac), c in self.terms.items()}
        return res

    # -- structure inspection ------------------------------------------------

    def total_degree(self) -> int:
        """Largest total coordinate degree; -1 on the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(pows) for (pows, _e) in self.terms)

    def is_polynomial(self) -> bool:
        return all(not efac for (_p, efac) in self.terms)

    def is_constant(self) -> bool:
        return all(not any(pows) and not efac for (pows, efac) in self.terms)

    def constant_value(self) -> Q:
        if self.is_zero():
            return Q(0)
        if not self.is_constant():
            raise ValueError("not a constant")
        return next(iter(self.terms.values()))

    def coefficient(self, pows: Iterable[int], efac: Iterable[tuple[int, Q]] = ()) -> Q:
        key = (tuple(pows), tuple((a, _as_q(r)) for a, r in efac))
        return self.terms.get(key, Q(0))

    def coeffs_by_power(self, axis: int) -> dict[int, "QPoly"]:
        """Split into coefficients of powers of one exp-free coordinate."""
        buckets: dict[int, dict[TermKey, Q]] = {}
        for (pows, efac), c in self.terms.items():
            if _exp_rate(efac, axis) != 0:
                raise ValueError("coordinate carries exponential factors")
            p = pows[axis]
            cleared = list(pows)
            cleared[axis] = 0
            buckets.setdefault(p, {})[(tuple(cleared), efac)] = c
        out = {}
        for p, terms in buckets.items():
            poly = QPoly(self.nvars)
            poly.terms = terms
            out[p] = poly
        return out

    def poly_part_degree_at_most(self, bound: int) -> "QPoly":
        """Exponential-free terms of total degree <= bound."""
        res = QPoly(self.nvars)
        res.terms = {
            (pows, efac): c
            for (pows, efac), c in self.terms.items()
            if not efac and sum(pows) <= bound
        }
        return res

    def exp_rates_on(self, axis: int) -> set[Q]:
        return {r for (_p, efac) in self.terms for a, r in efac if a == axis}

    # -- evaluation -----------------------------------------------------------

    def eval(self, coords: list[Q], expvals: Mapping[int, tuple[Q, Q]] | None = None) -> Q:
        """Exact evaluation at rational coordinates.

        ``expvals[axis] = (base_rate, value)`` assigns the rational ``value``
        to the unit exp(base_rate * t_axis); a factor exp(r * t_axis) then
        evaluates to value**(r/base_rate), which must be an integer power.
        """
        if len(coords) != self.nvars:
            raise ValueError("wrong coordinate count")
        expvals = expvals or {}
        total = Q(0)
        for (pows, efac), coeff in self.terms.items():
            val = coeff
            for axis, p in enumerate(pows):
                if p:
                    val *= coords[axis] ** p
            for axis, rate in efac:
                if axis not in expvals:
                    raise ValueError(f"no exponential value supplied for axis {axis}")
                base, unit = expvals[axis]
                mult = rate / base
                if mult.denominator != 1:
                    raise ValueError("exp rate is not an integer multiple of the base")
                val *= unit ** int(mult)
            total += val
        return total

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (sum(k[0]), k), reverse=True)
        pieces: list[str] = []
        for key in keys:
            coeff = self.terms[key]
            body = _term_body(key)
            mag = -coeff if coeff < 0 else coeff
            if body == "1":
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            if not pieces:
                pieces.append(text if coeff > 0 else f"-{text}")
            else:
                pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"QPoly({self.nvars}, {self})"


def _mul_pows(pa: tuple[int, ...], pb: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(pa, pb))


def _mul_exps(
    ea: tuple[tuple[int, Q], ...], eb: tuple[tuple[int, Q], ...]
) -> tuple[tuple[int, Q], ...]:
    if not ea:
        return eb
    if not eb:
        return ea
    rates: dict[int, Q] = dict(ea)
    for axis, rate in eb:
        new = rates.get(axis, 0) + rate
        if new:
            if abs(new) > EXP_RATE_LIMIT:
                raise OutOfRingError("exponential generator rate bound exceeded")
            rates[axis] = new
        else:
            rates.pop(axis, None)
    return tuple(sorted(rates.items()))


def _exp_rate(efac: tuple[tuple[int, Q], ...], axis: int) -> Q:
    for a, r in efac:
        if a == axis:
            return r
    return Q(0)


def _term_body(key: TermKey) -> str:
    pows, efac = key
    factors = []
    for axis, p in enumerate(pows):
        if p == 1:
            factors.append(f"t{axis + 1}")
        elif p > 1:
            factors.append(f"t{axis + 1}^{p}")
    for axis, rate in efac:
        if rate == 1:
            factors.append(f"exp(t{axis + 1})")
        else:
            factors.append(f"exp({rate}*t{axis + 1})")
    return "*".join(factors) if factors else "1"


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """A fraction num/den of two QPoly, kept as it was built.

    Sums over equal denominators add numerators, and a sum where one
    denominator divides the other is taken over the larger one, so a tensor
    over one shared denominator stays over it (or its square, after a
    derivative).  Nothing else is reduced: the value is exact whatever the
    representation, and only :meth:`quotient` divides.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: QPoly, den: QPoly | None = None):
        if den is None:
            den = QPoly.const(num.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.nvars != den.nvars:
            raise ValueError("mixed variable counts")
        self.num = num
        self.den = den

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def quotient(self) -> QPoly | None:
        """num/den as a quasi-polynomial when the division is exact, else None."""
        return exact_divide(self.num, self.den)

    def is_polynomial(self) -> bool:
        return self.quotient() is not None

    def as_poly(self) -> QPoly:
        """The quotient; raises OutOfRingError when it is not a quasi-polynomial."""
        quo = self.quotient()
        if quo is None:
            raise OutOfRingError("rational function with nontrivial denominator")
        return quo

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, QPoly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc(QPoly.const(self.nvars, other))
        raise TypeError(f"cannot combine RatFunc with {type(other).__name__}")

    def __add__(self, other) -> "RatFunc":
        other = self._coerce(other)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        scale = exact_divide(self.den, other.den)
        if scale is not None:
            return RatFunc(self.num + other.num * scale, self.den)
        scale = exact_divide(other.den, self.den)
        if scale is not None:
            return RatFunc(self.num * scale + other.num, other.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self.__add__(self._coerce(other).__neg__())

    def __rsub__(self, other) -> "RatFunc":
        return self.__neg__().__add__(other)

    def __mul__(self, other) -> "RatFunc":
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, QPoly)):
            other = self._coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    __hash__ = None

    def diff(self, axis: int) -> "RatFunc":
        return RatFunc(
            self.num.diff(axis) * self.den - self.num * self.den.diff(axis),
            self.den * self.den,
        )

    def lift(self, new_nvars: int) -> "RatFunc":
        return RatFunc(self.num.lift(new_nvars), self.den.lift(new_nvars))

    def __str__(self) -> str:
        quo = self.quotient()
        if quo is not None:
            return str(quo)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def exact_divide(num: QPoly, den: QPoly) -> QPoly | None:
    """Return num/den when the division is exact in the ring, else None.

    Leading-term reduction in a monomial order: total coordinate degree,
    then the coordinate powers, then the dense per-axis rate vector, all
    lexicographic.  The order is compatible with multiplication, so an
    exact quotient is found term by term from the top.  Since the ring is
    an integral domain, the largest and smallest coordinate degree and
    exponential rate on each axis add under multiplication; a quotient term
    outside the range this leaves for an exact quotient proves the division
    inexact.  Quotient terms strictly decrease and the range holds finitely
    many of them, so the pass ends; the step limit is a backstop past which
    the division is reported as "not divisible", which callers treat as
    "keep the quotient as a fraction".
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if den.is_constant():
        return num * (1 / den.constant_value())
    if num.is_zero():
        return QPoly.zero(num.nvars)

    def order_key(key: TermKey):
        return (sum(key[0]), _axis_values(key))

    num_span, den_span = _axis_spans(num), _axis_spans(den)
    low = [n_lo - d_lo for (n_lo, _n), (d_lo, _d) in zip(num_span, den_span)]
    high = [n_hi - d_hi for (_n, n_hi), (_d, d_hi) in zip(num_span, den_span)]
    if any(lo > hi for lo, hi in zip(low, high)):
        return None

    den_lead = max(den.terms, key=order_key)
    den_lead_coeff = den.terms[den_lead]
    rem = dict(num.terms)
    quo: dict[TermKey, Q] = {}
    steps = 0
    while rem:
        steps += 1
        if steps > _DIV_STEP_LIMIT:
            return None
        lead = max(rem, key=order_key)
        factor = _monomial_quotient(lead, den_lead)
        if factor is None or not all(lo <= v <= hi for lo, v, hi in zip(low, _axis_values(factor), high)):
            return None
        coeff = rem[lead] / den_lead_coeff
        quo[factor] = coeff
        for (pows, efac), c in den.terms.items():
            key = (_mul_pows(pows, factor[0]), _mul_exps(efac, factor[1]))
            new = rem.get(key, 0) - coeff * c
            if new:
                rem[key] = new
            else:
                rem.pop(key, None)
    result = QPoly(num.nvars)
    result.terms = quo
    return result


def _axis_values(key: TermKey) -> list:
    """The coordinate power on each axis, then the exponential rate on each axis."""
    rates = [Q(0)] * len(key[0])
    for axis, rate in key[1]:
        rates[axis] = rate
    return [*key[0], *rates]


def _axis_spans(p: QPoly) -> list[tuple]:
    """(smallest, largest) of each entry of _axis_values over the terms of p."""
    columns = zip(*(_axis_values(key) for key in p.terms))
    return [(min(col), max(col)) for col in columns]


def _monomial_quotient(a: TermKey, b: TermKey) -> TermKey | None:
    """a / b as a term key, or None when coordinate powers do not divide."""
    pows = tuple(x - y for x, y in zip(a[0], b[0]))
    if any(p < 0 for p in pows):
        return None
    rates: dict[int, Q] = dict(a[1])
    for axis, r in b[1]:
        new = rates.get(axis, Q(0)) - r
        if new:
            rates[axis] = new
        else:
            rates.pop(axis, None)
    return (pows, tuple(sorted(rates.items())))
