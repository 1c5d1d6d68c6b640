"""Exact quasi-polynomial and rational-function arithmetic over Q.

The scalar ring of the whole toolkit.  A :class:`QPoly` in ``nvars``
coordinates t1..tn is a finite Q-linear combination of terms

    t1^a1 * ... * tn^an * exp(r1*t1) * ... * exp(rn*tn)

with integer powers ``ai >= 0`` and rational rates ``ri`` (mostly zero).
The exponential factor of a term is stored sparsely as a sorted tuple of
``(axis, rate)`` pairs with nonzero rates, ``()`` on an exp-free term.
Products of exponentials on the same coordinate normalize by adding rates.

The store groups the terms by exponential factor,

    {exponential factor: {packed coordinate powers: integer numerator}},

so a term is keyed by its factor and, inside that group, by one int.  No
group is empty, and the zero polynomial is ``{}``.  Every exp-free term
lives in the group ``()``: a product of two groups forms its exponential
factor once and then runs over plain int keys.

The coordinate powers are packed into one int of 16-bit fields: the top
field holds the total degree, then one field per axis, axis 0 first,

    packed = (a1 + ... + an) << 16n | a1 << 16(n-1) | ... | an.

The integer order of packed keys is therefore (total degree, powers
lexicographic), which is both the printed term order and the monomial
order of :func:`exact_divide`.  A product of two terms adds their packed
keys; a derivative or an integral subtracts or adds one per-axis unit (a
one in the axis field and in the degree field).  The top bit of every
field is a guard that no stored key sets, so every power and the total
degree are at most ``POWER_LIMIT`` = 32767.  The total degree bounds every
power, so a product or an integral that would set a guard sets the one of
the degree field; it raises :class:`RingBoundError` (an
:class:`OutOfRingError`), as the exp-rate bound does, and exact division
reads a negative power as a borrow into a guard bit.  Keys are unpacked
only at the API edge: ``QPoly(nvars, {(pows, efac): Fraction})``,
:attr:`QPoly.terms` and :meth:`QPoly.coefficient` speak in ``(powers
tuple, exponential factor)`` pairs, and printing, evaluation,
substitution and embedding read the powers back.  The expression reader
packs the powers of a printed term itself (:func:`unit_keys`) and hands
the terms to :func:`from_packed`.

The coefficients are stored as integer numerators over one positive
common denominator, reduced so that the denominator and the numerators
have no common factor (the zero polynomial has denominator 1).  That is a
canonical form: two QPoly are equal iff their stores and denominators are
equal.  Sums, products, derivatives and divisions run on Python ints;
`fractions.Fraction` appears only at the API edge, in the constructor, the
:attr:`QPoly.terms` view, single coefficients, evaluation and printing.
Exponential rates are Fractions, as part of the group key.  No floating
point enters any arithmetic path.

:func:`dot` is the one multiply-accumulate kernel of the contraction sum
a*b over ``plus`` minus sum a*b over ``minus``: it skips a pair with a zero
operand and reduces one store over the lcm of the pair denominators once.
With a RatFunc operand it is the left fold ``acc +- a*b`` from zero in pair
order, so a fraction keeps the representation a written-out loop gives it.

:func:`primitive` is the one integration kernel of a closed tensor: the h
whose k-th partial derivatives are a given symmetric tensor, in one pass
over its terms (Euler's identity on the exp-free terms).

:class:`RatFunc` is a fraction num/den of two QPoly, kept as it was built:
no common factors are cancelled and no denominator is scaled.  A value is
zero iff its numerator is, and equality is decided by cross-multiplication,
so no canonical form is needed.  The certificates are numerator identities
over the dense set where the denominator is nonzero; :func:`exact_divide`
turns a fraction into a quasi-polynomial when the division is exact.
RatFunc is only built over a non-constant denominator: a quasi-polynomial
stays a QPoly, which reads as the fraction self/1 (``num``, ``den``,
``as_poly``), so one kernel serves tensors of either kind.
A QPoly operator returns NotImplemented for a RatFunc operand, so mixed
sums and products are taken by RatFunc's reflected operators.

Coordinate axes are 0-based throughout the library; the 1-based names
t1..tn appear only in parsed/printed expressions and JSON files.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, gcd, lcm, perm, prod

from .errors import OutOfRingError, RingBoundError

Q = Fraction

# An exponential factor ((axis, rate), ...), () on an exp-free term.
ExpFactor = tuple[tuple[int, Q], ...]
# A single term at the API edge: (coordinate powers, exponential factor).
TermKey = tuple[tuple[int, ...], ExpFactor]
# The store: exponential factor -> {packed powers: integer numerator}.
Store = dict[ExpFactor, dict[int, int]]

# The store of the constant 1; dot reads a scalar operand as a multiple of it.
_ONE: Store = {(): {0: 1}}

# Rates beyond this magnitude indicate a runaway product of exponential
# generators; the ring is kept finitely presented by treating it as an error.
EXP_RATE_LIMIT = Q(10**9)

# Width of one packed field; its top bit is the guard, so a power or total
# degree beyond POWER_LIMIT does not fit.
_FIELD = 16
_FIELD_MASK = (1 << _FIELD) - 1
POWER_LIMIT = (1 << (_FIELD - 1)) - 1

# Iteration cap for exact_divide.  Exceeding it reports the division as
# inexact, so the caller keeps a fraction instead of a quotient.
_DIV_STEP_LIMIT = 20000


def _as_q(x) -> Q:
    if isinstance(x, Q):
        return x
    if isinstance(x, int):
        return Q(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


# -- packed coordinate powers ------------------------------------------------


def _power_bound_error() -> RingBoundError:
    return RingBoundError(f"coordinate power bound {POWER_LIMIT} exceeded")


def _pack(pows: tuple[int, ...]) -> int:
    total = sum(pows)
    if total > POWER_LIMIT:
        raise _power_bound_error()
    packed = total
    for p in pows:
        if p < 0:
            raise ValueError("coordinate powers must be nonnegative")
        packed = (packed << _FIELD) | p
    return packed


def _unpack(packed: int, nvars: int) -> tuple[int, ...]:
    """The coordinate powers of a packed key, axis 0 first."""
    return tuple([(packed >> shift) & _FIELD_MASK for shift in range(_FIELD * (nvars - 1), -1, -_FIELD)])


def _shift(nvars: int, axis: int) -> int:
    """Bit offset of the field of ``axis``."""
    return _FIELD * (nvars - 1 - axis)


def _unit(nvars: int, axis: int) -> int:
    """The packed powers of t_axis: one in its field and in the degree field."""
    return (1 << (_FIELD * nvars)) | (1 << _shift(nvars, axis))


def _check_degree(groups: Store, nvars: int) -> None:
    """Raise when a key of ``groups`` sets the guard bit of the degree field.

    Keys built from stored keys by one addition of a packed product or unit
    never carry between fields, and every power is at most the total
    degree, so this one bit covers every field.
    """
    if groups and max(map(max, groups.values())) >> (_FIELD * nvars + _FIELD - 1):
        raise _power_bound_error()


def _make(nvars: int, groups: Store, den: int = 1) -> "QPoly":
    """The QPoly groups / den in canonical form: zeros dropped, and a group
    they empty dropped whole, numerators and den > 0 divided by their gcd
    (which makes zero's den 1).  No group of ``groups`` may be empty to
    begin with.  The result may keep ``groups`` and its dicts, which nobody
    may change afterwards."""
    g, zeros = den, False
    for nums in groups.values():
        if 0 in nums.values():
            zeros = True
        if g != 1:
            g = gcd(g, *nums.values())
    if zeros or g != 1:
        reduced = {}
        for efac, nums in groups.items():
            if any(nums.values()):
                reduced[efac] = {p: c // g for p, c in nums.items() if c}
        groups, den = reduced, den // g
    res = QPoly.__new__(QPoly)
    res.nvars = nvars
    res.numerators = groups
    res.denominator = den
    return res


def _scaled(groups: Store, scale: int) -> Store:
    """A new store with every numerator times ``scale``."""
    out = {}
    for efac, nums in groups.items():
        out[efac] = dict(nums) if scale == 1 else {p: c * scale for p, c in nums.items()}
    return out


def _add_into(out: Store, groups: Store, scale: int) -> None:
    """Add scale * groups into ``out``, whose dicts nobody else holds."""
    for efac, nums in groups.items():
        dest = out.get(efac)
        if dest is None:
            dest = out[efac] = {}
        get = dest.get
        for p, c in nums.items():
            dest[p] = get(p, 0) + c * scale


def _over_common_den(parts: dict[ExpFactor, list[tuple[int, int, int]]]) -> tuple[Store, int]:
    """Sum the terms (efac, packed) * (num / den) of ``parts[efac]``, each
    a nonempty list of (packed, num, den > 0), as integer numerators over
    the least common denominator."""
    den = lcm(*(d for terms in parts.values() for _p, _n, d in terms))
    groups: Store = {}
    for efac, terms in parts.items():
        nums = groups[efac] = {}
        get = nums.get
        for packed, n, d in terms:
            nums[packed] = get(packed, 0) + n * (den // d)
    return groups, den


def unit_keys(nvars: int) -> list[int]:
    """The packed key of each coordinate t1..tn: a monomial's key is the sum
    of the keys of its factors, counted with multiplicity."""
    return [_unit(nvars, axis) for axis in range(nvars)]


def from_packed(nvars: int, parts: dict[ExpFactor, list[tuple[int, int, int]]]) -> "QPoly":
    """The sum of the terms (efac, packed) * (num / den) of ``parts[efac]``,
    each a nonempty list of (packed, num, den > 0), in canonical form:
    repeated terms add and zeros drop.  A packed key is a sum of
    :func:`unit_keys` of total degree at most ``POWER_LIMIT``."""
    return _make(nvars, *_over_common_den(parts))


def _mul_into(out: Store, left: Store, right: Store, scale: int) -> None:
    """Add scale * left * right into ``out``: the exponential factor once
    per pair of groups, then term by term over int keys."""
    for ea in left:
        left_nums = left[ea]
        for eb in right:
            efac = _mul_exps(ea, eb) if ea and eb else ea or eb
            dest = out.get(efac)
            if dest is None:
                dest = out[efac] = {}
            get = dest.get
            right_items = right[eb].items()
            for pa, ca in left_nums.items():
                c = ca * scale
                for pb, cb in right_items:
                    key = pa + pb
                    dest[key] = get(key, 0) + c * cb


class QPoly:
    """Immutable exact quasi-polynomial: integer numerators over one denominator.

    ``numerators`` maps each exponential factor to a nonempty dict from
    packed powers to nonzero ints, and ``denominator`` is a positive int
    sharing no factor with all of them.  ``QPoly(nvars, {key: Fraction})``
    builds one from rational coefficients under TermKey keys; ``terms``
    reads them back as Fractions under the same keys.
    """

    __slots__ = ("nvars", "numerators", "denominator")

    def __init__(self, nvars: int, terms: Mapping[TermKey, Q] | None = None):
        # Reduced fractions under distinct keys, put over the lcm of their
        # denominators, have numerators sharing no factor with it: the result
        # is already canonical.
        self.nvars = nvars
        parts: dict[ExpFactor, list[tuple[int, int, int]]] = {}
        for (pows, efac), c in (terms or {}).items():
            if c:
                if len(pows) != nvars:
                    raise ValueError(f"term {pows} does not have {nvars} powers")
                parts.setdefault(efac, []).append((_pack(pows), c.numerator, c.denominator))
        self.numerators, self.denominator = _over_common_den(parts)

    @property
    def terms(self) -> dict[TermKey, Q]:
        """The coefficients as Fractions, in a new dict on every read."""
        den, n = self.denominator, self.nvars
        return {
            (_unpack(packed, n), efac): Q(c, den)
            for efac, nums in self.numerators.items()
            for packed, c in nums.items()
        }

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "QPoly":
        return _make(nvars, {})

    @classmethod
    def const(cls, nvars: int, value) -> "QPoly":
        if not isinstance(value, int):
            value = _as_q(value)
        if not value:
            return _make(nvars, {})
        return _make(nvars, {(): {0: value.numerator}}, value.denominator)

    @classmethod
    def var(cls, nvars: int, axis: int) -> "QPoly":
        if not 0 <= axis < nvars:
            raise IndexError(f"axis {axis} out of range for {nvars} variables")
        return _make(nvars, {(): {_unit(nvars, axis): 1}})

    @classmethod
    def exp(cls, nvars: int, axis: int, rate) -> "QPoly":
        """The unit exp(rate * t_axis); |rate| is at most EXP_RATE_LIMIT."""
        if not 0 <= axis < nvars:
            raise IndexError(f"axis {axis} out of range for {nvars} variables")
        rate = _as_q(rate)
        if abs(rate) > EXP_RATE_LIMIT:
            raise RingBoundError(f"exponential generator rate bound {EXP_RATE_LIMIT} exceeded")
        if rate == 0:
            return cls.const(nvars, 1)
        return _make(nvars, {((axis, rate),): {0: 1}})

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def is_zero(self) -> bool:
        return not self.numerators

    def _operand(self, other) -> "QPoly | None":
        """``other`` as a QPoly in this ring, or None for a foreign type."""
        if not isinstance(other, QPoly):
            if not isinstance(other, (int, Fraction)):
                return None
            return QPoly.const(self.nvars, other)
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        return other

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QPoly.const(self.nvars, other)
        return (
            self.nvars == other.nvars
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    __hash__ = None  # mutable dict inside; never used as a key

    def _plus(self, other: "QPoly", sign: int) -> "QPoly":
        """self + sign * other, numerators added over the lcm of the denominators."""
        if not other.numerators:
            return self
        if not self.numerators:
            return other if sign > 0 else other.__neg__()
        da, db = self.denominator, other.denominator
        den = da if da == db else lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        out = _scaled(self.numerators, sa)
        _add_into(out, other.numerators, sb)
        return _make(self.nvars, out, den)

    def __add__(self, other) -> "QPoly":
        other = self._operand(other)
        return NotImplemented if other is None else self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return _make(self.nvars, _scaled(self.numerators, -1), self.denominator)

    def __sub__(self, other) -> "QPoly":
        other = self._operand(other)
        return NotImplemented if other is None else self._plus(other, -1)

    def __mul__(self, other) -> "QPoly":
        if not isinstance(other, QPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return _make(self.nvars, {})
            return _make(self.nvars, _scaled(self.numerators, other.numerator), self.denominator * other.denominator)
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        out: Store = {}
        _mul_into(out, self.numerators, other.numerators, 1)
        _check_degree(out, self.nvars)
        return _make(self.nvars, out, self.denominator * other.denominator)

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

    # -- read as the fraction self/1 ----------------------------------------
    # Tensor entries are QPoly, or RatFunc over a non-constant denominator;
    # these let one kernel read either kind.

    @property
    def num(self) -> "QPoly":
        return self

    @property
    def den(self) -> "QPoly":
        return QPoly.const(self.nvars, 1)

    def as_poly(self) -> "QPoly":
        return self

    # -- calculus ----------------------------------------------------------

    def diff(self, axis: int) -> "QPoly":
        """Partial derivative; exponential units obey d/dt exp(r t) = r exp(r t).

        The result is taken over the denominator times the lcm of the rate
        denominators on the axis, so every coefficient stays an integer; an
        exp-free store (the group () alone) reads no rate and runs one loop.
        """
        nvars, groups = self.nvars, self.numerators
        if not 0 <= axis < nvars:
            raise IndexError(f"axis {axis} out of range")
        if not groups:
            return self
        scale = 1
        if any(groups):  # an exponential group, so rates to read
            for efac in groups:
                rate = _exp_rate(efac, axis)
                if rate:
                    scale = lcm(scale, rate.denominator)
        shift = _FIELD * (nvars - 1 - axis)
        unit = (1 << (_FIELD * nvars)) | (1 << shift)
        out: Store = {}
        for efac, nums in groups.items():
            rate = _exp_rate(efac, axis) if efac else 0
            if not rate:
                # Lowering one power maps the terms it keeps to distinct keys.
                lowered = {}
                for packed, c in nums.items():
                    a = (packed >> shift) & _FIELD_MASK
                    if a:
                        lowered[packed - unit] = c * a * scale
                if lowered:
                    out[efac] = lowered
                continue
            r = rate.numerator * (scale // rate.denominator)
            dest = out[efac] = {}
            get = dest.get
            for packed, c in nums.items():
                a = (packed >> shift) & _FIELD_MASK
                if a:
                    key = packed - unit
                    dest[key] = get(key, 0) + c * a * scale
                dest[packed] = get(packed, 0) + c * r
        return _make(nvars, out, self.denominator * scale)

    def integrate(self, axis: int) -> "QPoly":
        """An antiderivative with zero integration constant on every term.

        For a term t^a exp(r t) with r != 0, repeated integration by parts
        gives exp(r t) * sum_{j=0..a} (-1)^j a!/(a-j)! t^(a-j) / r^(j+1).
        """
        if not 0 <= axis < self.nvars:
            raise IndexError(f"axis {axis} out of range")
        shift, unit = _shift(self.nvars, axis), _unit(self.nvars, axis)
        parts: dict[ExpFactor, list[tuple[int, int, int]]] = {}
        for efac, nums in self.numerators.items():
            rate = _exp_rate(efac, axis)
            terms = parts[efac] = []
            for packed, c in nums.items():
                a = (packed >> shift) & _FIELD_MASK
                if not rate:
                    terms.append((packed + unit, c, a + 1))
                    continue
                rn, rd = rate.numerator, rate.denominator
                falling = 1
                for j in range(a + 1):
                    # c * (-1)^j * falling / r^(j+1), with r = rn / rd
                    num, den = (-1) ** j * c * falling * rd ** (j + 1), rn ** (j + 1)
                    if den < 0:
                        num, den = -num, -den
                    terms.append((packed - j * unit, num, den))
                    falling *= a - j
        groups, den = _over_common_den(parts)
        _check_degree(groups, self.nvars)
        return _make(self.nvars, groups, self.denominator * den)

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

        # Each term enters with its integer numerator; the common
        # denominator divides the sum once at the end.
        for efac, nums in self.numerators.items():
            for packed, c in nums.items():
                piece = QPoly.const(target_n, c)
                for axis, p in enumerate(_unpack(packed, self.nvars)):
                    if p:
                        piece = piece * image_pow(axis, p)
                for axis, rate in efac:
                    image = images[axis]
                    linear = image.numerators.get((), {})
                    if not image.is_polynomial() or any(ip >> (_FIELD * target_n) != 1 for ip in linear):
                        raise OutOfRingError(
                            f"cannot substitute into exp on t{axis + 1}: image is not "
                            "a homogeneous linear form"
                        )
                    for ipacked, ic in linear.items():
                        target = _unpack(ipacked, target_n).index(1)
                        piece = piece * QPoly.exp(target_n, target, rate * ic / image.denominator)
                out = out + piece
        return _make(target_n, out.numerators, out.denominator * self.denominator)

    def lift(self, new_nvars: int) -> "QPoly":
        """Embed into a ring with extra trailing variables: zero trailing
        fields leave the total degree as it is, so each key is one shift."""
        if new_nvars < self.nvars:
            raise ValueError("cannot shrink the ring")
        shift = _FIELD * (new_nvars - self.nvars)
        return _make(
            new_nvars,
            {efac: {p << shift: c for p, c in nums.items()} for efac, nums in self.numerators.items()},
            self.denominator,
        )

    # -- structure inspection ------------------------------------------------

    def total_degree(self) -> int:
        """Largest total coordinate degree; -1 on the zero polynomial."""
        if not self.numerators:
            return -1
        return max(map(max, self.numerators.values())) >> (_FIELD * self.nvars)

    def is_polynomial(self) -> bool:
        return all(not efac for efac in self.numerators)

    def is_constant(self) -> bool:
        return all(not efac and not any(nums) for efac, nums in self.numerators.items())

    def constant_value(self) -> Q:
        if self.is_zero():
            return Q(0)
        if not self.is_constant():
            raise ValueError("not a constant")
        return Q(self.numerators[()][0], self.denominator)

    def coefficient(self, pows: Iterable[int], efac: Iterable[tuple[int, Q]] = ()) -> Q:
        pows = tuple(pows)
        if len(pows) != self.nvars:
            raise ValueError(f"term {pows} does not have {self.nvars} powers")
        nums = self.numerators.get(tuple((a, _as_q(r)) for a, r in efac), {})
        return Q(nums.get(_pack(pows), 0), self.denominator)

    def coeffs_by_power(self, axis: int) -> dict[int, "QPoly"]:
        """Split into coefficients of powers of one exp-free coordinate."""
        shift, unit = _shift(self.nvars, axis), _unit(self.nvars, axis)
        buckets: dict[int, Store] = {}
        for efac, nums in self.numerators.items():
            if _exp_rate(efac, axis) != 0:
                raise ValueError("coordinate carries exponential factors")
            for packed, c in nums.items():
                p = (packed >> shift) & _FIELD_MASK
                buckets.setdefault(p, {}).setdefault(efac, {})[packed - p * unit] = c
        return {p: _make(self.nvars, groups, self.denominator) for p, groups in buckets.items()}

    def poly_part_degree_at_most(self, bound: int) -> "QPoly":
        """Exponential-free terms of total degree <= bound."""
        top = _FIELD * self.nvars
        kept = {p: c for p, c in self.numerators.get((), {}).items() if p >> top <= bound}
        return _make(self.nvars, {(): kept} if kept else {}, self.denominator)

    def exp_rates_on(self, axis: int) -> set[Q]:
        return {r for efac in self.numerators for a, r in efac if a == axis}

    # -- evaluation -----------------------------------------------------------

    def eval(self, coords: list[Q], expvals: Mapping[int, tuple[Q, Q]] | None = None) -> Q:
        """Exact evaluation at rational (int or Fraction) coordinates.

        ``expvals[axis] = (base_rate, value)`` assigns the rational ``value``
        to the unit exp(base_rate * t_axis); a factor exp(r * t_axis) then
        evaluates to value**(r/base_rate), which must be an integer power.
        """
        if len(coords) != self.nvars:
            raise ValueError("wrong coordinate count")
        expvals = expvals or {}
        if not self.numerators:
            return Q(0)
        nvars = self.nvars
        # With t_k = p_k / q_k and D the largest total degree, a term of
        # powers a times prod_k q_k^D is the integer prod_k p_k^a_k q_k^(D - a_k),
        # read from one table per axis; the sum stays a fraction of ints
        # num / den, reduced once at the end.
        top = max(max(nums) for nums in self.numerators.values()) >> (_FIELD * nvars)
        tables = []
        scale = self.denominator
        for axis, c in enumerate(coords):
            p, q = c.numerator, c.denominator
            tables.append((_shift(nvars, axis), [p**a * q ** (top - a) for a in range(top + 1)]))
            scale *= q**top
        num, den = 0, 1
        for efac, nums in self.numerators.items():
            acc = 0
            for packed, coeff in nums.items():
                for shift, table in tables:
                    coeff *= table[(packed >> shift) & _FIELD_MASK]
                acc += coeff
            part = 1
            for axis, rate in efac:
                if axis not in expvals:
                    raise ValueError(f"no exponential value supplied for axis {axis}")
                base, unit = expvals[axis]
                mult = rate / base
                if mult.denominator != 1:
                    raise ValueError("exp rate is not an integer multiple of the base")
                part *= Q(unit) ** int(mult)
            if part == 1:
                num += acc * den
            else:
                num, den = num * part.denominator + acc * part.numerator * den, den * part.denominator
        return Q(num, den * scale)

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.numerators:
            return "0"
        pieces: list[str] = []
        den = self.denominator
        keys = sorted(((packed, efac) for efac, nums in self.numerators.items() for packed in nums), reverse=True)
        for packed, efac in keys:
            num = self.numerators[efac][packed]
            body = _term_body(packed, efac, self.nvars)
            # |num|/den in lowest terms, printed as str(Fraction) prints it.
            g = gcd(num, den)
            mag = str(abs(num) // g) if g == den else f"{abs(num) // g}/{den // g}"
            if body == "1":
                text = mag
            elif mag == "1":
                text = body
            else:
                text = f"{mag}*{body}"
            if not pieces:
                pieces.append(text if num > 0 else f"-{text}")
            else:
                pieces.append(f"+ {text}" if num > 0 else f"- {text}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"QPoly({self.nvars}, {self})"


def dot(nvars: int, plus: Iterable[tuple], minus: Iterable[tuple] = ()) -> "QPoly | RatFunc":
    """sum(a * b for a, b in plus) - sum(a * b for a, b in minus).

    The operands are QPoly in ``nvars`` variables, ints or Fractions; a
    RatFunc operand sends every pair to :func:`_fold`, so that a fraction
    keeps the numerator and denominator of the written-out loop.  The power
    bound is checked on the sum, so products that cancel may cross it.
    """
    plus, minus = list(plus), list(minus)  # the fold may walk one-shot iterators again
    products = []  # (k, store, store or _ONE, den): k * store * store / den
    for sign, pairs in ((1, plus), (-1, minus)):
        for a, b in pairs:
            if a.__class__ is QPoly and b.__class__ is QPoly and a.nvars == nvars == b.nvars:
                if a.numerators and b.numerators:
                    products.append((sign, a.numerators, b.numerators, a.denominator * b.denominator))
                continue
            k, store, den = sign, _ONE, 1  # a scalar operand goes into k and den
            for x in (a, b):
                if x.__class__ is QPoly:
                    if x.nvars != nvars:
                        raise ValueError("mixed variable counts")
                    store, den = x.numerators, den * x.denominator
                elif isinstance(x, (int, Fraction)):
                    k, den = k * x.numerator, den * x.denominator
                elif isinstance(x, RatFunc):
                    return _fold(nvars, [(1, a, b) for a, b in plus] + [(-1, a, b) for a, b in minus])
                else:
                    raise TypeError(f"expected QPoly, RatFunc, int or Fraction, got {type(x).__name__}")
            if k and store:
                products.append((k, store, _ONE, den))
    if not products:
        return QPoly.zero(nvars)
    den = lcm(*(d for _k, _a, _b, d in products))
    out: Store = {}
    for k, na, nb, d in products:
        if nb is _ONE:  # a scalar operand scales the other one
            _add_into(out, na, k * (den // d))
        else:
            _mul_into(out, na, nb, k * (den // d))
    res = _make(nvars, out, den)
    _check_degree(res.numerators, nvars)
    return res


def _fold(nvars: int, pairs: list[tuple]) -> "QPoly | RatFunc":
    acc = QPoly.zero(nvars)
    for sign, a, b in pairs:
        # QPoly - RatFunc has no operator; QPoly + RatFunc is RatFunc's reflected +.
        acc = acc + (a * b if sign > 0 else -(a * b))
    return acc


def primitive(tensor: list, order: int) -> "QPoly":
    """The h with d_{i1}...d_{ik} h = tensor[i1]...[ik], k = ``order``, that
    has no exp-free term of total degree below k.

    ``tensor`` is a nested list of depth k of QPoly, which must be symmetric
    and closed (the k-th derivatives of some quasi-polynomial); then h is
    unique, since the k-th derivatives vanish only on the polynomials of
    degree below k.  Only the sorted index tuples I are read, each weighted
    by its multinomial multiplicity.  Derivatives keep the exponential
    factors of a term, so h splits by them:

    * Exp-free terms, by Euler's identity: on the part of h of total degree
      m, the sum over all index tuples of t^I d_I h is m(m-1)...(m-k+1) h.
      So a term c t^p of the entry at I enters h as
      c t^(p + e_I) / ((|p|+1)...(|p|+k)), all over one lcm denominator.
    * A term with exponential factors, whose first axis is a: d_a is
      injective on the span of t^q exp(r.t) when r_a != 0, so that part of h
      is the matching part of the diagonal entry at (a, ..., a) integrated k
      times along a.

    A power of h past ``POWER_LIMIT`` raises RingBoundError.  A tensor that
    is not closed gives some h whose k-th derivatives differ from it; the
    callers differentiate back.
    """
    entry = tensor
    for _ in range(order):
        entry = entry[0]
    nvars = entry.nvars
    top = _FIELD * nvars
    parts: list[tuple[int, int, int]] = []
    exp_parts: list[tuple[int, QPoly]] = []
    for index in combinations_with_replacement(range(len(tensor)), order):
        entry = tensor
        for i in index:
            entry = entry[i]
        weight = factorial(order) // prod(factorial(index.count(i)) for i in set(index))
        shift = sum(_unit(nvars, i) for i in index)
        den = entry.denominator
        axis = index[0] if index[0] == index[-1] else None
        exps: Store = {}
        for efac, nums in entry.numerators.items():
            if not efac:
                for packed, c in nums.items():
                    parts.append((packed + shift, weight * c, den * perm((packed >> top) + order, order)))
            elif efac[0][0] == axis:
                exps[efac] = nums
        if exps:
            exp_parts.append((axis, _make(nvars, exps, den)))
    groups, den = _over_common_den({(): parts} if parts else {})
    _check_degree(groups, nvars)
    h = _make(nvars, groups, den)
    for axis, part in exp_parts:
        for _ in range(order):
            part = part.integrate(axis)
        h = h + part
    return h


def _mul_exps(ea: ExpFactor, eb: ExpFactor) -> ExpFactor:
    if not ea:
        return eb
    if not eb:
        return ea
    rates: dict[int, Q] = dict(ea)
    for axis, rate in eb:
        new = rates.get(axis, 0) + rate
        if new:
            if abs(new) > EXP_RATE_LIMIT:
                raise RingBoundError(f"exponential generator rate bound {EXP_RATE_LIMIT} exceeded")
            rates[axis] = new
        else:
            rates.pop(axis, None)
    return tuple(sorted(rates.items()))


def _exp_rate(efac: ExpFactor, axis: int) -> Q | int:
    for a, r in efac:
        if a == axis:
            return r
    return 0


def _term_body(packed: int, efac: ExpFactor, nvars: int) -> str:
    factors = [f"t{axis}" if p == 1 else f"t{axis}^{p}" for axis, p in enumerate(_unpack(packed, nvars), 1) if p]
    for axis, rate in efac:
        factors.append(f"exp(t{axis + 1})" if rate == 1 else f"exp({rate}*t{axis + 1})")
    return "*".join(factors) or "1"


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """A fraction num/den of two QPoly, kept as it was built.

    Sums over equal denominators add numerators, and a sum where one
    denominator divides the other is taken over the larger one, so a tensor
    over one shared denominator stays over it (or its square, after a
    derivative).  Nothing else is reduced: the value is exact whatever the
    representation, and only :meth:`as_poly` and printing divide.
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

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_poly(self) -> QPoly:
        """num/den as a quasi-polynomial; raises OutOfRingError when the
        division is not exact."""
        quo = exact_divide(self.num, self.den)
        if quo is None:
            raise OutOfRingError("rational function with nontrivial denominator")
        return quo

    def __add__(self, other) -> "RatFunc":
        if not isinstance(other, RatFunc):
            return RatFunc(self.num + self.den * other, self.den)
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
        return self + (-other)

    def __mul__(self, other) -> "RatFunc":
        if not isinstance(other, RatFunc):
            return RatFunc(self.num * other, self.den)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, QPoly)):
            return (self.num - self.den * other).is_zero()
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
        quo = exact_divide(self.num, self.den)
        if quo is not None:
            return str(quo)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


def exact_divide(num: QPoly, den: QPoly) -> QPoly | None:
    """Return num/den when the division is exact in the ring, else None.

    Leading-term reduction in a monomial order: total coordinate degree,
    then the coordinate powers, then the dense per-axis rate vector, all
    lexicographic (the packed key, then the rate vector).  Every term of a
    group shares its rate vector, so a lead is the largest of the groups'
    (largest packed key, rate vector) pairs; on exp-free operands there is
    one group, and the reduction runs over its int keys alone.  The order
    is compatible with multiplication, so an exact quotient is found term
    by term from the top.  Since the ring is an integral domain, the
    largest and smallest coordinate degree and exponential rate on each
    axis add under multiplication; a quotient term outside the range this
    leaves for an exact quotient proves the division inexact.  Quotient
    terms strictly decrease and the range holds finitely many of them, so
    the pass ends; the step limit is a backstop past which the division is
    reported as "not divisible", which callers treat as "keep the quotient
    as a fraction".

    The reduction runs on integers.  The divisor's numerators are divided by
    their content (their gcd), leaving a primitive integer divisor P.  The
    ring is Q[M] for a cancellative torsion-free monoid M of terms, so F_p[M]
    is a domain for every prime p and Gauss's lemma holds: a product of
    primitive polynomials is primitive.  Hence when the numerator's integer
    numerators N are divisible by P at all, N/P has integer coefficients,
    and a lead coefficient of the remainder that the lead coefficient of P
    does not divide proves the division inexact.  The quotient is then
    rescaled by the two denominators and the content.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if den.is_constant():
        return num * Q(den.denominator, den.numerators[()][0])
    if num.is_zero():
        return QPoly.zero(num.nvars)
    nvars = num.nvars
    # Without exponential factors in the operands every key of the quotient
    # and the remainder is exp-free too, so the ranges cover the powers alone.
    rated = not (num.is_polynomial() and den.is_polynomial())
    guards = sum(1 << (_FIELD * i + _FIELD - 1) for i in range(nvars + 1))
    num_span, den_span = _axis_spans(num, rated), _axis_spans(den, rated)
    low = [n_lo - d_lo for (n_lo, _n), (d_lo, _d) in zip(num_span, den_span)]
    high = [n_hi - d_hi for (_n, n_hi), (_d, d_hi) in zip(num_span, den_span)]
    if any(lo > hi for lo, hi in zip(low, high)):
        return None

    def lead(groups: Store) -> tuple:
        """(packed key, rate vector, exponential factor) of the largest term."""
        return max((max(nums), _rate_vector(efac, nvars), efac) for efac, nums in groups.items())

    content = gcd(*(c for nums in den.numerators.values() for c in nums.values()))
    prim = {efac: {p: c // content for p, c in nums.items()} for efac, nums in den.numerators.items()}
    prim_lead, _vector, prim_efac = lead(prim)
    prim_lead_coeff = prim[prim_efac][prim_lead]
    rem = {efac: dict(nums) for efac, nums in num.numerators.items()}
    quo: Store = {}
    steps = 0
    while rem:
        steps += 1
        if steps > _DIV_STEP_LIMIT:
            return None
        packed, _vector, efac = lead(rem)
        fp = packed - prim_lead
        if fp < 0 or fp & guards:
            # a power of the divisor's lead above the remainder's borrows
            return None
        fe = _exp_quotient(efac, prim_efac)
        if not all(lo <= v <= hi for lo, v, hi in zip(low, _axis_values(fp, fe, nvars), high)):
            return None
        coeff, left = divmod(rem[efac][packed], prim_lead_coeff)
        if left:
            return None
        quo.setdefault(fe, {})[fp] = coeff
        for pe, pnums in prim.items():
            target = _mul_exps(pe, fe)
            dest = rem.setdefault(target, {})
            get = dest.get
            for pp, c in pnums.items():
                key = pp + fp
                new = get(key, 0) - coeff * c
                if new:
                    dest[key] = new
                else:
                    del dest[key]
            if not dest:
                del rem[target]
    # num/den = (N / num.den) / (content * P / den.den) = (N/P) * den.den / (num.den * content)
    return _make(nvars, _scaled(quo, den.denominator), num.denominator * content)


def _rate_vector(efac: ExpFactor, nvars: int) -> list:
    """The exponential rate on each axis (the int 0 on an axis without one,
    so most comparisons are of ints)."""
    rates = [0] * nvars
    for axis, rate in efac:
        rates[axis] = rate
    return rates


def _axis_values(packed: int, efac: ExpFactor, nvars: int) -> list:
    """The coordinate power on each axis, then the exponential rate on each axis."""
    return [*_unpack(packed, nvars), *_rate_vector(efac, nvars)]


def _axis_spans(p: QPoly, rated: bool) -> list[tuple]:
    """(smallest, largest) of each entry of _axis_values over the terms of p,
    the rates left out unless ``rated``; the rates are read from the group
    keys."""
    powers = zip(*(_unpack(key, p.nvars) for nums in p.numerators.values() for key in nums))
    rates = zip(*(_rate_vector(efac, p.nvars) for efac in p.numerators)) if rated else ()
    return [(min(col), max(col)) for col in (*powers, *rates)]


def _exp_quotient(ea: ExpFactor, eb: ExpFactor) -> ExpFactor:
    """The exponential factor ea / eb."""
    rates: dict[int, Q] = dict(ea)
    for axis, r in eb:
        new = rates.get(axis, 0) - r
        if new:
            rates[axis] = new
        else:
            rates.pop(axis, None)
    return tuple(sorted(rates.items()))
