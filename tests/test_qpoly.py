import math
import random
from fractions import Fraction as Q

import pytest

from flatpencil.errors import OutOfRingError, RingBoundError
from flatpencil.exprparse import parse_expr
from flatpencil.qpoly import POWER_LIMIT, QPoly, RatFunc, dot, exact_divide, primitive


def qp(text, n):
    return parse_expr(text, n)


def random_qpoly(rng, nvars, allow_exp=True):
    p = QPoly.zero(nvars)
    for _ in range(rng.randint(1, 5)):
        pows = tuple(rng.randint(0, 3) for _ in range(nvars))
        coeff = Q(rng.randint(-9, 9), rng.randint(1, 9))
        term = QPoly(nvars, {(pows, ()): coeff})
        if allow_exp and rng.random() < 0.4:
            term = term * QPoly.exp(nvars, nvars - 1, rng.choice([1, 2, -1]))
        p = p + term
    return p


def test_basic_arithmetic():
    p = qp("1/2*t1^2*t2 + exp(t2)", 2)
    assert p.diff(0) == qp("t1*t2", 2)
    assert p.diff(1) == qp("1/2*t1^2 + exp(t2)", 2)
    assert (p - p).is_zero()
    assert qp("(t1+1)^2", 1) == qp("t1^2 + 2*t1 + 1", 1)


def test_power_rule_and_exp_rule():
    assert qp("1/6*t1^3", 1).diff(0) == qp("1/2*t1^2", 1)
    assert qp("exp(t2)", 2).diff(1) == qp("exp(t2)", 2)
    assert qp("exp(3/2*t1)", 1).diff(0) == qp("3/2*exp(3/2*t1)", 1)


def test_diff_finite_difference_oracle():
    # Central difference at 5 rational points, exp(t2) supplied as the
    # rational value of its float, 1e-8 agreement.
    p = qp("1/2*t1^2*t2 + exp(t2)", 2)
    dp = p.diff(1)
    rng = random.Random(2024)
    h = Q(1, 10**5)

    def at(t1, t2, poly):
        return poly.eval([t1, t2], {1: (Q(1), Q(math.exp(t2)))})

    for _ in range(5):
        x = [Q(rng.randint(-150, 150), 100) for _ in range(2)]
        fd = (at(x[0], x[1] + h, p) - at(x[0], x[1] - h, p)) / (2 * h)
        exact = at(x[0], x[1], dp)
        assert abs(fd - exact) <= Q(1e-8) * max(1, abs(exact))


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(25):
        a = random_qpoly(rng, 2)
        b = random_qpoly(rng, 2)
        c = random_qpoly(rng, 2)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_diff_commutes_randomized():
    rng = random.Random(11)
    for _ in range(20):
        p = random_qpoly(rng, 3)
        assert p.diff(0).diff(2) == p.diff(2).diff(0)
        assert p.diff(1).diff(2) == p.diff(2).diff(1)


def test_eval_homomorphism():
    rng = random.Random(13)
    for _ in range(20):
        a = random_qpoly(rng, 2)
        b = random_qpoly(rng, 2)
        coords = [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)]
        expvals = {1: (Q(1), Q(rng.randint(1, 7), rng.randint(1, 3)))}
        lhs = (a * b).eval(coords, expvals)
        rhs = a.eval(coords, expvals) * b.eval(coords, expvals)
        assert lhs == rhs


def test_exp_rates_add_on_multiplication():
    u = QPoly.exp(1, 0, Q(1, 2))
    assert u * u == QPoly.exp(1, 0, 1)
    assert u * QPoly.exp(1, 0, Q(-1, 2)) == QPoly.const(1, 1)


def test_exp_rate_bound_enforced():
    from flatpencil.qpoly import EXP_RATE_LIMIT

    u = QPoly.exp(1, 0, EXP_RATE_LIMIT)
    with pytest.raises(OutOfRingError):
        u * u


def test_integrate_inverts_diff():
    rng = random.Random(3)
    for _ in range(15):
        p = random_qpoly(rng, 2)
        assert p.integrate(0).diff(0) == p
        assert p.integrate(1).diff(1) == p


def test_substitute_polynomial():
    p = qp("t1^2 + t2", 2)
    images = [qp("t1 + 1", 2), qp("t1*t2", 2)]
    assert p.substitute(images) == qp("(t1+1)^2 + t1*t2", 2)


def test_substitute_exp_needs_single_coordinate():
    p = qp("exp(t1)", 1)
    assert p.substitute([qp("3*t1", 1)]) == qp("exp(3*t1)", 1)
    with pytest.raises(OutOfRingError):
        p.substitute([qp("t1 + 1", 1)])


def test_substitute_exp_of_linear_form():
    # exp(r (a t1 + b t2)) = exp(r a t1) exp(r b t2) stays in the ring; a
    # constant term, a higher-degree term or an exp in the image does not.
    p = qp("t1*exp(2*t2)", 2)
    images = [qp("t1 + t2", 2), qp("3*t1 - 1/2*t2", 2)]
    assert p.substitute(images) == qp("(t1 + t2)*exp(6*t1)*exp(-1*t2)", 2)
    for bad in ("3*t1 - t2 + 1", "t1 + t1*t2", "t1 + exp(t2)"):
        with pytest.raises(OutOfRingError, match="not a homogeneous linear form"):
            p.substitute([qp("t1", 2), qp(bad, 2)])


def test_string_round_trip():
    rng = random.Random(17)
    for _ in range(20):
        p = random_qpoly(rng, 3)
        assert parse_expr(str(p), 3) == p


def test_exact_divide():
    a = qp("t1^2 - 1", 1)
    b = qp("t1 - 1", 1)
    assert exact_divide(a, b) == qp("t1 + 1", 1)
    assert exact_divide(b, a) is None
    num = qp("4*exp(t2)*t1 - t1^3", 2)
    den = qp("4*exp(t2) - t1^2", 2)
    assert exact_divide(num, den) == qp("t1", 2)


@pytest.fixture(params=[None, 50], ids=["default-limit", "limit-50"])
def div_step_limit(request, monkeypatch):
    """Run once with the default division step limit and once with a tiny one:
    exact quotients and proofs of inexactness must both come from the order
    and range checks, not from running out of steps."""
    if request.param is not None:
        monkeypatch.setattr("flatpencil.qpoly._DIV_STEP_LIMIT", request.param)


@pytest.mark.parametrize(
    "num, den, quotient",
    [
        ("(exp(t2) + 1)*(exp(-1*t2) + t1)", "exp(t2) + 1", "exp(-1*t2) + t1"),
        ("exp(t2) + 1", "exp(-1*t2) + 1", "exp(t2)"),
        ("exp(-2*t2) - t1^2", "exp(-1*t2) + t1", "exp(-1*t2) - t1"),
        ("exp(t2) + 2", "exp(-1*t2) + 1", None),
        ("1", "exp(t2) + 1", None),
        ("t1 + exp(t2)", "t1 - exp(t2)", None),
        ("exp(t1) + exp(-1*t2)", "exp(t2) + t1", None),
    ],
)
def test_exact_divide_exponential_terms(div_step_limit, num, den, quotient):
    got = exact_divide(qp(num, 2), qp(den, 2))
    if quotient is None:
        assert got is None
    else:
        assert got == qp(quotient, 2)


def test_exact_divide_random_products(div_step_limit):
    rng = random.Random(23)
    for _ in range(40):
        a, b = random_qpoly(rng, 2), random_qpoly(rng, 2)
        if b.is_zero():
            continue
        assert exact_divide(a * b, b) == a
        if len(b.terms) > 1:  # b is not a unit, so it does not divide 1
            assert exact_divide(a * b + 1, b) is None


def test_ratfunc_normalization_and_equality():
    r = RatFunc(qp("t1", 1), qp("2*t1", 1))
    assert r.as_poly() == qp("1/2", 1)
    a = RatFunc(qp("t1", 1), qp("t1^2 + t1", 1))
    b = RatFunc(qp("1", 1), qp("t1 + 1", 1))
    assert a == b
    assert (a - b).is_zero()


def test_ratfunc_arithmetic():
    x = RatFunc(qp("1", 1), qp("t1", 1))
    y = RatFunc(qp("1", 1), qp("t1 + 1", 1))
    s = x + y
    assert s == RatFunc(qp("2*t1 + 1", 1), qp("t1^2 + t1", 1))
    assert (x * y) == RatFunc(qp("1", 1), qp("t1^2 + t1", 1))
    assert x.diff(0) == RatFunc(qp("-1", 1), qp("t1^2", 1))


def test_ratfunc_sum_over_dividing_denominator():
    d = qp("t1^2 + t2", 2)
    s = RatFunc(qp("t1", 2), d) + RatFunc(qp("t2", 2), d * d)
    assert s.den == d * d
    assert s.num == qp("t1^3 + t1*t2 + t2", 2)
    assert (RatFunc(qp("1", 2), d) + RatFunc(qp("1", 2), d)).den == d
    assert (RatFunc(qp("t2", 2), d * d) - RatFunc(qp("t1", 2))).den == d * d


def test_ratfunc_quotient_only_when_exact():
    d = qp("t1 + t2", 2)
    assert RatFunc(qp("t1^2 - t2^2", 2), d).as_poly() == qp("t1 - t2", 2)
    with pytest.raises(OutOfRingError):
        RatFunc(qp("t1", 2), d).as_poly()
    assert str(RatFunc(qp("2*t1", 2), qp("4", 2))) == "1/2*t1"
    assert str(RatFunc(qp("t1", 2), d)) == "(t1) / (t1 + t2)"


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(qp("1", 1), QPoly.zero(1))


def test_qpoly_reads_as_fraction_over_one():
    q = qp("1/2*t1 + exp(t2)", 2)
    assert q.num is q
    assert q.den == QPoly.const(2, 1) and len(q.den.terms) == 1
    assert q.as_poly() is q
    # is_polynomial keeps its QPoly meaning: free of exponentials
    assert not q.is_polynomial()
    r = RatFunc(qp("t2", 2), qp("t1 + t2", 2))
    for mixed, lifted in ((q + r, RatFunc(q) + r), (q * r, RatFunc(q) * r), (r - q, r - RatFunc(q))):
        assert isinstance(mixed, RatFunc)
        assert mixed.num == lifted.num and mixed.den == lifted.den


# Reference route: the Fraction-dict arithmetic that the integer-numerator
# store replaced, on plain {TermKey: Fraction} maps read through `.terms`.
def ref_key_mul(ka, kb):
    pows = tuple(x + y for x, y in zip(ka[0], kb[0]))
    rates = dict(ka[1])
    for axis, rate in kb[1]:
        rates[axis] = rates.get(axis, 0) + rate
    return pows, tuple(sorted((a, r) for a, r in rates.items() if r))


def ref_put(out, key, c):
    new = out.get(key, 0) + c
    if new:
        out[key] = new
    else:
        out.pop(key, None)


def ref_add(a, b):
    out = dict(a)
    for key, c in b.items():
        ref_put(out, key, c)
    return out


def ref_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            ref_put(out, ref_key_mul(ka, kb), ca * cb)
    return out


def ref_diff(a, axis):
    out = {}
    for (pows, efac), c in a.items():
        if pows[axis]:
            lowered = list(pows)
            lowered[axis] -= 1
            ref_put(out, (tuple(lowered), efac), c * pows[axis])
        rate = dict(efac).get(axis, 0)
        if rate:
            ref_put(out, (pows, efac), c * rate)
    return out


def ref_integrate(a, axis):
    """Termwise: t^p exp(r t) integrates to t^(p+1)/(p+1) when r = 0, and to
    exp(r t) * sum_j (-1)^j p!/(p-j)! t^(p-j) / r^(j+1) otherwise."""
    out = {}
    for (pows, efac), c in a.items():
        p, rate = pows[axis], dict(efac).get(axis, 0)
        if not rate:
            raised = list(pows)
            raised[axis] += 1
            ref_put(out, (tuple(raised), efac), c / (p + 1))
            continue
        falling = 1
        for j in range(p + 1):
            lowered = list(pows)
            lowered[axis] = p - j
            ref_put(out, (tuple(lowered), efac), c * (-1) ** j * falling / rate ** (j + 1))
            falling *= p - j
    return out


def ref_lift(a, extra):
    return {(pows + (0,) * extra, efac): c for (pows, efac), c in a.items()}


def ref_coeffs_by_power(a, axis):
    out = {}
    for (pows, efac), c in a.items():
        cleared = list(pows)
        cleared[axis] = 0
        out.setdefault(pows[axis], {})[(tuple(cleared), efac)] = c
    return out


def ref_pow(a, nvars, p):
    out = {((0,) * nvars, ()): Q(1)}
    for _ in range(p):
        out = ref_mul(out, a)
    return out


def ref_substitute(a, images, nvars):
    """t_i -> images[i] (maps of TermKey to Fraction), exp(r t_i) expanded
    over the linear form images[i] as the product of exp(r c_j t_j)."""
    out = {}
    for (pows, efac), c in a.items():
        piece = {((0,) * nvars, ()): c}
        for axis, p in enumerate(pows):
            piece = ref_mul(piece, ref_pow(images[axis], nvars, p))
        for axis, rate in efac:
            for (ipows, _e), ic in images[axis].items():
                piece = ref_mul(piece, {((0,) * nvars, ((ipows.index(1), rate * ic),)): Q(1)})
        out = ref_add(out, piece)
    return out


def ref_order_key(key):
    rates = [Q(0)] * len(key[0])
    for axis, rate in key[1]:
        rates[axis] = rate
    return sum(key[0]), [*key[0], *rates]


def ref_exact_divide(num, den):
    """Leading-term reduction with Fraction coefficients, in the same order
    and with the same range checks; a constant divisor scales."""
    if all(not any(p) and not e for p, e in den):
        (c,) = den.values()
        return {key: v / c for key, v in num.items()}
    if not num:
        return {}
    cols_n = list(zip(*(ref_order_key(k)[1] for k in num)))
    cols_d = list(zip(*(ref_order_key(k)[1] for k in den)))
    low = [min(a) - min(b) for a, b in zip(cols_n, cols_d)]
    high = [max(a) - max(b) for a, b in zip(cols_n, cols_d)]
    if any(lo > hi for lo, hi in zip(low, high)):
        return None
    den_lead = max(den, key=ref_order_key)
    rem, quo = dict(num), {}
    for _ in range(20000):
        if not rem:
            return quo
        lead = max(rem, key=ref_order_key)
        pows = tuple(x - y for x, y in zip(lead[0], den_lead[0]))
        if any(p < 0 for p in pows):
            return None
        factor = ref_key_mul((pows, lead[1]), ((0,) * len(pows), tuple((a, -r) for a, r in den_lead[1])))
        if not all(lo <= v <= hi for lo, v, hi in zip(low, ref_order_key(factor)[1], high)):
            return None
        coeff = rem[lead] / den[den_lead]
        quo[factor] = coeff
        for key, c in den.items():
            ref_put(rem, ref_key_mul(key, factor), -coeff * c)
    return None


def ref_str(terms):
    if not terms:
        return "0"
    pieces = []
    for key in sorted(terms, key=lambda k: (sum(k[0]), k), reverse=True):
        coeff = terms[key]
        pows, efac = key
        factors = [f"t{i + 1}" if p == 1 else f"t{i + 1}^{p}" for i, p in enumerate(pows) if p]
        factors += [f"exp(t{a + 1})" if r == 1 else f"exp({r}*t{a + 1})" for a, r in efac]
        body = "*".join(factors) if factors else "1"
        mag = abs(coeff)
        text = str(mag) if body == "1" else body if mag == 1 else f"{mag}*{body}"
        if not pieces:
            pieces.append(text if coeff > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(pieces)


def random_rational_qpoly(rng, nvars, exp_share=0.5):
    """Rational coefficients with assorted denominators and, on a share of
    the terms, rational exp rates, 3/2 among them, on random axes."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        pows = tuple(rng.randint(0, 3) for _ in range(nvars))
        efac = ()
        if rng.random() < exp_share:
            axis = rng.randrange(nvars)
            efac = ((axis, rng.choice([Q(1), Q(-1), Q(2), Q(3, 2), Q(-1, 3)])),)
        terms[(pows, efac)] = Q(rng.randint(-20, 20), rng.randint(1, 12))
    return QPoly(nvars, terms)


def assert_canonical(p):
    """The grouped store {exponential factor: {packed powers: int}}: no
    empty group, no zero numerator, int numerators, and gcd 1 with the
    positive denominator."""
    assert p.denominator > 0
    numerators = [c for nums in p.numerators.values() for c in nums.values()]
    assert all(p.numerators.values())
    assert 0 not in numerators
    assert all(isinstance(c, int) for c in numerators)
    assert math.gcd(p.denominator, *numerators) == 1
    if p.is_zero():
        assert p.numerators == {} and p.denominator == 1


def test_integer_store_matches_fraction_reference():
    rng = random.Random(29)
    for _ in range(60):
        a, b = random_rational_qpoly(rng, 2), random_rational_qpoly(rng, 2)
        for got, want in [
            (a + b, ref_add(a.terms, b.terms)),
            (a - b, ref_add(a.terms, {k: -c for k, c in b.terms.items()})),
            (a * b, ref_mul(a.terms, b.terms)),
            (a * Q(-6, 35), {k: c * Q(-6, 35) for k, c in a.terms.items()}),
            (a.diff(0), ref_diff(a.terms, 0)),
            (a.diff(1), ref_diff(a.terms, 1)),
            (a.integrate(0), ref_integrate(a.terms, 0)),
            (a.integrate(1), ref_integrate(a.terms, 1)),
            (a.lift(4), ref_lift(a.terms, 2)),
            *[
                (part, ref_coeffs_by_power(a.terms, axis).get(p, {}))
                for axis in range(2)
                if not a.exp_rates_on(axis)
                for p, part in a.coeffs_by_power(axis).items()
            ],
        ]:
            assert_canonical(got)
            assert dict(got.terms) == want
            assert str(got) == ref_str(want)
        for axis in range(2):
            integral = a.integrate(axis)
            assert integral.diff(axis) == a
            if not a.exp_rates_on(axis):
                assert set(a.coeffs_by_power(axis)) == set(ref_coeffs_by_power(a.terms, axis))


def random_linear_form(rng, nvars):
    """A homogeneous linear form, so exponentials compose with it."""
    terms = {}
    for j in range(nvars):
        if rng.random() < 0.7:
            terms[(tuple(int(b == j) for b in range(nvars)), ())] = Q(rng.randint(-4, 4), rng.randint(1, 3))
    return QPoly(nvars, terms)


def test_substitute_matches_fraction_reference():
    rng = random.Random(37)
    for _ in range(30):
        a = random_rational_qpoly(rng, 2)
        images = [random_linear_form(rng, 3) for _ in range(2)]
        if any(img.is_zero() for img in images):
            continue
        got = a.substitute(images)
        want = ref_substitute(a.terms, [img.terms for img in images], 3)
        assert_canonical(got)
        assert dict(got.terms) == want
        assert str(got) == ref_str(want)


def fold(nvars, plus, minus):
    """The written-out loop; a product is subtracted by adding its negation,
    as a QPoly minus a RatFunc has no operator."""
    acc = QPoly.zero(nvars)
    for x, y in plus:
        acc = acc + x * y
    for x, y in minus:
        acc = acc + -(x * y)
    return acc


# Two denominators neither of which divides the other, so that a sum of
# fractions over both is cross-multiplied and a zero term shows in it.
RATFUNC_DENOMINATORS = ("t1 + 2*t2 + 1", "t1*t2 - 3")


def random_operand(rng, nvars, ratfunc_share):
    roll = rng.random()
    if roll < 0.1:
        return rng.choice([QPoly.zero(nvars), 0, Q(0)])
    if roll < 0.2:
        return rng.randint(-3, 3)
    if roll < 0.3:
        return Q(rng.randint(-9, 9), rng.randint(1, 7))
    if roll < 0.3 + ratfunc_share:
        return RatFunc(random_rational_qpoly(rng, nvars), qp(rng.choice(RATFUNC_DENOMINATORS), nvars))
    return random_rational_qpoly(rng, nvars)


def one_shot(rng, pairs):
    """The pairs as a list, a zip object or a generator, as callers pass them."""
    kind = rng.randrange(3)
    if kind == 1:
        return zip([a for a, _b in pairs], [b for _a, b in pairs])
    return (pair for pair in pairs) if kind == 2 else pairs


@pytest.mark.parametrize("ratfunc_share", [0.0, 0.2])
def test_dot_matches_fold_and_reference(ratfunc_share):
    rng = random.Random(41)
    cases = [
        [
            [tuple(random_operand(rng, 2, ratfunc_share) for _ in "ab") for _ in range(rng.randint(0, count))]
            for count in (4, 3)
        ]
        for _ in range(60)
    ]
    if ratfunc_share:
        # Zero QPoly and zero scalar operands beside fractions, and the first
        # fraction in minus: the fold keeps every one of those pairs.
        q, r, s = qp("1/2*t1 + exp(t2)", 2), *(RatFunc(qp("t2", 2), qp(d, 2)) for d in RATFUNC_DENOMINATORS)
        cases += [
            [[(q, 2)], [(QPoly.zero(2), r), (q, s)]],
            [[(r, 0), (q, s)], []],
            [[(q, Q(1, 2))], [(Q(0), s), (r, q)]],
            [[(QPoly.zero(2), q)], [(s, q), (r, QPoly.zero(2))]],
        ]
    for plus, minus in cases:
        got, want = dot(2, one_shot(rng, plus), one_shot(rng, minus)), fold(2, plus, minus)
        assert type(got) is type(want)
        if isinstance(want, RatFunc):
            # the fold itself, so a fraction keeps its numerator and denominator
            assert (got.num, got.den) == (want.num, want.den)
            continue
        reference = {}
        for sign, pairs in ((1, plus), (-1, minus)):
            for x, y in pairs:
                xs, ys = (QPoly.const(2, v) if not isinstance(v, QPoly) else v for v in (x, y))
                reference = ref_add(reference, {k: sign * c for k, c in ref_mul(xs.terms, ys.terms).items()})
        assert_canonical(got)
        assert got == want and dict(got.terms) == reference
        assert str(got) == ref_str(reference)
    t1, t2 = QPoly.var(2, 0), QPoly.var(3, 1)
    for plus in ([(t1, t2)], [(t2, 2)], [(Q(1, 2), QPoly.zero(3))], [(t1, 1), (QPoly.zero(3), t1)]):
        with pytest.raises(ValueError, match="mixed variable counts"):
            dot(2, plus)


def test_dot_cancelling_over_a_denominator_is_canonical_zero():
    t1, t2, e = QPoly.var(2, 0), QPoly.var(2, 1), QPoly.exp(2, 0, Q(3, 2))
    third = Q(1, 3)
    # t1/3 * t2 - t1 * t2/3, once exp-free and once times exp(3/2 t1)
    zero = dot(2, [(t1 * third, t2), (e * t1 * third, t2)], [(t1, t2 * third), (e * t1, third * t2)])
    assert_canonical(zero)
    assert zero.numerators == {} and zero.denominator == 1
    # one group cancels whole, the other keeps a term over 5
    rest = dot(2, [(t1 * third, t2), (e, Q(1, 5))], [(t1, t2 * third)])
    assert_canonical(rest)
    assert rest == e * Q(1, 5) and rest.denominator == 5


def test_diff_matches_term_reference_on_every_axis():
    """QPoly.diff against ref_diff, the power and exp rules applied to the
    Fraction terms: exp-free and exp-bearing polys, zero and constants."""
    rng = random.Random(43)
    polys = [QPoly.zero(3), QPoly.const(3, 5), QPoly.const(3, Q(-7, 4)), QPoly.exp(3, 1, Q(3, 2))]
    polys += [random_rational_qpoly(rng, 3, exp_share) for exp_share in (0.0, 0.5) for _ in range(40)]
    assert sum(p.is_polynomial() and p.total_degree() > 0 for p in polys) >= 30
    for p in polys:
        for axis in range(3):
            got, want = p.diff(axis), ref_diff(p.terms, axis)
            assert_canonical(got)
            assert dict(got.terms) == want
            assert str(got) == ref_str(want)


def test_power_bound_guards_products_and_integrals():
    t = QPoly.var(1, 0)
    top = t ** POWER_LIMIT
    assert top.total_degree() == POWER_LIMIT == 32767
    for overflow in (lambda: top * t, lambda: top.integrate(0), lambda: dot(1, [(top, t)]), lambda: t ** 32768):
        with pytest.raises(OutOfRingError, match="32767"):
            overflow()
    # the total degree is bounded too, not only each power
    with pytest.raises(OutOfRingError, match="32767"):
        QPoly.var(2, 0) ** 20000 * QPoly.var(2, 1) ** 20000
    with pytest.raises(OutOfRingError, match="32767"):
        QPoly(1, {((32768,), ()): Q(1)})


def test_dot_bounds_the_sum_not_the_products():
    # a * a = t1^40000 crosses the power bound; it cancels against itself,
    # and only a product that survives in the sum raises.
    a = QPoly.var(1, 0) ** 20000
    assert dot(1, [(a, a)], [(a, a)]) == 0
    assert dot(1, [(a, a), (a, 2)], [(a, a)]) == a * 2
    with pytest.raises(RingBoundError, match="32767"):
        dot(1, [(a, a)])
    with pytest.raises(RingBoundError, match="32767"):
        dot(1, [(a, a)], [(a, a * 2)])


@pytest.mark.parametrize(
    "num, den",
    [
        ("t1^3*t2", "t2^2"),  # higher power of t2 in the divisor, lower total degree
        ("t2^3", "t1*t2"),  # higher power of t1, whose field is zero in the numerator
        ("t1^4 + t2", "t1*t2^2 + 1"),
        ("t1^2*t2*t3^5", "t1*t3^6"),
    ],
)
def test_exact_divide_refuses_higher_divisor_power(num, den):
    assert exact_divide(qp(num, 3), qp(den, 3)) is None
    assert ref_exact_divide(qp(num, 3).terms, qp(den, 3).terms) is None


def test_exact_divide_matches_fraction_reference():
    rng = random.Random(31)
    for _ in range(40):
        a, b = random_rational_qpoly(rng, 2), random_rational_qpoly(rng, 2)
        if b.is_zero():
            continue
        prod = a * b
        quo = exact_divide(prod, b)
        assert_canonical(quo)
        assert quo == a and dict(quo.terms) == ref_exact_divide(prod.terms, b.terms)
        other = exact_divide(prod + a + 1, b)
        want = ref_exact_divide((prod + a + 1).terms, b.terms)
        assert (other is None and want is None) or dict(other.terms) == want


def test_primitive_of_hessian_and_third_derivatives():
    # Hessian of h = t1^2*t2/2 + t2^3 + t1*exp(2*t2) + 5*t1 + 7 over 2
    # variables: the affine part is the one not recovered.
    h = qp("1/2*t1^2*t2 + t2^3 + t1*exp(2*t2) + 5*t1 + 7", 2)
    hessian = [[h.diff(a).diff(b) for b in range(2)] for a in range(2)]
    assert primitive(hessian, 2) == qp("1/2*t1^2*t2 + t2^3 + t1*exp(2*t2)", 2)
    # c_abc of the cubic t1^3/6 + t1*t2^2 and of CP1's exp(t2), one variable
    # and two.
    assert primitive([[[qp("1", 1)]]], 3) == qp("1/6*t1^3", 1)
    f = qp("1/6*t1^3 + t1*t2^2 + exp(t2) + t1^2", 2)
    third = [[[f.diff(a).diff(b).diff(c) for c in range(2)] for b in range(2)] for a in range(2)]
    assert primitive(third, 3) == qp("1/6*t1^3 + t1*t2^2 + exp(t2)", 2)


def test_primitive_power_bound_edge():
    # Two integrations of t1^32765 reach t1^POWER_LIMIT; of t1^32766 they
    # pass it.
    t1 = QPoly.var(1, 0)
    assert primitive([[t1 ** (POWER_LIMIT - 2)]], 2) == t1**POWER_LIMIT * Q(1, POWER_LIMIT * (POWER_LIMIT - 1))
    with pytest.raises(RingBoundError, match="32767"):
        primitive([[t1 ** (POWER_LIMIT - 1)]], 2)
    # The bound holds on the total degree across axes too.
    t = [QPoly.var(2, axis) for axis in range(2)]
    mixed = t[0] ** 20000 * t[1] ** (POWER_LIMIT - 20000 - 1)
    with pytest.raises(RingBoundError, match="32767"):
        primitive([[mixed, QPoly.zero(2)], [QPoly.zero(2), QPoly.zero(2)]], 2)


def test_integrate_at_rate_three_halves():
    p = qp("t1*exp(3/2*t1)", 1)
    assert p.integrate(0) == qp("2/3*t1*exp(3/2*t1) - 4/9*exp(3/2*t1)", 1)
    assert p.diff(0) == qp("exp(3/2*t1) + 3/2*t1*exp(3/2*t1)", 1)


def test_equal_values_have_one_representation():
    half_t1 = QPoly(2, {((1, 0), ()): Q(1, 2)})
    routes = [
        half_t1,
        qp("1/2*t1", 2),
        QPoly.var(2, 0) * Q(1, 2),
        (QPoly.var(2, 0) * 6) * Q(1, 12),
        qp("1/3*t1 + 1/6*t1 + t2", 2) - QPoly.var(2, 1),
        qp("1/4*t1^2", 2).diff(0),
        qp("1/2", 2).integrate(0),
        exact_divide(qp("3/8*t1^2 + 1/2*t1", 2), qp("3/4*t1 + 1", 2)),
    ]
    for p in routes:
        assert_canonical(p)
        assert p == half_t1
        assert (p.terms, p.denominator) == ({((1, 0), ()): Q(1, 2)}, 2)
    zero = qp("1/3*t1", 2) - qp("2/6*t1", 2)
    assert_canonical(zero)
    assert zero == QPoly.zero(2) == 0 and zero.denominator == 1


@pytest.mark.parametrize(
    "num, den, quotient",
    [
        ("(t1/2 + 1/3)*(6*t1 + 4)", "6*t1 + 4", "t1/2 + 1/3"),
        ("(t1/2 + 1/3)*(6*t1 + 4)", "t1/2 + 1/3", "6*t1 + 4"),
        ("(2/3*t1^2 - 5/7*exp(3/2*t2))*(10*t1 + 15*exp(t2))", "10*t1 + 15*exp(t2)", "2/3*t1^2 - 5/7*exp(3/2*t2)"),
        ("4*t1^2 - 1", "6*t1 - 3", "2/3*t1 + 1/3"),
    ],
)
def test_exact_divide_by_non_primitive_and_rational_divisors(num, den, quotient):
    def parse(text):
        return qp(text.replace("t1/2", "1/2*t1"), 2)

    got = exact_divide(parse(num), parse(den))
    assert_canonical(got)
    assert got == parse(quotient)


def test_inexact_division_stops_at_first_lead_that_does_not_divide(monkeypatch):
    monkeypatch.setattr("flatpencil.qpoly._DIV_STEP_LIMIT", 1)
    # One quotient term fits in one step.
    assert exact_divide(qp("6*t1^2 + 4*t1", 1), qp("3/2*t1 + 1", 1)) == qp("4*t1", 1)
    # Over the primitive divisor 2*t1 + 1 the quotient of an exact division
    # would have integer coefficients, so the lead 1 of t1^2 + 1 proves the
    # division inexact before any divisor term is multiplied out.
    num, den = qp("t1^2 + 1", 1), qp("2*t1 + 1", 1)
    reduced = []
    monkeypatch.setattr("flatpencil.qpoly._mul_exps", lambda ea, eb: reduced.append((ea, eb)))
    assert exact_divide(num, den) is None
    assert reduced == []


@pytest.mark.parametrize(
    "left, right, nvars, exp_free",
    [
        ("t1 + exp(t1)", "1 + exp(-1*t1)", 1, True),
        ("t1*exp(t2) - exp(-1*t2) + 2/3", "exp(-1*t2) + t2*exp(t2)", 2, True),
        ("exp(1/2*t1)*exp(-1*t2) + t2", "exp(-1/2*t1)*exp(t2) - exp(1/2*t1)", 2, True),
        # 1 - 1: the exp-free group cancels and is dropped
        ("exp(t1) + 1", "exp(-1*t1) - 1", 1, False),
    ],
)
def test_exp_rates_cancelling_into_the_exp_free_group(left, right, nvars, exp_free):
    # Rates that add to zero put a product term in the exp-free group (),
    # beside the terms that were exp-free from the start.
    a, b = qp(left, nvars), qp(right, nvars)
    want = ref_mul(a.terms, b.terms)
    for got in (a * b, dot(nvars, [(a, b)]), dot(nvars, [(a, b), (a, 1)], [(a, Q(1))])):
        assert_canonical(got)
        assert (() in got.numerators) == exp_free
        assert dict(got.terms) == want
        assert str(got) == ref_str(want)
    assert str(qp("t1 + exp(t1)", 1) * qp("1 + exp(-1*t1)", 1)) == "t1*exp(-1*t1) + t1 + exp(t1) + 1"


@pytest.mark.parametrize(
    "quotient, divisor, extra",
    [
        ("t1 + exp(t1)", "t2 - exp(-1*t1) + 1", "t2"),
        ("t1*exp(t2) - 1/2*exp(-1*t2) + t2", "exp(t2) + t1 - 3", "exp(t1)"),
        ("exp(1/2*t1) - t1*t2", "t1*exp(-1/2*t1) + t2^2*exp(t2) + 2", "1"),
    ],
)
def test_exact_divide_on_operands_mixing_groups(div_step_limit, quotient, divisor, extra):
    q, d = qp(quotient, 2), qp(divisor, 2)
    num = q * d
    assert len(num.numerators) > 1 and len(d.numerators) > 1
    got = exact_divide(num, d)
    assert_canonical(got)
    assert got == q and dict(got.terms) == ref_exact_divide(num.terms, d.terms)
    inexact = num + qp(extra, 2)
    assert exact_divide(inexact, d) is None
    assert ref_exact_divide(inexact.terms, d.terms) is None


def test_printing_interleaves_groups():
    # Terms print by (packed powers, exponential factor), largest first,
    # whatever group holds them.
    p = qp("t1^2 + 3*t1^2*exp(t2) - t1*exp(-1*t1) + 1/2*t2 + exp(t2) - 2*t1*t2*exp(1/2*t1)", 2)
    assert len(p.numerators) == 4
    assert str(p) == "3*t1^2*exp(t2) + t1^2 - 2*t1*t2*exp(1/2*t1) - t1*exp(-1*t1) + 1/2*t2 + exp(t2)"
    assert str(p) == ref_str(p.terms)
