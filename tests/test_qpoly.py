import math
import random
from fractions import Fraction as Q

import pytest

from flatpencil.errors import OutOfRingError
from flatpencil.exprparse import parse_expr
from flatpencil.qpoly import QPoly, RatFunc, exact_divide


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
    assert r.is_polynomial()
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
    assert RatFunc(qp("t1^2 - t2^2", 2), d).quotient() == qp("t1 - t2", 2)
    assert RatFunc(qp("t1", 2), d).quotient() is None
    assert str(RatFunc(qp("2*t1", 2), qp("4", 2))) == "1/2*t1"
    assert str(RatFunc(qp("t1", 2), d)) == "(t1) / (t1 + t2)"


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(qp("1", 1), QPoly.zero(1))
