from flatpencil.exprparse import parse_expr
from flatpencil.identity import is_zero_identity
from flatpencil.qpoly import QPoly, RatFunc


def test_exact_zero_certificate():
    p = parse_expr("(t1+1)^2 - t1^2 - 2*t1 - 1", 1)
    cert = is_zero_identity(p)
    assert cert.zero


def test_ratfunc_zero_decided_by_numerator():
    r = RatFunc(QPoly.zero(1), parse_expr("t1", 1))
    assert is_zero_identity(r).zero
    r2 = RatFunc(parse_expr("1", 1), parse_expr("t1", 1))
    cert = is_zero_identity(r2)
    assert not cert.zero
    assert cert.witness == "nonzero normal form: 1"


def test_exp_terms_sampled_exactly():
    # exp(2 t) - exp(t)^2 is the zero element; exp(2 t) - exp(t) is not.
    p = parse_expr("exp(2*t1) - exp(t1)*exp(t1)", 1)
    assert p.is_zero()
    assert is_zero_identity(p).zero
    q = parse_expr("exp(2*t1) - exp(t1)", 1)
    cert = is_zero_identity(q)
    assert not cert.zero
    assert cert.witness == f"nonzero normal form: {q}"
