from fractions import Fraction as Q

import pytest

from flatpencil.errors import ParseError
from flatpencil.exprparse import parse_expr, parse_rational
from flatpencil.qpoly import QPoly


def test_rational_literals():
    assert parse_expr("3/4", 1) == QPoly.const(1, Q(3, 4))
    assert parse_expr("7", 1) == QPoly.const(1, 7)
    assert parse_rational("-3/4") == Q(-3, 4)


def test_operators_and_precedence():
    assert parse_expr("1 + 2*t1^2", 1) == QPoly.const(1, 1) + QPoly.var(1, 0) ** 2 * 2
    assert parse_expr("-t1^2", 1) == -(QPoly.var(1, 0) ** 2)
    assert parse_expr("(t1 + 1)*(t1 - 1)", 1) == QPoly.var(1, 0) ** 2 - 1


def test_exp_forms():
    assert parse_expr("exp(t2)", 2) == QPoly.exp(2, 1, 1)
    assert parse_expr("exp(3*t1)", 2) == QPoly.exp(2, 0, 3)
    assert parse_expr("exp(-1/2*t2)", 2) == QPoly.exp(2, 1, Q(-1, 2))


def test_whitespace_insignificant():
    assert parse_expr(" 1 / 2 * t1 ", 1) == parse_expr("1/2*t1", 1)


def test_double_plus_is_error_with_position():
    with pytest.raises(ParseError) as info:
        parse_expr("t1 ++ 2", 1)
    assert info.value.line == 1
    assert info.value.col == 5


def test_multiline_error_position():
    with pytest.raises(ParseError) as info:
        parse_expr("t1 +\n t9", 2)
    assert info.value.line == 2
    assert info.value.col == 2


def test_variable_out_of_range():
    with pytest.raises(ParseError):
        parse_expr("t3", 2)


def test_unknown_function_rejected():
    # No square roots: a flat coordinate like 2*sqrt(t1) is outside the ring.
    with pytest.raises(ParseError):
        parse_expr("2*sqrt(t1)", 1)


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse_expr("t1^(1/2)", 1)


def test_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse_expr("t1^-1", 1)


def test_division_of_polynomials_rejected():
    with pytest.raises(ParseError):
        parse_expr("t1/2", 1)


def test_power_degree_bound():
    assert parse_expr("t1^64", 2).total_degree() == 64
    assert parse_expr("(t1^2 + t2)^32", 2).total_degree() == 64
    for text in ("t1^65", "(t1^2 + 1)^33", "exp(t1)^65", "(t1+t2+1)^400"):
        with pytest.raises(ParseError, match="degree bound 64") as info:
            parse_expr(text, 2)
        assert info.value.col == text.rindex("^") + 2


def test_ascii_digits_only():
    # '²'.isdigit() is true, but only 0-9 make a number.
    for text, col in (("t1^²", 4), ("٣*t1", 1)):
        with pytest.raises(ParseError, match="unexpected character") as info:
            parse_expr(text, 1)
        assert info.value.col == col


def test_token_length_bound():
    sevens = "7" * 1000
    assert parse_expr(f"{sevens}*t1", 1) == QPoly.var(1, 0) * int(sevens)
    long = "1" * 1001
    for text, col in ((long, 1), (f"1/{long}", 3), (f"t1^{long}", 4), (f"2*t{long}", 3), ("x" * 1001, 1)):
        with pytest.raises(ParseError, match="bound of 1000 characters") as info:
            parse_expr(text, 1)
        assert info.value.col == col


def test_exp_rate_bound():
    assert parse_expr("exp(-1000000000*t1)", 1) == QPoly.exp(1, 0, -(10**9))
    for text, col in (
        ("exp(2000000000*t1)", 5),
        ("exp(-1000000001*t1)", 5),
        ("exp(1000000000*t1)^2", 20),
        ("exp(1000000000*t1)*exp(t1)", 19),
    ):
        with pytest.raises(ParseError, match="rate bound 1000000000 exceeded") as info:
            parse_expr(text, 1)
        assert info.value.col == col


def test_nesting_bound():
    assert parse_expr("(" * 100 + "t1" + ")" * 100, 1) == QPoly.var(1, 0)
    with pytest.raises(ParseError, match="nesting bound 100") as info:
        parse_expr("(" * 300 + "t1" + ")" * 300, 1)
    assert info.value.col == 101
