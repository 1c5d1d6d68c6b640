import random
import time
from fractions import Fraction as Q

import pytest

from flatpencil.errors import NoSolutionError, UnderdeterminedError
from flatpencil.linalg import (
    charpoly,
    det_value,
    exact_linsolve,
    mat_inverse,
    nullspace,
    rank,
    rational_roots,
    solve_affine,
)


def test_single_equation():
    assert exact_linsolve([[Q(1)]], [Q(1, 2)]) == [Q(1, 2)]


def test_two_by_two():
    assert exact_linsolve([[Q(1), Q(1)], [Q(1), Q(-1)]], [Q(1), Q(0)]) == [Q(1, 2), Q(1, 2)]


def test_inconsistent():
    with pytest.raises(NoSolutionError):
        exact_linsolve([[Q(2), Q(0)], [Q(0), Q(0)]], [Q(1), Q(1)])


def test_underdetermined():
    with pytest.raises(UnderdeterminedError):
        exact_linsolve([[Q(1), Q(1)]], [Q(1)])


def test_solution_reproduces_rhs_randomized():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = [[Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        b = [Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        try:
            x = exact_linsolve(a, b)
        except (NoSolutionError, UnderdeterminedError):
            continue
        for row, rhs in zip(a, b):
            assert sum(c * v for c, v in zip(row, x)) == rhs


def test_nullspace_and_rank():
    a = [[Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(6)]]
    assert rank(a) == 1
    basis = nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(c * x for c, x in zip(row, v)) == 0 for row in a)


def test_solve_affine_particular_plus_null():
    a = [[Q(1), Q(1), Q(0)], [Q(0), Q(0), Q(1)]]
    b = [Q(2), Q(3)]
    part, null = solve_affine(a, b)
    assert [sum(c * v for c, v in zip(row, part)) for row in a] == b
    assert len(null) == 1


def test_charpoly_and_rational_roots():
    a = [[Q(2), Q(1)], [Q(0), Q(3)]]
    coeffs = charpoly(a)
    assert coeffs == [Q(1), Q(-5), Q(6)]
    roots, residual = rational_roots(coeffs)
    assert residual == 0
    assert sorted(roots) == [(Q(2), 1), (Q(3), 1)]


def test_rational_roots_multiplicity_and_fractions():
    # (x - 1/2)^2 (x + 3) = x^3 + 2x^2 - 11/4 x + 3/4
    coeffs = [Q(1), Q(2), Q(-11, 4), Q(3, 4)]
    roots, residual = rational_roots(coeffs)
    assert residual == 0
    assert sorted(roots) == [(Q(-3), 1), (Q(1, 2), 2)]


def test_rational_roots_irrational_residual():
    # x^2 - 2 has no rational roots
    roots, residual = rational_roots([Q(1), Q(0), Q(-2)])
    assert roots == []
    assert residual == 2


def test_rational_roots_refuses_candidates_past_budget():
    # L x^2 + x + L with L = 963761198400, whose 6720 divisors give
    # 2 * 6720^2 rational-root-theorem candidates: it has no rational root.
    started = time.monotonic()
    assert rational_roots([Q(1), Q(1, 963761198400), Q(1)]) == ([], 2)
    # Lam of the A4 orbit pencil, 10000 x^4 - 1000 x^2 + 9, in ascending order.
    spectrum = [(Q(-3, 10), 1), (Q(-1, 10), 1), (Q(1, 10), 1), (Q(3, 10), 1)]
    assert rational_roots([Q(1), Q(0), Q(-1, 10), Q(0), Q(9, 10000)]) == (spectrum, 0)
    assert time.monotonic() - started < 1


def test_rational_roots_refuses_coefficient_past_bound():
    # Leading and trailing coefficients past 10^12, too large to enumerate
    # their divisors by trial division.
    started = time.monotonic()
    big = 10**12 + 1
    assert rational_roots([Q(1), Q(-big)]) == ([(Q(big), 1)], 0)
    assert rational_roots([Q(1), Q(big), Q(0)]) == ([(Q(-big), 1), (Q(0), 1)], 0)
    assert rational_roots([Q(big), Q(1)]) == ([(Q(-1, big), 1)], 0)
    assert rational_roots([Q(1, big), Q(1)]) == ([(Q(-big), 1)], 0)
    assert time.monotonic() - started < 1


def test_mat_inverse():
    a = [[Q(2), Q(1)], [Q(1), Q(1)]]
    inv = mat_inverse(a)
    ident = [[sum(a[i][k] * inv[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert ident == [[Q(1), Q(0)], [Q(0), Q(1)]]
    with pytest.raises(NoSolutionError):
        mat_inverse([[Q(1), Q(2)], [Q(2), Q(4)]])


def poly_mul(a, b):
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_rational_roots_planted_oracle():
    # Seeded products of linear factors (x - r)^m, with r = 0 among them, and
    # irreducible quadratics x^2 - p, p not a rational square.
    rng = random.Random(17)
    non_squares = [Q(2), Q(3), Q(-1), Q(2, 3), Q(-7, 2), Q(5, 4)]
    for case in range(300):
        planted: dict[Q, int] = {}
        coeffs = [Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))]
        for _ in range(rng.randint(0, 3)):
            r = Q(0) if rng.random() < 0.2 else Q(rng.randint(-6, 6), rng.randint(1, 4))
            mult = rng.randint(1, 3)
            planted[r] = planted.get(r, 0) + mult
            for _ in range(mult):
                coeffs = poly_mul(coeffs, [Q(1), -r])
        quadratics = rng.randint(0, 2)
        for _ in range(quadratics):
            coeffs = poly_mul(coeffs, [Q(1), Q(0), -rng.choice(non_squares)])
        coeffs = [Q(0)] * rng.randint(0, 2) + coeffs
        roots, residual = rational_roots(coeffs)
        assert len(roots) == len(planted), case
        assert dict(roots) == planted, case
        assert residual == 2 * quadratics, case


def planted_polynomial(rng, size, max_degree):
    """A seeded product of linear factors (x - r)^m and irreducible monic
    quadratics, with numerators and denominators up to ``size``; returns the
    coefficients, the planted roots and the quadratics' degree."""
    def rational():
        return Q(rng.randint(-size, size), rng.randint(1, size))

    planted: dict[Q, int] = {}
    coeffs = [Q(rng.randint(1, size), rng.randint(1, size))]
    degree = rng.randint(1, max_degree)
    quadratic_degree = 0
    while len(coeffs) <= degree:
        if rng.random() < 0.3 and len(coeffs) < degree:
            # x^2 + b x + c with b^2 - 4c < 0 has no rational root.
            b = rational()
            coeffs = poly_mul(coeffs, [Q(1), b, b * b / 4 + abs(rational()) + Q(1, size)])
            quadratic_degree += 2
        else:
            r = rng.choice(list(planted)) if planted and rng.random() < 0.3 else rational()
            planted[r] = planted.get(r, 0) + 1
            coeffs = poly_mul(coeffs, [Q(1), -r])
    return coeffs, planted, quadratic_degree


def test_rational_roots_planted_oracle_past_old_budgets():
    # Numerators and denominators up to 10^30, degree at most 6: the
    # divisor enumeration refused nearly all of these.
    rng = random.Random(29)
    started = time.monotonic()
    for case in range(300):
        coeffs, planted, quadratic_degree = planted_polynomial(rng, 10**30, 6)
        roots, residual = rational_roots(coeffs)
        assert roots == sorted(planted.items()), case
        assert residual == quadratic_degree, case
    assert time.monotonic() - started < 5


def test_rational_roots_match_sympy_on_large_charpolys():
    # Seeded 5x5 matrices with 100-digit entries; some have a zero block
    # below the diagonal, which plants the diagonal entries above it as
    # rational eigenvalues.
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(31)
    started = time.monotonic()
    for case in range(6):
        a = [[Q(rng.randint(-(10**100), 10**100)) for _ in range(5)] for _ in range(5)]
        for j in range(case % 3):
            for i in range(j + 1, 5):
                a[i][j] = Q(0)
        coeffs = charpoly(a)
        roots, residual = rational_roots(coeffs)
        expected = sympy.roots(sympy.Poly([int(c) for c in coeffs], x), filter="Q")
        assert roots == sorted((Q(int(r.p), int(r.q)), m) for r, m in expected.items()), case
        assert residual == 5 - sum(expected.values()), case
        assert len(roots) >= case % 3, case
    assert time.monotonic() - started < 5


def test_det_value_matches_laplace_oracle():
    # Fraction-free elimination with row swaps, on random rational matrices
    # with zeros, repeated rows and zero rows among them.
    from flatpencil.qpoly import QPoly
    from laplace_oracle import laplace_det

    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 5)
        a = [[Q(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else Q(0) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            a[-1] = list(a[0])
        want = laplace_det([[QPoly.const(1, x) for x in row] for row in a], 1).constant_value()
        assert det_value(a) == want, a
