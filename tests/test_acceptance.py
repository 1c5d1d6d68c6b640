"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Everything here is exact (zero tolerance) except the two
stated wall-clock budgets."""

import random
import time
from fractions import Fraction as Q

import pytest

from flatpencil.frobenius import check_unity, check_wdvv, to_flat_pencil
from flatpencil.geometry import (
    ContraMetric,
    PencilData,
    check_flat_pencil,
    levi_civita,
    lie_derivative,
)
from flatpencil.exprparse import parse_expr
from flatpencil.loopspace import (
    Density,
    central_charge,
    recursion_step,
    virasoro_check,
    weyl_vector_square,
)
from flatpencil.qpoly import QPoly
from flatpencil.reconstruction import operator_pair, reconstruct_frobenius
from flatpencil.reports import FAIL
from curvature_oracle import assert_kernel_matches


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok


@pytest.fixture(scope="module")
def manifolds(cubic, cp1, a2, a3):
    return {
        "cubic": cubic,
        "exp-manifold": cp1,
        "A2": a2[1].frobenius,
        "A3": a3[1].frobenius,
    }


def test_criterion_1_wdvv(manifolds):
    timings = []
    for name, m in manifolds.items():
        start = time.monotonic()
        cert = check_wdvv(m)
        elapsed = time.monotonic() - start
        timings.append(f"{name} {elapsed:.2f}s")
        assert cert.passed, name
        assert elapsed < 10, name
    _report("1 wdvv-exact-zero", True, ", ".join(timings))


def test_criterion_2_forward_pencils(manifolds):
    timings = []
    for name, m in manifolds.items():
        start = time.monotonic()
        pencil = to_flat_pencil(m)
        report = check_flat_pencil(pencil)
        elapsed = time.monotonic() - start
        timings.append(f"{name} {elapsed:.2f}s")
        assert report.passed, (name, report.summary())
        for cert_name in (
            "pencil-determinant",
            "pencil-connection-symmetry",
            "pencil-connection-metricity",
            "pencil-curvature",
        ):
            assert report.find(cert_name).passed, name
        assert elapsed < 60, name
    _report("2 forward-pencil-certification", True, ", ".join(timings))


def test_criterion_3_round_trips(manifolds):
    details = []
    for name, m in manifolds.items():
        pencil = to_flat_pencil(m)
        assert check_flat_pencil(pencil).passed, name  # the inverse construction's precondition
        result = reconstruct_frobenius(pencil)
        expected_mode = "d1-remark" if m.d == 1 else "regular"
        assert result.mode == expected_mode, name
        n = m.n
        assert result.change == [[Q(1 if i == j else 0) for j in range(n)] for i in range(n)]
        check_unity(m)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert result.frobenius.c_mixed[a][b][c] == m.c_mixed[a][b][c], name
        assert result.frobenius.euler_linear == m.euler_linear, name
        assert result.frobenius.euler_const == m.euler_const, name
        assert result.frobenius.unity == m.unity, name
        assert result.frobenius.d == m.d, name
        diff = result.frobenius.potential - m.potential
        assert diff.poly_part_degree_at_most(2) == diff, name  # quadratic slack only
        details.append(f"{name} {result.mode}")
    _report("3 inverse-round-trip", True, ", ".join(details))


def test_criterion_4_coxeter_degrees(a1, a2, a3):
    got = [a1[0].pencil.d, a2[0].pencil.d, a3[0].pencil.d]
    assert got == [Q(0), Q(1, 3), Q(1, 2)]
    _report("4 coxeter-degrees", True, "d = 0, 1/3, 1/2")


def test_criterion_5_central_charges(cubic, a2, a3):
    r1 = central_charge(cubic, coxeter_rank=1)
    r2 = central_charge(a2[1].frobenius, coxeter_rank=2)
    r3 = central_charge(a3[1].frobenius, coxeter_rank=3)
    assert (r1.c_formula, r2.c_formula) == (6, 24)
    assert all(r.c_formula == r.c_lie for r in (r1, r2, r3))
    assert r3.c_lie == 12 * weyl_vector_square(3)
    _report("5 central-charges", True, f"c = {r1.c_formula}, {r2.c_formula}, {r3.c_formula}")


def test_criterion_6_compatibility(cubic_pencil, cp1_pencil, a2):
    # Compatibility of two first-order brackets is the flat-pencil
    # certificate of their metrics; the mutated members below are exactly
    # the ones the flatness gate of a bracket would refuse.
    ok = check_flat_pencil(cubic_pencil).passed and check_flat_pencil(a2[0].pencil).passed
    assert ok

    # Three mutated pairs, each certified incompatible with a witness.
    a2_g1 = a2[0].pencil.g1
    perturbed = ContraMetric(
        [
            [a2_g1.g[i][j] + (parse_expr("t1", 2) if i == j == 0 else QPoly.zero(2)) for j in range(2)]
            for i in range(2)
        ]
    )
    pair_a = (perturbed, a2[0].pencil.g2)
    pair_b = (cp1_pencil.g1, ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]]))
    nonflat = ContraMetric([[parse_expr("1", 2), QPoly.zero(2)], [QPoly.zero(2), parse_expr("t1^2", 2)]])
    pair_c = (nonflat, ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]]))
    names = []
    for tag, (m1, m2) in (("perturbed-entry", pair_a), ("broken-linearity", pair_b), ("non-flat-member", pair_c)):
        report = check_flat_pencil(PencilData(g1=m1, g2=m2))
        assert not report.passed, tag
        witnesses = [c.witness for c in report.certificates if c.status == FAIL]
        assert any(witnesses), tag
        names.append(tag)
    _report("6 bracket-compatibility", True, "fails: " + ", ".join(names))


def test_criterion_7_virasoro(cubic, cubic_pencil, a2):
    report1 = virasoro_check(cubic, cubic_pencil)
    assert report1.passed
    # explicit one-variable values: T = 2t, (dT,dT) = 4t = 2T, coefficient 1
    scale = Q(2)
    pairing = cubic_pencil.g1.g[0][0] * scale * scale
    assert pairing == parse_expr("4*t1", 1)
    pencil2 = to_flat_pencil(a2[1].frobenius)
    report2 = virasoro_check(a2[1].frobenius, pencil2)
    assert report2.passed
    _report("7 virasoro-form", True)


def test_criterion_8_recursion(cubic_pencil, a2):
    h1 = recursion_step(cubic_pencil, Density(parse_expr("t1", 1)))
    assert h1.h == parse_expr("1/4*t1^2", 1)
    pencil = a2[0].pencil
    for alpha in range(pencil.n):
        # recursion_step re-certifies the defining relation by exact
        # resubstitution before returning
        recursion_step(pencil, Density(QPoly.var(pencil.n, alpha)))
    _report("8 recursion-step", True, "h1 = t^2/4")


def test_criterion_9_property_suites(cp1, cubic_pencil, a2):
    rng = random.Random(20240817)

    def rand_poly(nvars):
        out = QPoly.zero(nvars)
        for _ in range(rng.randint(1, 4)):
            pows = tuple(rng.randint(0, 2) for _ in range(nvars))
            out = out + QPoly(nvars, {(pows, ()): Q(rng.randint(-5, 5), rng.randint(1, 3))})
        return out

    # ring axioms
    for _ in range(10):
        a, b, c = (rand_poly(2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    # curvature antisymmetry on a generic nondegenerate metric
    g = ContraMetric(
        [[parse_expr("t1+3", 2), parse_expr("t2", 2)], [parse_expr("t2", 2), parse_expr("t1*t2+7", 2)]]
    )
    assert_kernel_matches(g.g, levi_civita(g).gamma)

    # bracket Jacobi identity on random polynomial fields, [X, Y] = L_X Y
    for _ in range(6):
        x, y, z = ([rand_poly(2), rand_poly(2)] for _ in range(3))
        total = [
            p + q + r
            for p, q, r in zip(
                lie_derivative(x, lie_derivative(y, z, 1), 1),
                lie_derivative(y, lie_derivative(z, x, 1), 1),
                lie_derivative(z, lie_derivative(x, y, 1), 1),
            )
        ]
        assert all(t.is_zero() for t in total)

    # gradient of the structure tensor fully symmetric (integrability shape)
    check_unity(cp1)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    assert (cp1.c_low[a][b][c].diff(d) - cp1.c_low[d][b][c].diff(a)).is_zero()

    # skew-symmetry of the shifted scaling operator, and root-space pairing
    for pencil in (cubic_pencil, a2[0].pencil):
        ops = operator_pair(pencil)
        eta_up = pencil.g2.constant_entries()
        n = pencil.n
        for i in range(n):
            for j in range(n):
                assert (
                    sum(ops.lam_op[s][i] * eta_up[s][j] + eta_up[i][s] * ops.lam_op[s][j] for s in range(n))
                    == 0
                )
        from flatpencil.linalg import rank

        for s1 in ops.spectrum:
            for s2 in ops.spectrum:
                gram = [
                    [
                        sum(u[i] * eta_up[i][j] * v[j] for i in range(n) for j in range(n))
                        for v in s2.basis
                    ]
                    for u in s1.basis
                ]
                if s1.value + s2.value != 0:
                    assert all(x == 0 for row in gram for x in row)
                else:
                    assert rank(gram) == len(s1.basis)
    _report("9 property-suites", True)
