from fractions import Fraction as Q

import pytest

from flatpencil.errors import NotQuasihomogeneousError, UnityViolationError
from flatpencil.exprparse import parse_expr
from flatpencil.frobenius import (
    FrobeniusData,
    check_quasihomogeneity,
    check_unity,
    check_wdvv,
    intersection_form,
    to_flat_pencil,
    unity_scaling_certificate,
)
from flatpencil.geometry import check_flat_pencil, check_quasihomogeneous, contract
from flatpencil.qpoly import QPoly
from frobenius_oracle import pencil_gamma


def qp(text, n):
    return parse_expr(text, n)


def test_structure_constants_cubic(cubic):
    check_unity(cubic)
    assert cubic.c_low[0][0][0] == QPoly.const(1, 1)


def test_structure_constants_cp1(cp1):
    check_unity(cp1)
    assert cp1.c_low[0][0][1] == qp("1", 2)
    assert cp1.c_low[1][1][1] == qp("exp(t2)", 2)
    assert cp1.c_low[0][0][0].is_zero()
    assert cp1.c_low[0][1][1].is_zero()


def test_unity_violation():
    bad = FrobeniusData(
        n=1,
        eta=[[Q(2)]],
        potential=qp("1/6*t1^3", 1),
        euler_linear=[[Q(1)]],
        euler_const=[Q(0)],
        unity=0,
        d=Q(0),
    )
    with pytest.raises(UnityViolationError):
        check_unity(bad)


def test_wdvv_low_dimensions(cubic, cp1):
    assert check_wdvv(cubic).passed
    assert check_wdvv(cp1).passed


def test_wdvv_a3_potential(a3):
    _bundle, recon = a3
    cert = check_wdvv(recon.frobenius)
    assert cert.passed


def test_wdvv_failure_with_witness():
    bad = FrobeniusData(
        n=3,
        eta=[[Q(0), Q(0), Q(1)], [Q(0), Q(1), Q(0)], [Q(1), Q(0), Q(0)]],
        potential=qp("t1*t2*t3 + t2^3*t3^3", 3),
        euler_linear=[[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(1)]],
        euler_const=[Q(0)] * 3,
        unity=0,
        d=Q(0),
    )
    cert = check_wdvv(bad)
    assert not cert.passed
    assert cert.witness and "indices" in cert.witness


def test_quasihomogeneity_cubic(cubic):
    a_mat, b_vec, c_val = check_quasihomogeneity(cubic)
    assert a_mat == [[Q(0)]]
    assert b_vec == [Q(0)]
    assert c_val == 0


def test_quasihomogeneity_cp1(cp1):
    # The exponential potential picks up a genuine quadratic remainder.
    a_mat, b_vec, c_val = check_quasihomogeneity(cp1)
    assert a_mat == [[Q(2), Q(0)], [Q(0), Q(0)]]
    assert b_vec == [Q(0), Q(0)]
    assert c_val == 0


def test_quasihomogeneity_wrong_charge_rejected(cubic):
    bad = FrobeniusData(
        n=1,
        eta=cubic.eta,
        potential=cubic.potential,
        euler_linear=cubic.euler_linear,
        euler_const=cubic.euler_const,
        unity=0,
        d=Q(1),
    )
    with pytest.raises(NotQuasihomogeneousError):
        check_quasihomogeneity(bad)


def test_intersection_form_cubic(cubic):
    g = intersection_form(cubic)
    assert g.g[0][0] == qp("t1", 1)


def test_intersection_form_cp1(cp1):
    g = intersection_form(cp1)
    expect = [["2*exp(t2)", "t1"], ["t1", "2"]]
    for i in range(2):
        for j in range(2):
            assert g.g[i][j] == qp(expect[i][j], 2)


def test_intersection_form_zero_euler_flagged_not_error():
    # A vanishing Euler field contracts to the zero metric; the container
    # carries it as degenerate rather than refusing it outright.
    from flatpencil.geometry import ContraMetric

    cubic0 = FrobeniusData(
        n=1,
        eta=[[Q(1)]],
        potential=qp("1/6*t1^3", 1),
        euler_linear=[[Q(0)]],
        euler_const=[Q(0)],
        unity=0,
        d=Q(2),
    )
    check_unity(cubic0)
    e_field = cubic0.euler_field()
    entry = sum(
        (e_field[e] * cubic0.c_mixed[0][0][e] for e in range(1)), QPoly.zero(1)
    )
    g = ContraMetric([[entry]])
    assert g.det.is_zero()


def test_pencil_gamma_cubic(cubic):
    conn = pencil_gamma(cubic)
    assert conn.gamma[0][0][0].as_poly() == QPoly.const(1, Q(1, 2))


def test_pencil_gamma_constant_free_potential():
    m = FrobeniusData(
        n=2,
        eta=[[Q(0), Q(1)], [Q(1), Q(0)]],
        potential=qp("1/2*t1^2*t2", 2),
        euler_linear=[[Q(1), Q(0)], [Q(0), Q(1)]],
        euler_const=[Q(0), Q(0)],
        unity=0,
        d=Q(0),
    )
    conn = pencil_gamma(m)
    # c is constant here, so the connection is constant as well.
    for k in range(2):
        for i in range(2):
            for j in range(2):
                assert conn.gamma[k][i][j].as_poly().is_constant()


def test_to_flat_pencil_cubic(cubic):
    p = to_flat_pencil(cubic)
    assert p.tau == qp("t1", 1)
    assert p.d == 0
    assert check_flat_pencil(p).passed
    assert check_quasihomogeneous(p).passed


def test_to_flat_pencil_a2_degree(a2):
    _bundle, recon = a2
    p = to_flat_pencil(recon.frobenius)
    report = check_quasihomogeneous(p)
    assert report.passed
    assert p.degree == Q(1, 3)


def test_to_flat_pencil_cp1_certified_but_not_regular(cp1, cp1_pencil):
    assert check_flat_pencil(cp1_pencil).passed
    from flatpencil.frobenius import scaling_operator
    from flatpencil.linalg import rank

    r = scaling_operator(cp1)
    assert r == [[Q(1), Q(0)], [Q(0), Q(0)]]
    assert rank(r) == 1


def test_unity_euler_weight(cubic, cp1):
    assert unity_scaling_certificate(cubic).passed
    assert unity_scaling_certificate(cp1).passed


def test_intersection_form_unity_slope(cp1):
    # d g^{ab} / dt^unity equals the raised flat pairing.
    g = intersection_form(cp1)
    inv = cp1.eta_inv
    for a in range(2):
        for b in range(2):
            assert g.g[a][b].diff(cp1.unity) == QPoly.const(2, inv[a][b])


def test_raise_lower_round_trip(cp1):
    check_unity(cp1)
    back = contract(cp1.eta, contract(cp1.eta, cp1.c_mixed, 0, cp1.n), 1, cp1.n)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert back[a][b][c] == cp1.c_low[a][b][c]


def test_mixed_constants_gradient_symmetry(cp1):
    # d_e c^{bg}_d = d_d c^{bg}_e, the step that kills the curvature.
    check_unity(cp1)
    for b in range(2):
        for g in range(2):
            for e in range(2):
                for d in range(2):
                    lhs = cp1.c_mixed[b][g][d].diff(e)
                    rhs = cp1.c_mixed[b][g][e].diff(d)
                    assert (lhs - rhs).is_zero()
