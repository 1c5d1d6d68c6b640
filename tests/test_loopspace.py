from fractions import Fraction as Q

import pytest

from flatpencil import geometry, loopspace
from flatpencil.coxeter import (
    arnold_metric,
    build_orbit_chart,
    saito_flat_coordinates,
    saito_metric,
)
from flatpencil.errors import DEqualsOneError, IntegrabilityError, NotFlatError, OutOfRingError
from flatpencil.exprparse import parse_expr
from flatpencil.frobenius import to_flat_pencil
from flatpencil.geometry import ContraMetric, PencilData, check_flat_pencil, covariant_derivative, levi_civita
from flatpencil.loopspace import (
    Density,
    bracket_from_metric,
    central_charge,
    recursion_step,
    virasoro_check,
    weyl_vector_square,
)
from flatpencil.qpoly import QPoly


def qp(text, n):
    return parse_expr(text, n)


def test_bracket_from_constant_metric():
    eta = ContraMetric.constant([[Q(0), Q(1)], [Q(1), Q(0)]])
    conn = bracket_from_metric(eta)
    assert all(x.is_zero() for k in conn.gamma for row in k for x in row)


def test_bracket_from_linear_metric():
    conn = bracket_from_metric(ContraMetric([[qp("t1", 1)]]))
    assert conn.gamma[0][0][0].as_poly() == QPoly.const(1, Q(1, 2))


def test_bracket_rejects_non_flat():
    g = ContraMetric([[qp("1", 2), qp("0", 2)], [qp("0", 2), qp("t1^2", 2)]])
    with pytest.raises(NotFlatError):
        bracket_from_metric(g)


def compatibility(g1, g2):
    """Compatibility of the brackets of two flat metrics: the flat-pencil
    certificate of the metrics, as ``bracket compat`` runs it."""
    bracket_from_metric(g1)
    bracket_from_metric(g2)
    return check_flat_pencil(PencilData(g1=g1, g2=g2))


def test_compatibility_one_dim(cubic_pencil):
    assert compatibility(cubic_pencil.g1, cubic_pencil.g2).passed


def test_compatibility_a2(a2):
    bundle, _recon = a2
    assert compatibility(bundle.pencil.g1, bundle.pencil.g2).passed


def test_compatibility_role_exchange(cubic_pencil):
    # Exchanging the two brackets inverts the pencil parameter; the
    # certificate is insensitive to the exchange on certified pairs.
    g1, g2 = cubic_pencil.g1, cubic_pencil.g2
    assert compatibility(g1, g2).passed == compatibility(g2, g1).passed


def test_incompatible_flat_pair_connection_symmetry(cp1_pencil):
    # Both metrics flat, but the identity pairing does not match the
    # exponential metric's connection: the cross symmetry condition fails.
    ident = ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])
    report = compatibility(cp1_pencil.g1, ident)
    assert not report.passed
    assert not report.find("pencil-connection-symmetry").passed


def casimir_nabla(g, y):
    """nabla(dy) of (0.6) on the metric g; y is a Casimir density exactly
    when every entry vanishes."""
    n = g.n
    dy = [y.diff(j) for j in range(n)]
    return covariant_derivative(g.g, levi_civita(g).gamma, dy, [[x.diff(k) for k in range(n)] for x in dy])


def is_casimir(g, y):
    return all(x.is_zero() for row in casimir_nabla(g, y) for x in row)


def test_casimir_constant_bracket_already_constant():
    eta = ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])
    assert all(is_casimir(eta, QPoly.var(2, a)) for a in range(2))


def test_casimir_a2_flat_generators():
    chart = build_orbit_chart(2)
    g1 = arnold_metric(chart)
    g2 = saito_metric(g1)
    gens = saito_flat_coordinates(g2, chart.degrees)
    assert all(is_casimir(g2, y) for y in gens)


def test_casimir_detects_wrong_coordinates():
    # On g = t1 the Casimirs are affine in sqrt(t1); d(t1^2) is not parallel.
    g = ContraMetric([[qp("t1", 1)]])
    assert casimir_nabla(g, qp("t1^2", 1)) == [[qp("3*t1", 1)]]
    assert not is_casimir(g, qp("t1^2", 1))


def test_virasoro_one_dim(cubic, cubic_pencil):
    report = virasoro_check(cubic, cubic_pencil)
    assert report.passed


def test_virasoro_a2(a2):
    bundle, recon = a2
    pencil = to_flat_pencil(recon.frobenius)
    report = virasoro_check(recon.frobenius, pencil)
    assert report.passed


def test_virasoro_rejects_charge_one(cp1, cp1_pencil):
    with pytest.raises(DEqualsOneError):
        virasoro_check(cp1, cp1_pencil)


def test_recursion_one_dim(cubic_pencil):
    h1 = recursion_step(cubic_pencil, Density(qp("t1", 1)))
    assert h1.h == qp("1/4*t1^2", 1)
    assert recursion_step(cubic_pencil, Density(qp("3", 1))).h.is_zero()


def test_recursion_a2_resubstitution(a2):
    bundle, _recon = a2
    pencil = bundle.pencil
    n = pencil.n
    from flatpencil.geometry import levi_civita
    from flatpencil.linalg import mat_inverse

    eta_cov = mat_inverse(pencil.g2.constant_entries())
    gamma = levi_civita(pencil.g1).as_poly_entries()
    for alpha in range(n):
        h0 = QPoly.var(n, alpha)
        h1 = recursion_step(pencil, Density(h0)).h
        # resubstitute: eta d d h1 == g1 d d h0 + Gamma d h0
        for j in range(n):
            for k in range(n):
                rhs = QPoly.zero(n)
                for i in range(n):
                    acc = QPoly.zero(n)
                    for e in range(n):
                        acc = acc + pencil.g1.g[i][e] * h0.diff(e).diff(k)
                        acc = acc + gamma[k][i][e] * h0.diff(e)
                    rhs = rhs + acc * eta_cov[j][i]
                assert (h1.diff(j).diff(k) - rhs).is_zero()


def test_recursion_detects_non_bihamiltonian():
    # A pair that is not a flat pencil: the cross terms break the symmetry
    # of the second-derivative target.
    g1 = ContraMetric([[qp("2*exp(t2)", 2), qp("t1", 2)], [qp("t1", 2), qp("2", 2)]])
    ident = ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])
    pencil = PencilData(g1=g1, g2=ident)
    with pytest.raises(IntegrabilityError):
        recursion_step(pencil, Density(QPoly.var(2, 0)))


def test_recursion_density_carries_verified_jet(a2):
    bundle, _recon = a2
    pencil = bundle.pencil
    h0 = Density(QPoly.var(2, 1))
    assert h0.grad is None and h0.hessian is None
    h1 = recursion_step(pencil, h0)
    assert h1.grad == [h1.h.diff(e) for e in range(2)]
    assert h1.hessian == [[h1.h.diff(e).diff(g) for g in range(2)] for e in range(2)]
    # The jet is derived data: equality and repr read h alone, and a step
    # from the carried jet gives what a step from h alone gives.
    assert h1 == Density(h1.h) and repr(h1) == repr(Density(h1.h))
    assert recursion_step(pencil, h1) == recursion_step(pencil, Density(h1.h))


def test_recursion_tests_closedness_before_reraising_ring_bound(monkeypatch, a2):
    # An integration that crosses a ring bound re-raises the bound error,
    # except on a target that is not closed, which keeps its own message.
    bundle, _recon = a2

    def raising(_tensor, _order):
        raise OutOfRingError("bound")

    monkeypatch.setattr(loopspace, "primitive", raising)
    # g1 = [[1 + t1^2, t1], [t1, 1]] over g2 = 1 on h = t1: the lowered
    # target is symmetric, but its gradient is not.
    g1 = ContraMetric([[qp("t1^2 + 1", 2), qp("t1", 2)], [qp("t1", 2), qp("1", 2)]])
    pencil = PencilData(g1=g1, g2=ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]]))
    with pytest.raises(IntegrabilityError, match=r"^target gradient is not symmetric at \(2,1,2\)$"):
        recursion_step(pencil, Density(QPoly.var(2, 0)))
    with pytest.raises(OutOfRingError, match="^bound$"):
        recursion_step(bundle.pencil, Density(QPoly.var(2, 0)))


def test_recursion_over_a_connection_of_fractions_is_out_of_ring():
    # g1's connection keeps det g1 as a denominator: the first step raises,
    # and so does every later one (nothing is cached from the failure).
    g1 = ContraMetric([[qp("t1^2 + 1", 2), qp("t1", 2)], [qp("t1", 2), qp("t2", 2)]])
    pencil = PencilData(g1=g1, g2=ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]]))
    for _attempt in range(2):
        with pytest.raises(OutOfRingError, match="^rational function with nontrivial denominator$"):
            recursion_step(pencil, Density(QPoly.var(2, 0)))


def test_recursion_lowers_g1_once_per_pencil(monkeypatch, a3):
    # eta lowers g1 and its connection on the first step; each step is then
    # one covariant derivative, n^2 dots.
    pencil = a3[0].pencil
    n = pencil.n
    h = recursion_step(pencil, Density(QPoly.var(n, 0)))
    lowered = pencil.lowered_g1
    dots = []
    dot = geometry.dot

    def counting(*args):
        dots.append(args)
        return dot(*args)

    monkeypatch.setattr(geometry, "dot", counting)
    assert recursion_step(pencil, h) == recursion_step(pencil, Density(h.h))
    assert pencil.lowered_g1 is lowered
    assert len(dots) == 2 * n * n


def test_weyl_vector_squares():
    assert weyl_vector_square(1) == Q(1, 2)
    assert weyl_vector_square(2) == Q(2)
    assert weyl_vector_square(3) == Q(5)
    # closed form n(n+1)(n+2)/12 emerges from the root-system sum
    for n in range(1, 6):
        assert weyl_vector_square(n) == Q(n * (n + 1) * (n + 2), 12)


def test_central_charges(cubic, a2, a3):
    report = central_charge(cubic, coxeter_rank=1)
    assert report.c_formula == 6 and report.c_lie == 6
    _bundle2, recon2 = a2
    report2 = central_charge(recon2.frobenius, coxeter_rank=2)
    assert report2.c_formula == 24 and report2.c_lie == 24
    _bundle3, recon3 = a3
    report3 = central_charge(recon3.frobenius, coxeter_rank=3)
    assert report3.c_formula == report3.c_lie == 60


def test_central_charge_rejects_charge_one(cp1):
    with pytest.raises(DEqualsOneError):
        central_charge(cp1)


def test_central_charge_without_tag(cubic):
    report = central_charge(cubic)
    assert report.c_lie is None
