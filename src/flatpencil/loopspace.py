"""Hydrodynamic (first-order) Poisson brackets on the loop space.

A nondegenerate first-order bracket

    {x^i(s1), x^j(s2)} = g^{ij}(x) delta'(s1-s2) + G_k^{ij}(x) xdot^k delta(s1-s2)

is equivalent to a flat contravariant metric g with its Levi-Civita
connection G; two such brackets are compatible exactly when the metrics
form a flat pencil.  A bracket is therefore handled as its metric and
connection: :func:`bracket_from_metric` certifies the metric flat and
returns its connection, and compatibility is ``geometry.check_flat_pencil``
on the two metrics.  Delta-function calculus never appears at runtime:
every distributional identity is pre-reduced to coefficient-level tensor
identities (the delta' coefficient and the xdot-delta coefficient), and
those are what this module certifies -- for the Virasoro form of the stress
field T = 2 tau/(1-d), and for one step of the bihamiltonian recursion.
Both read the xdot-delta coefficient through the covariant derivative (0.6)
of a covector, ``geometry.covariant_derivative``.
"""

from __future__ import annotations

from fractions import Fraction

from . import reports
from .errors import DEqualsOneError, IntegrabilityError, InternalCheckError, NotFlatError, OutOfRingError
from .frobenius import FrobeniusData, scaling_operator
from .geometry import (
    Connection,
    ContraMetric,
    PencilData,
    covariant_derivative,
    is_flat,
    jet,
    levi_civita,
    require_closed,
)
from .qpoly import QPoly, dot, primitive
from .reports import Report

Q = Fraction


class Density:
    """Hydrodynamic density: depends on the fields, not their derivatives.

    A density returned by :func:`recursion_step` also carries the jet of
    ``h`` that the step verified it with: ``grad[e]`` = d_e h and
    ``hessian[e][g]`` = d_g d_e h.  ``Density(h)`` carries neither, and the
    next step derives them.  The jet is derived data, so equality and repr
    read ``h`` alone.
    """

    def __init__(self, h: QPoly):
        self.h = h
        self.grad: list[QPoly] | None = None
        self.hessian: list[list[QPoly]] | None = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.h == other.h

    def __repr__(self) -> str:
        return f"Density(h={self.h!r})"


class CentralChargeReport:
    def __init__(self, c_formula: Q, c_lie: Q | None):
        self.c_formula = c_formula
        self.c_lie = c_lie


def bracket_from_metric(g: ContraMetric) -> Connection:
    """The first-order bracket of a flat metric g: its xdot-delta coefficient,
    the connection of g (the delta' coefficient is g itself).  Non-flat input
    is an error."""
    cert = is_flat(g)
    if not cert.passed:
        raise NotFlatError(f"metric is not flat: {cert.witness}")
    return levi_civita(g)


def virasoro_check(m: FrobeniusData, p: PencilData) -> Report:
    """Coefficient-level Virasoro form of the stress field T = 2 tau/(1-d):

        (dT, dT)_1 = 2 T             (delta' coefficient of {T, T})
        dT_i dT_j G_1{}^{ij}_k = d_k T   (xdot delta coefficient of {T, T})
        (dt^a, dT)_1 = 2/(1-d) E^a   (delta' coefficient of {t^a, T})
        G_1{}^{aj}_k dT_j = delta^a_k    (xdot delta coefficient of {t^a, T})
    """
    if m.d == 1:
        raise DEqualsOneError("the stress field requires d != 1")
    if p.tau is None:
        raise ValueError("pencil carries no tau")
    n = p.n
    conn = p.g1_connection
    scale = Q(2) / (1 - m.d)
    dtee = [p.tau.diff(k) * scale for k in range(n)]
    for k in range(n):
        if not dtee[k].is_constant():
            raise ValueError("tau must be linear in flat coordinates")
    dtee_c = [x.constant_value() for x in dtee]
    tee = p.tau * scale

    report = Report()
    pairing = dot(n, [(p.g1.g[i][j], dtee_c[i] * dtee_c[j]) for i in range(n) for j in range(n)], [(tee, 2)])
    report.add(reports.residual_certificate("virasoro-stress-pairing", [(None, pairing)]))

    # nabla[i][k] = G_k^{ij} dT_j; dT is constant, so its derivative is zero.
    zeros = [[0] * n for _j in range(n)]
    nabla = covariant_derivative(p.g1.g, conn.gamma, dtee_c, zeros)

    def stress_connection():
        for k in range(n):
            # Zero scalars are left out, so with no other pair the sum stays a
            # QPoly even over a connection of fractions, and so does its witness.
            yield f"k={k + 1}", dot(n, [(nabla[i][k], c) for i, c in enumerate(dtee_c) if c]) - dtee[k]

    report.add(reports.residual_certificate("virasoro-stress-connection", stress_connection()))

    e_field = m.euler_field()

    def coordinate_pairing():
        for a in range(n):
            yield f"a={a + 1}", dot(n, zip(p.g1.g[a], dtee_c), [(e_field[a], scale)])

    report.add(reports.residual_certificate("virasoro-coordinate-pairing", coordinate_pairing()))

    def coordinate_connection():
        for a in range(n):
            for k in range(n):
                yield f"(a,k)=({a + 1},{k + 1})", nabla[a][k] - (1 if a == k else 0)

    report.add(reports.residual_certificate("virasoro-coordinate-connection", coordinate_connection()))
    return report


def recursion_step(p: PencilData, density: Density) -> Density:
    """One step of the bihamiltonian recursion in flat coordinates of g2:

        eta^{ae} d_e d_g h_next = g1^{ae} d_e d_g h + G1{}^{ae}_g d_e h,

    solved by lowering with eta and one closed-form integration
    (``qpoly.primitive``); the affine ambiguity (Casimir shifts) is fixed to
    zero.  The lowered right-hand side is the target T_{jk} = d_k d_j h_next.
    It is checked for symmetry first, and a failure is reported as
    non-integrability.  The result is then verified by resubstitution,
    d_k d_j h_next = T_{jk} for every (j, k).
    Partial derivatives commute in the ring, so a passing resubstitution
    proves T symmetric and closed (d_c T_{ab} = d_b T_{ac}), and the
    closedness of T is tested only when integration or resubstitution
    fails: a target that is not closed is reported as non-integrability,
    and a resubstitution that fails on a closed target is a toolkit bug
    (InternalCheckError).  The returned Density carries the gradient and
    Hessian of h_next that the resubstitution formed, so the next step does
    not differentiate h_next again.
    """
    n = p.n
    dh, ddh = (density.grad, density.hessian) if density.grad is not None else jet(density.h)
    # eta lowers the left side to d_k d_j h_next; lowering g1 and G1 once per
    # pencil makes the target one covariant derivative.
    target = covariant_derivative(*p.lowered_g1, dh, ddh)
    for j in range(n):
        for k in range(j + 1, n):
            if target[j][k] != target[k][j]:
                raise IntegrabilityError(
                    f"second-derivative target is not symmetric at ({j + 1},{k + 1}); "
                    "the pencil pair is not bihamiltonian on this density"
                )
    try:
        h_next = primitive(target, 2)
        grad, hessian = jet(h_next)
        if any(hessian[j][k] != target[j][k] for j in range(n) for k in range(j, n)):
            raise InternalCheckError("resubstitution of the recursion step failed")
    except (OutOfRingError, InternalCheckError):
        require_closed(target, "target gradient is not symmetric at")
        raise
    result = Density(h=h_next)
    result.grad, result.hessian = grad, hessian
    return result


def central_charge(m: FrobeniusData, coxeter_rank: int | None = None) -> CentralChargeReport:
    """Central charge c = 12/(1-d)^2 (n/2 - 2 tr Lam^2) of the stress field,
    with Lam = (d-2)/2 + dE = R - 1/2 for the scaling operator R.

    For a type-A orbit space the same number must equal 12 rho^2, with rho
    half the sum of the positive roots in the normalization (alpha, alpha)
    = 2; the comparison value is computed from the root system itself.
    The unity axiom of ``m`` is certified first (``m.unity_axiom`` raises
    UnityViolationError), as on every other path that reads a potential.
    """
    m.unity_axiom
    if m.d == 1:
        raise DEqualsOneError("central charge formula requires d != 1")
    n = m.n
    r_mat = scaling_operator(m)
    lam = [[r_mat[a][b] - (Q(1, 2) if a == b else 0) for b in range(n)] for a in range(n)]
    tr_sq = sum(lam[a][b] * lam[b][a] for a in range(n) for b in range(n))
    c_formula = Q(12) / (1 - m.d) ** 2 * (Q(n, 2) - 2 * tr_sq)
    if coxeter_rank is None:
        return CentralChargeReport(c_formula=c_formula, c_lie=None)
    return CentralChargeReport(c_formula=c_formula, c_lie=12 * weyl_vector_square(coxeter_rank))


def weyl_vector_square(rank: int) -> Q:
    """rho^2 for A_rank: positive roots e_i - e_j (i < j) in R^{rank+1},
    root length^2 = 2, rho = half their sum."""
    m = rank + 1
    rho = [Q(0)] * m
    for i in range(m):
        for j in range(i + 1, m):
            rho[i] += Q(1, 2)
            rho[j] -= Q(1, 2)
    return sum(x * x for x in rho)
