"""Frobenius-manifold data built from a potential in flat coordinates.

The structure is given by a constant nondegenerate symmetric matrix eta, a
potential F whose triple derivatives are the structure constants

    c_abc = d_a d_b d_c F,

an affine-linear Euler field E, a unity coordinate index u (the unity
vector field is d/dt^u), and the rational charge d.  The module certifies
the associativity (WDVV) equations, the unity axiom c(e, ., .) = eta and the
Euler scaling of F and eta, builds the intersection form
g^{ab} = E^e c_e^{ab}, and produces the associated flat pencil (g, eta).

The forward quantities are derived once, on first use, and cached on the
`FrobeniusData` every consumer reads: the gradient and Hessian of F, c_abc,
c^a_{bc} (its first index raised by ``geometry.contract``, which the WDVV
certificate reads), c^{ab}_c (c^a_{bc} with its second index raised), the
check of the unity axiom, the WDVV certificate and the scaling data A, B,
C.  A caller that already holds the gradient, Hessian, c_abc and c^{ab}_c
of F, as the inverse construction does, may set them there instead.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import reports
from .errors import (
    AssociativityError,
    InternalCheckError,
    NotQuasihomogeneousError,
    UnityViolationError,
)
from .geometry import (
    ContraMetric,
    PencilData,
    contract,
    lie_derivative,
    linear_forms,
)
from .linalg import clear_denominators, mat_inverse
from .qpoly import QPoly, dot
from .reports import Certificate

Q = Fraction


class FrobeniusData:
    """Potential-based presentation of a Frobenius structure.

    ``euler_linear[a][b]`` is d_b E^a, so E^a = sum_b euler_linear[a][b] t^b
    + euler_const[a]; both parts are constant rationals by the linearity
    axiom.  ``unity`` is the 0-based coordinate index of the unity field.
    """

    def __init__(
        self,
        n: int,
        eta: list[list[Q]],
        potential: QPoly,
        euler_linear: list[list[Q]],
        euler_const: list[Q],
        unity: int,
        d: Q,
    ):
        if len(eta) != n or any(len(r) != n for r in eta):
            raise ValueError("eta has wrong shape")
        for i in range(n):
            for j in range(i + 1, n):
                if eta[i][j] != eta[j][i]:
                    raise ValueError("eta is not symmetric")
        if not 0 <= unity < n:
            raise ValueError("unity index out of range")
        self.n = n
        self.eta = eta
        self.potential = potential
        self.euler_linear = euler_linear
        self.euler_const = euler_const
        self.unity = unity
        self.d = d
        self.eta_inv = mat_inverse(eta)

    def euler_field(self) -> list[QPoly]:
        """The components of E."""
        return [form + c for form, c in zip(linear_forms(self.euler_linear), self.euler_const)]

    def unity_field(self) -> list[QPoly]:
        """The components of e = d/dt^u."""
        comps = [QPoly.zero(self.n) for _ in range(self.n)]
        comps[self.unity] = QPoly.const(self.n, 1)
        return comps

    def eta_metric(self) -> ContraMetric:
        """eta as a constant contravariant metric (indices raised)."""
        return ContraMetric.constant(self.eta_inv, nvars=self.n)

    @cached_property
    def gradient(self) -> list[QPoly]:
        return [self.potential.diff(a) for a in range(self.n)]

    @cached_property
    def hessian(self) -> list[list[QPoly]]:
        return [[da.diff(b) for b in range(self.n)] for da in self.gradient]

    @cached_property
    def c_low(self) -> list[list[list[QPoly]]]:
        """c_abc = d_a d_b d_c F."""
        return [[[dab.diff(c) for c in range(self.n)] for dab in row] for row in self.hessian]

    @cached_property
    def c_up(self) -> list[list[list[QPoly]]]:
        """c^a_{bc}, c_abc with its first index raised by eta."""
        return contract(self.eta_inv, self.c_low, 0, self.n)

    @cached_property
    def c_mixed(self) -> list[list[list[QPoly]]]:
        """c^{ab}_c, c^a_{bc} with its second index raised by eta."""
        return contract(self.eta_inv, self.c_up, 1, self.n)

    @cached_property
    def unity_axiom(self) -> None:
        """The unity axiom, checked once, on first read (:func:`check_unity`)."""
        check_unity(self)

    @cached_property
    def wdvv(self) -> Certificate:
        return check_wdvv(self)

    @cached_property
    def scaling(self) -> tuple[list[list[Q]], list[Q], Q]:
        return check_quasihomogeneity(self)


def check_unity(m: FrobeniusData) -> None:
    """The unity axiom c(e, ., .) = eta: the unity slice of ``m.c_low``
    equals eta, else UnityViolationError."""
    n = m.n
    c_low = m.c_low
    for a in range(n):
        for b in range(n):
            if not (c_low[m.unity][a][b] - m.eta[a][b]).is_zero():
                raise UnityViolationError(
                    f"c(e, d_{a + 1}, d_{b + 1}) = {c_low[m.unity][a][b]} "
                    f"differs from eta entry {m.eta[a][b]}"
                )


def check_wdvv(m: FrobeniusData) -> Certificate:
    """Certify the associativity equations

        c_abl eta^{lm} c_mcd = c_dbl eta^{lm} c_mca   for all a, b, c, d.

    The unity axiom is not checked here; `check_unity` owns it.
    """
    n = m.n
    c_low, raised = m.c_low, m.c_up

    def residuals():
        for a in range(n):
            for dd in range(a + 1, n):
                for b in range(n):
                    for c in range(n):
                        plus = [(c_low[a][b][e], raised[e][c][dd]) for e in range(n)]
                        minus = [(c_low[dd][b][e], raised[e][c][a]) for e in range(n)]
                        yield f"indices ({a + 1},{b + 1},{c + 1},{dd + 1})", dot(n, plus, minus)

    return reports.residual_certificate("wdvv-associativity", residuals())


def check_quasihomogeneity(m: FrobeniusData) -> tuple[list[list[Q]], list[Q], Q]:
    """Verify the Euler scaling of the potential and of eta.

    L_E F - (3 - d) F must be exactly a polynomial A_ab t^a t^b / 2 +
    B_a t^a + C; returns (A, B, C).  Also verifies the constant-metric
    scaling K^T eta + eta K = (2 - d) eta, which pins the charge d.
    """
    n = m.n
    residual = dot(n, zip(m.euler_field(), m.gradient), [(m.potential, 3 - m.d)])
    extra = residual - residual.poly_part_degree_at_most(2)
    if not extra.is_zero():
        raise NotQuasihomogeneousError(
            f"scaling residual has terms beyond quadratic: {extra}"
        )

    def coefficient(*axes: int) -> Q:
        """The coefficient of the monomial prod_{a in axes} t^a."""
        return residual.coefficient([axes.count(a) for a in range(n)])

    a_mat = [[coefficient(i, j) * (2 if i == j else 1) for j in range(n)] for i in range(n)]
    b_vec = [coefficient(i) for i in range(n)]
    c_val = coefficient()
    # The eta scaling times the denominators of K, eta and d, on integers.
    (k, kden), (eta, eden) = clear_denominators(m.euler_linear), clear_denominators(m.eta)
    dnum, dden = m.d.numerator, m.d.denominator
    for i in range(n):
        for j in range(n):
            lhs = sum(k[s][i] * eta[s][j] + eta[i][s] * k[s][j] for s in range(n))
            if lhs * dden != (2 * dden - dnum) * kden * eta[i][j]:
                raise NotQuasihomogeneousError(
                    f"eta scaling fails at entry ({i + 1},{j + 1}): "
                    f"{Q(lhs, kden * eden)} != (2-d) eta = {(2 - m.d) * m.eta[i][j]}"
                )
    return a_mat, b_vec, c_val


def intersection_form(m: FrobeniusData) -> ContraMetric:
    """g^{ab} = E^e c_e^{ab}, cross-checked against the Hessian identity

        g^{ab} = R^a_e F^{eb} + F^{ae} R^b_e + A^{ab}

    with R = (d-1)/2 I + dE and F^{ab} the eta-raised Hessian of F.
    """
    n = m.n
    a_mat = m.scaling[0]
    m.unity_axiom
    e_field = m.euler_field()
    entries = [[dot(n, zip(e_field, m.c_mixed[a][b])) for b in range(n)] for a in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if not (entries[i][j] - entries[j][i]).is_zero():
                raise InternalCheckError("intersection form is not symmetric")

    r_mat = scaling_operator(m)
    inv = m.eta_inv
    hess_up, a_up = (contract(inv, contract(inv, t, 0, n), 1, n) for t in (m.hessian, a_mat))
    for a in range(n):
        for b in range(n):
            second = a_up[a][b] + dot(
                n, [(hess_up[e][b], r_mat[a][e]) for e in range(n)] + [(hess_up[a][e], r_mat[b][e]) for e in range(n)]
            )
            if not (entries[a][b] - second).is_zero():
                raise InternalCheckError(
                    f"Hessian form of the intersection form disagrees at entry "
                    f"({a + 1},{b + 1}): {entries[a][b] - second}"
                )
    return ContraMetric(entries)


def scaling_operator(m: FrobeniusData) -> list[list[Q]]:
    """R^a_b = (d-1)/2 delta + d_b E^a, as the matrix R[a][b]."""
    n = m.n
    return [
        [m.euler_linear[a][b] + (Q(m.d - 1) / 2 if a == b else 0) for b in range(n)]
        for a in range(n)
    ]


def to_flat_pencil(m: FrobeniusData) -> PencilData:
    """The quasihomogeneous flat pencil (g, eta) with tau = eta_{u,a} t^a.

    Reads the cached forward quantities of ``m``, deriving each on first
    use: a failed WDVV certificate raises AssociativityError, and a failed
    Euler scaling or unity axiom raises its own error from
    `intersection_form`.
    """
    if not m.wdvv.passed:
        raise AssociativityError(f"associativity fails: {m.wdvv.witness}")
    g = intersection_form(m)
    (tau,) = linear_forms([m.eta[m.unity]])
    return PencilData(g1=g, g2=m.eta_metric(), tau=tau, d=m.d)


def unity_scaling_certificate(m: FrobeniusData) -> Certificate:
    """L_E e = -e, a consequence of the Euler scaling of the multiplication."""
    unity = m.unity_field()
    bracket = lie_derivative(m.euler_field(), unity, 1)
    for i in range(m.n):
        res = bracket[i] + unity[i]
        if not res.is_zero():
            return Certificate(
                "unity-euler-weight", reports.FAIL, witness=f"component {i + 1}: {res}"
            )
    return Certificate("unity-euler-weight", reports.PASS)
