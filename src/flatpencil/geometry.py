"""Contravariant metrics, their Levi-Civita connections, curvature, the
change of coordinates of metrics, and the flat-pencil / quasihomogeneity
certificates.

All geometric objects are written with upper (contravariant) indices.  A
metric is a symmetric matrix g^{ij} of quasi-polynomials, invertible on the
dense subset where det(g) is nonzero.  Its connection coefficients G_k^{ij}
are determined by the two linear conditions

    symmetry:    g^{is} G_s^{jk} = g^{js} G_s^{ik}
    metricity:   G_k^{ij} + G_k^{ji} = d g^{ij} / dx^k

Metricity alone is solved by G = 1/2 d g + A with A antisymmetric in
(i, j), and symmetry fixes A.  The connection is built from these halves:

    G_k^{ij} = 1/2 d_k g^{ij} + A_k^{ij} / det,
    G_k^{ji} = 1/2 d_k g^{ij} - A_k^{ij} / det,
    A_k^{ij} = 1/2 adj_{kq} (g^{is} d_s g^{jq} - g^{js} d_s g^{iq}),

with adj the adjugate of g, and A formed and divided by det g only for
i < j.  When every such division is exact, as on the orbit-space pencils
and the bundled examples, the entries are QPoly, and curvature and every
residual are QPoly arithmetic.  When any division is inexact, every entry
is a :class:`RatFunc` over det, whose numerator 1/2 det d_k g^{ij} +- A is
the whole entry times det: the connection then has one shared denominator,
so curvature and the pencil residuals never mix denominators, and RatFunc
sums stay over powers of det.  A QPoly reads as the fraction self/1, so the
kernels below serve both kinds.  Metricity holds by this assembly; the
connection is verified against symmetry when it is first built and cached
on the metric object, so a pipeline that asks for one metric's connection
repeatedly builds it once.

Symmetry and metricity determine the connection wherever det g is
nonzero, so any candidate that holds metricity by its form, passes the
symmetry residuals and has det g proved nonzero is the connection.  The
g1 of a pencil in flat coordinates of its constant g2 with a diagonal
Euler field has such a candidate in closed form (:func:`flat_candidate`),
with no determinant, adjugate or division; a pencil takes it when it
applies and the kernel above otherwise.  A determinant needed only to be
nonzero is evaluated at one rational point first and expanded only when
that value is zero (``ContraMetric.is_degenerate``).  Curvature is

    R_l^{ijk} = g^{is} (d_s G_l^{jk} - d_l G_s^{jk})
                + G_s^{ik} G_l^{sj} - G_s^{ij} G_l^{sk},

which equals the classical curvature tensor with two indices raised,
g^{is} g^{jt} R^k_{tls}, and therefore vanishes identically iff the metric
is flat.  Only the entries with j < k are formed.  With the metricity
residual M_k^{ij} = G_k^{ij} + G_k^{ji} - d_k g^{ij}, the quadratic terms
cancel pairwise in R_l^{ijk} + R_l^{ikj} = g^{is} (d_s M_l^{jk} - d_l M_s^{jk}),
so on a connection that satisfies metricity, as every one built here does,
R is antisymmetric in (j, k): the j < k half determines it, and the first
nonzero entry in index order, the reported witness, lies in that half.
Identities involving denominators are certified as numerator identities,
which is the correct globalization from the dense invertibility subset.

A pencil (g1, g2) is *flat* when det(g1 - lam*g2) is not identically zero,
G1 - lam*G2 is the connection of g1 - lam*g2 for every lam, and the pencil
curvature vanishes identically in lam.  The lam-dependence is handled by
adjoining lam as an extra polynomial variable and requiring every
lam-coefficient tensor to vanish.

Each operation has one kernel here: the connection (:func:`levi_civita`,
after :func:`flat_candidate` on a pencil), the covariant derivative (0.6)
(:func:`covariant_derivative`), the curvature (:func:`curvature_entries`),
the Lie derivative of any rank (:func:`lie_derivative`), one index raised or
lowered by a constant matrix such as eta or its inverse, as in (0.7)
(:func:`contract`), the change of coordinates (:func:`push_metric`), and,
for the recursion and the potential recovery, the jet of an integral
(:func:`jet`) and the closedness test of its integrand
(:func:`require_closed`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from operator import getitem

from . import reports
from .errors import (
    DegreeInferenceError,
    IntegrabilityError,
    InternalCheckError,
    NotFlatCoordinatesError,
    OutOfRingError,
    SingularMetricError,
)
from .linalg import det_value, mat_inverse, sym_adjugate, sym_det, sym_sample_values
from .qpoly import QPoly, RatFunc, dot, exact_divide
from .reports import Certificate, Report, index_label

Q = Fraction


class ContraMetric:
    """Symmetric contravariant metric; caches its determinant and its
    Levi-Civita connection."""

    def __init__(self, entries: list[list[QPoly]]):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("metric matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if not (entries[i][j] - entries[j][i]).is_zero():
                    raise ValueError(f"metric not symmetric at entry ({i + 1},{j + 1})")
        self.n = n
        self.g = entries
        self._minors: dict = {}
        self._det: QPoly | None = None
        self._degenerate: bool | None = None
        self._conn: Connection | None = None

    @classmethod
    def constant(cls, matrix: list[list[Q]], nvars: int | None = None) -> "ContraMetric":
        n = len(matrix)
        nvars = n if nvars is None else nvars
        return cls([[QPoly.const(nvars, x) for x in row] for row in matrix])

    @property
    def nvars(self) -> int:
        return self.g[0][0].nvars

    @property
    def det(self) -> QPoly:
        if self._det is None:
            self._det = sym_det(self.g, self.nvars, self._minors)
        return self._det

    def is_degenerate(self) -> bool:
        """Whether det g vanishes identically.  A constant metric takes the
        determinant of its entries.  Otherwise a nonzero determinant of the
        entries' values at one rational point (``linalg.sym_sample_values`` and
        ``linalg.det_value``) proves det g nonzero; only a zero value expands
        det g."""
        if self._degenerate is None:
            if self._det is not None:
                self._degenerate = self._det.is_zero()
            elif self.is_constant():
                # constant_entries is left to PencilData.eta_up, eta's one read.
                self._degenerate = not det_value([[x.constant_value() for x in row] for row in self.g])
            elif det_value(sym_sample_values(self.g)):
                self._degenerate = False
            else:
                self._degenerate = self.det.is_zero()
        return self._degenerate

    def constant_entries(self) -> list[list[Q]]:
        """The entries as rationals; raises if any entry is non-constant."""
        return [[x.constant_value() for x in row] for row in self.g]

    def is_constant(self) -> bool:
        return all(x.is_constant() for row in self.g for x in row)


class Connection:
    """Contravariant connection coefficients; gamma[k][i][j] = G_k^{ij}."""

    def __init__(self, gamma: list[list[list[QPoly | RatFunc]]]):
        self.gamma = gamma
        self.n = len(gamma)

    def as_poly_entries(self) -> list[list[list[QPoly]]]:
        """Entries as quasi-polynomials; raises OutOfRingError otherwise."""
        return [[[x.as_poly() for x in row] for row in k] for k in self.gamma]


class PencilData:
    """A pair of metrics, optionally with the scaling potential and degree;
    its scaling data (eta, E and e, L_E g1, d) and the connection of g1
    (:attr:`g1_connection`) are derived once, on first use.

    ``flat_certified`` records that :func:`check_flat_pencil` passed on this
    pair; nothing else sets it.  The flat-pencil conditions are tensorial,
    so ``reconstruction.transform_pencil`` carries the record, with d, to
    the pencil it builds in linearly changed coordinates.  A copy with
    another metric must be certified afresh.  The inverse construction
    (``reconstruction.reconstruct_frobenius``) runs only on a pencil with
    the record set.

    ``quasihomogeneous_certified`` records that :func:`check_quasihomogeneous`
    passed on this pair, tau and d; nothing else sets it.  Its identities
    are tensorial too, so ``transform_pencil`` carries it; the tau it is
    handed in place of the moved one may differ from it only by a constant,
    which leaves E and e as they are (the normalization drops the constant
    of tau).
    """

    def __init__(
        self,
        g1: ContraMetric,
        g2: ContraMetric,
        tau: QPoly | None = None,
        d: Q | None = None,
        flat_certified: bool = False,
        quasihomogeneous_certified: bool = False,
    ):
        self.g1 = g1
        self.g2 = g2
        self.tau = tau
        self.d = d
        self.flat_certified = flat_certified
        self.quasihomogeneous_certified = quasihomogeneous_certified

    @property
    def n(self) -> int:
        return self.g1.n

    @cached_property
    def eta_up(self) -> list[list[Q]]:
        """eta^{ij}, the entries of g2, which must be constant and nondegenerate."""
        if not self.g2.is_constant():
            raise NotFlatCoordinatesError("second metric is not constant; present the pencil in its flat coordinates")
        if self.g2.is_degenerate():
            raise SingularMetricError("second metric is degenerate")
        return self.g2.constant_entries()

    @cached_property
    def eta_cov(self) -> list[list[Q]]:
        """eta_{ij}, the inverse of :attr:`eta_up`."""
        return mat_inverse(self.eta_up)

    @cached_property
    def lowered_g1(self) -> tuple[list[list[QPoly]], list[list[list[QPoly]]]]:
        """g1 and its connection with the first upper index lowered by eta,
        eta_{ji} g1^{ie} and eta_{ji} G1{}^{ie}_k (indexed [j][e] and
        [k][j][e]): the coefficients of the recursion (0.7) after its
        lowering.  A connection of fractions raises OutOfRingError."""
        gamma = self.g1_connection.as_poly_entries()
        return contract(self.eta_cov, self.g1.g, 0, self.n), contract(self.eta_cov, gamma, 1, self.n)

    @cached_property
    def euler(self) -> tuple[list[QPoly], list[QPoly]]:
        """The components of E = g1 grad(tau) and e = g2 grad(tau)."""
        if self.tau is None:
            raise ValueError("pencil carries no scaling potential tau")
        grad = [self.tau.diff(s) for s in range(self.n)]
        return tuple([dot(g.nvars, zip(row, grad)) for row in g.g] for g in (self.g1, self.g2))

    @cached_property
    def euler_lie_g1(self) -> list[list[QPoly]]:
        """L_E g1."""
        return lie_derivative(self.euler[0], self.g1.g, 2)

    @cached_property
    def inferred_degree(self) -> Q:
        """The d with L_E g1 = (d-1) g1, whatever d the pencil declares."""
        return infer_degree(self.g1, self.euler_lie_g1)

    @property
    def degree(self) -> Q:
        """The declared d, else the inferred one."""
        return self.d if self.d is not None else self.inferred_degree

    @cached_property
    def g1_connection(self) -> Connection:
        """The Levi-Civita connection of g1, kept in g1's own cache, so
        ``levi_civita(p.g1)`` returns the same object.  A connection g1
        already holds is returned; otherwise :func:`flat_candidate` is tried
        first, and the ``levi_civita`` kernel builds it when that declines."""
        if self.g1._conn is None:
            self.g1._conn = flat_candidate(self)
        return levi_civita(self.g1)


# ---------------------------------------------------------------------------
# Connection and curvature
# ---------------------------------------------------------------------------


def levi_civita(g: ContraMetric) -> Connection:
    """The unique contravariant connection satisfying symmetry and metricity,
    assembled from 1/2 d g and the antisymmetric part A / det of the module
    docstring: QPoly entries when every division A / det is exact, else
    RatFunc entries over det.  Constant metrics get QPoly zeros without
    forming the adjugate or expanding det.  The connection is built and
    verified against symmetry once per metric object, then returned from
    the metric's cache.  This kernel serves lone metrics; a pencil reads the
    connection of g1 through ``PencilData.g1_connection``, which puts the
    verified :func:`flat_candidate` into that cache when it applies, and
    reaches this kernel otherwise.
    """
    if g._conn is None:
        g._conn = _build_connection(g)
    return g._conn


def _build_connection(g: ContraMetric) -> Connection:
    n = g.n
    nvars = g.nvars
    # A non-constant metric divides by det, so only a constant one is
    # decided without expanding it.
    constant = g.is_constant()
    degenerate = g.is_degenerate() if constant else g.det.is_zero()
    if degenerate:
        raise SingularMetricError("metric determinant is identically zero")
    if constant:
        zero = QPoly.zero(nvars)
        return Connection([[[zero] * n for _i in range(n)] for _k in range(n)])

    det = g.det
    adj = sym_adjugate(g.g, nvars, g._minors)
    dg = [[[g.g[i][j].diff(s) for s in range(n)] for j in range(n)] for i in range(n)]
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # skew[i, j][q] = g^{is} d_s g^{jq} - g^{js} d_s g^{iq}, shared by every k
    skew = {
        (i, j): [
            dot(nvars, [(g.g[i][s], dg[j][q][s]) for s in range(n)], [(g.g[j][s], dg[i][q][s]) for s in range(n)])
            for q in range(n)
        ]
        for i, j in upper
    }
    anti = {
        (k, i, j): dot(nvars, [(adj[k][q], skew[i, j][q]) for q in range(n)]) * Q(1, 2)
        for k in range(n)
        for i, j in upper
    }
    # over[k, i, j] = A_k^{ij} / det, the one part of each entry over det
    over = {key: exact_divide(num, det) for key, num in anti.items()}
    zero = QPoly.zero(nvars)
    if any(quo is None for quo in over.values()):
        over = {key: RatFunc(num, det) for key, num in anti.items()}
        zero = RatFunc(zero, det)
    over.update({(k, j, i): -part for (k, i, j), part in over.items()})
    conn = Connection(
        [[[dg[i][j][k] * Q(1, 2) + over.get((k, i, j), zero) for j in range(n)] for i in range(n)] for k in range(n)]
    )
    for idx, res in symmetry_residuals(g.g, conn.gamma, n):
        if not res.is_zero():
            raise InternalCheckError(f"connection symmetry residual nonzero at {index_label(idx)}")
    return conn


def flat_candidate(p: PencilData) -> Connection | None:
    """The connection of g1 from its form in flat coordinates of a constant
    g2 with the diagonal Euler field E = sum_a w_a t^a d_a + r, or None.

    There Dubrovin's formula G^{ab}_k = ((d+1)/2 - q_b) c^{ab}_k
    (hep-th/9407018, Lecture 3), with w_a = 1 - q_a, reads

        G_k^{ab} = rho_ab d_k g1^{ab},   rho_ab = (w_b + (d-1)/2) / (w_a + w_b + d - 1),

    and rho_ab + rho_ba = 1 (rho_aa = 1/2), so the candidate satisfies
    metricity by its form.  Symmetry and metricity determine the connection
    where det g1 is nonzero, so the candidate is kept only when every
    symmetry residual vanishes and det g1 is proved nonzero
    (``ContraMetric.is_degenerate``).
    It declines, with None and never by raising, when there is no tau, g2
    is not constant, dE is not a constant diagonal matrix, the degree
    cannot be inferred, some w_a + w_b + d - 1 vanishes (a resonant
    spectrum, such as CP1's), a residual is nonzero, or a product crosses a
    ring bound; the kernel then decides, with its own errors.
    """
    g1, n = p.g1, p.n
    if p.tau is None or not p.g2.is_constant():
        return None
    de = [[c.diff(b) for b in range(n)] for c in p.euler[0]]
    if any(not x.is_constant() or (a != b and x) for a, row in enumerate(de) for b, x in enumerate(row)):
        return None
    w = [de[a][a].constant_value() for a in range(n)]
    try:
        shift = Q(p.degree) - 1
    except DegreeInferenceError:
        return None
    if any(w[a] + w[b] + shift == 0 for a in range(n) for b in range(a, n)):
        return None
    gamma = [[[None] * n for _a in range(n)] for _k in range(n)]
    for a in range(n):
        for b in range(a, n):
            rho = _flat_ratio(w[a], w[b], shift) if a < b else Q(1, 2)
            for k in range(n):
                dg = g1.g[a][b].diff(k)
                gamma[k][a][b] = dg * rho
                if a < b:
                    gamma[k][b][a] = dg * (1 - rho)
    try:
        if any(not res.is_zero() for _idx, res in symmetry_residuals(g1.g, gamma, n)):
            return None
    except OutOfRingError:
        return None
    return None if g1.is_degenerate() else Connection(gamma)


def _flat_ratio(wa: Q, wb: Q, shift: Q) -> Q:
    """rho_ab of :func:`flat_candidate`, with shift = d - 1; the candidate
    takes rho_ba = 1 - rho_ab and rho_aa = 1/2 whatever this returns."""
    return (wb + shift / 2) / (wa + wb + shift)


def symmetry_residuals(gmat, gamma, n: int):
    """Residuals of g^{is} G_s^{jk} = g^{js} G_s^{ik} over i < j, all k."""
    nvars = gmat[0][0].nvars
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                plus = [(gmat[i][s], gamma[s][j][k]) for s in range(n)]
                minus = [(gmat[j][s], gamma[s][i][k]) for s in range(n)]
                yield (i, j, k), dot(nvars, plus, minus)


def covariant_derivative(gmat, gamma, v, dv):
    """The covariant derivative (0.6) of the covector v along each dx^i:

        nabla[i][k] = g^{ij} dv[j][k] + G_k^{ij} v[j],   dv[j][k] = d_k v_j.

    Each entry is one ``dot``; the pairs where v[j] or dv[j][k] is zero are
    left out, so over a connection of fractions an entry with no other pair
    stays a QPoly."""
    nvars = gmat[0][0].nvars
    n = len(gmat)
    return [
        [
            dot(
                nvars,
                [(gmat[i][j], dv[j][k]) for j in range(n) if dv[j][k]]
                + [(gamma[k][i][j], v[j]) for j in range(n) if v[j]],
            )
            for k in range(n)
        ]
        for i in range(n)
    ]


def curvature_entries(gmat, gamma):
    """The curvature entries ((l, i, j, k), R_l^{ijk}) with j < k, in index
    order, each of the connection's kind: the half that determines R."""
    n = len(gmat)
    nvars = gmat[0][0].nvars
    half = [(j, k) for j in range(n) for k in range(j + 1, n)]
    dgamma = {(l, j, k): [gamma[l][j][k].diff(s) for s in range(n)] for l in range(n) for j, k in half}
    # curl[l, s, j, k] = d_s G_l^{jk} - d_l G_s^{jk}, shared by every i
    curl = {
        (l, s, j, k): dgamma[l, j, k][s] - dgamma[s, j, k][l] for l in range(n) for s in range(n) for j, k in half
    }
    return [
        (
            (l, i, j, k),
            dot(
                nvars,
                [(gmat[i][s], curl[l, s, j, k]) for s in range(n)]
                + [(gamma[s][i][k], gamma[l][s][j]) for s in range(n)],
                [(gamma[s][i][j], gamma[l][s][k]) for s in range(n)],
            ),
        )
        for l in range(n)
        for i in range(n)
        for j, k in half
    ]


def is_flat(g: ContraMetric) -> Certificate:
    """Certifies that the curvature of (g, levi_civita(g)) vanishes."""
    entries = curvature_entries(g.g, levi_civita(g).gamma)
    return reports.residual_certificate(
        "flatness", ((f"curvature entry {index_label(idx)}", val) for idx, val in entries)
    )


# ---------------------------------------------------------------------------
# Lie derivatives
# ---------------------------------------------------------------------------


def lie_derivative(xs: list[QPoly], tensor, rank: int, lower: int = 0):
    """L_X, for X with the components ``xs``, of a rank-``rank`` tensor given
    as nested lists, its first ``lower`` indices lower (the bracket [X, Y] is
    L_X Y):

        L_X T = X^s d_s T + sum_lower T_{..s..} d_k X^s - sum_upper T^{..s..} d_s X^i.

    Each entry is one ``dot``, the transport pairs first and then each
    slot's in slot order; entries may be QPoly or RatFunc."""
    n, nvars = len(xs), xs[0].nvars
    dx = [[c.diff(s) for s in range(n)] for c in xs]

    def entry(idx):
        plus = [(xs[s], reduce(getitem, idx, tensor).diff(s)) for s in range(n)]
        minus = []
        for slot, i in enumerate(idx):
            moved = [reduce(getitem, idx[:slot] + (s,) + idx[slot + 1 :], tensor) for s in range(n)]
            if slot < lower:
                plus += [(moved[s], dx[s][i]) for s in range(n)]
            else:
                minus += [(moved[s], dx[i][s]) for s in range(n)]
        return dot(nvars, plus, minus)

    def build(idx):
        return entry(idx) if len(idx) == rank else [build(idx + (i,)) for i in range(n)]

    return build(())


# ---------------------------------------------------------------------------
# Raising and lowering an index
# ---------------------------------------------------------------------------


def contract(matrix, tensor, slot: int, nvars: int):
    """The index at ``slot`` of a tensor given as nested lists contracted
    with a constant matrix, out[..a..] = sum_l matrix[a][l] tensor[..l..]:
    with eta^{-1} it raises that index (the paper's (0.7)), with eta it
    lowers it.  Each entry is one ``dot`` over the nonzero entries of
    matrix[a]; the tensor's entries may be QPoly or rationals."""
    if slot:
        return [contract(matrix, sub, slot - 1, nvars) for sub in tensor]
    return [_combine([(l, c) for l, c in enumerate(row) if c], tensor, nvars) for row in matrix]


def _combine(pairs, subs, nvars: int):
    """sum c * subs[l] over pairs (l, c), entry by entry."""
    if not isinstance(subs[0], list):
        return dot(nvars, [(subs[l], c) for l, c in pairs])
    return [_combine(pairs, [sub[i] for sub in subs], nvars) for i in range(len(subs[0]))]


# ---------------------------------------------------------------------------
# Jets and closedness
# ---------------------------------------------------------------------------


def jet(h: QPoly) -> tuple[list[QPoly], list[list[QPoly]]]:
    """The gradient d_e h and the Hessian d_g d_e h, indexed [e] and [e][g].

    Partial derivatives commute, so d_g d_e h is taken for e <= g only and
    the same object fills its mirror entry.
    """
    n = h.nvars
    grad = [h.diff(e) for e in range(n)]
    hessian: list[list[QPoly]] = [[None] * n for _e in range(n)]
    for e in range(n):
        for g in range(e, n):
            hessian[e][g] = hessian[g][e] = grad[e].diff(g)
    return grad, hessian


def require_closed(tensor, what: str) -> None:
    """Raise IntegrabilityError("<what> (lead...,i,j)"), 1-based, at the
    first (lead..., i, j), i < j, in index order where d_j T[lead...][i] !=
    d_i T[lead...][j]: each row of the nested lists T must be a gradient."""
    rows = [((), tensor)]
    while isinstance(rows[0][1][0], list):
        rows = [(lead + (a,), sub) for lead, row in rows for a, sub in enumerate(row)]
    for lead, row in rows:
        n = len(row)
        for i in range(n):
            for j in range(i + 1, n):
                if row[i].diff(j) != row[j].diff(i):
                    raise IntegrabilityError(f"{what} {index_label(lead + (i, j))}")


# ---------------------------------------------------------------------------
# Coordinate changes
# ---------------------------------------------------------------------------


def linear_forms(matrix: list[list[Q]]) -> list[QPoly]:
    """The rows of a constant matrix as linear forms sum_b matrix[a][b] t^b."""
    nvars = len(matrix[0])
    return [dot(nvars, [(QPoly.var(nvars, b), c) for b, c in enumerate(row)]) for row in matrix]


def push_metric(g: ContraMetric, new_coords: list[QPoly], old_in_new: list[QPoly]) -> ContraMetric:
    """The metric in the coordinates y^a = new_coords[a](x):

        g'^{ab}(y) = (d_i y^a g^{ij} d_j y^b)(x(y)),

    with x^i = old_in_new[i](y).  This is the only place where a tensor
    meets the Jacobian of a change of coordinates: a pencil's E and e are
    g1 grad(tau) and g2 grad(tau) of the moved pencil.
    """
    n = g.n
    jac = [[y.diff(i) for i in range(n)] for y in new_coords]
    nvars = g.nvars
    left = [[dot(nvars, [(jac[a][i], g.g[i][j]) for i in range(n)]) for j in range(n)] for a in range(n)]
    out = [[None] * n for _a in range(n)]
    for a in range(n):
        for b in range(a, n):
            entry = dot(nvars, zip(left[a], jac[b]))
            out[a][b] = out[b][a] = entry.substitute(old_in_new)
    return ContraMetric(out)


# ---------------------------------------------------------------------------
# Pencil certification
# ---------------------------------------------------------------------------


def check_flat_pencil(p: PencilData) -> Report:
    """Certify the three flat-pencil conditions.

    The parameter lam is adjoined as one extra polynomial variable; the
    combined connection G1 - lam*G2 is formed from the two connections
    computed separately, so its linearity in lam is a certified claim.
    The symmetry and curvature residuals are expanded in powers of lam and
    every coefficient tensor must vanish identically.  Two conditions need
    no expansion.  det(g1 - lam*g2) has lam^n coefficient (-1)^n det g2,
    which is checked nonzero first, so the determinant certificate passes;
    det g2 and det g1 are proved nonzero by their values at one rational
    point, and expanded only when a value is zero.  G1 is read through
    ``p.g1_connection``, so it is the closed-form flat-coordinate candidate
    when that applies.
    G1 and G2 satisfy metricity for g1 and g2 by construction, so
    G1 - lam*G2 does for g1 - lam*g2, and that certificate passes too.  The
    curvature residual is the j < k half: under metricity, and with no
    denominator holding lam, an entry with j > k has a nonzero power of lam
    only where its earlier mirror does.  A passing report sets
    ``p.flat_certified``, the precondition of the inverse construction,
    whose difference-tensor certificates are the lam coefficients of this
    report.
    """
    n = p.n
    nvars = p.g1.nvars
    if p.g2.is_degenerate():
        raise SingularMetricError("second metric is degenerate")
    if p.g1.is_degenerate():
        raise SingularMetricError("first metric is degenerate")
    conn1 = p.g1_connection
    conn2 = levi_civita(p.g2)

    big = nvars + 1  # trailing variable is lam
    # X - lam*Y is summed as X + (-lam)*Y, which RatFunc's reflected + takes
    # when only G2 holds fractions (QPoly - RatFunc has no operator).
    minus_lam = -QPoly.var(big, nvars)
    g_l = [[p.g1.g[i][j].lift(big) + minus_lam * p.g2.g[i][j].lift(big) for j in range(n)] for i in range(n)]
    gamma_l = [
        [
            [conn1.gamma[k][i][j].lift(big) + minus_lam * conn2.gamma[k][i][j].lift(big) for j in range(n)]
            for i in range(n)
        ]
        for k in range(n)
    ]

    report = Report()
    report.add(Certificate("pencil-determinant", reports.PASS))
    report.add(
        reports.residual_certificate(
            "pencil-connection-symmetry",
            _lam_coefficients(symmetry_residuals(g_l, gamma_l, n), nvars),
        )
    )
    report.add(Certificate("pencil-connection-metricity", reports.PASS))

    curv = curvature_entries(g_l, gamma_l)
    report.add(reports.residual_certificate("pencil-curvature", _lam_coefficients(curv, nvars)))
    if report.passed:
        p.flat_certified = True
    return report


def _lam_coefficients(residuals, lam_axis: int):
    """The coefficients of each residual's numerator in powers of lam,
    labelled by entry and power."""
    for idx, res in residuals:
        for power, coeff in sorted(res.num.coeffs_by_power(lam_axis).items()):
            yield f"entry {index_label(idx)}, lam^{power}", coeff


def infer_degree(g1: ContraMetric, lie: list[list[QPoly]]) -> Q:
    """Infer d from lie = L_E g1 = (d-1) g1; raises when no constant ratio fits."""
    n = g1.n
    anchor = None
    for i in range(n):
        for j in range(n):
            if not g1.g[i][j].is_zero():
                anchor = (i, j)
                break
        if anchor:
            break
    if anchor is None:
        raise DegreeInferenceError("first metric is zero; no scaling degree exists")
    i, j = anchor
    ratio = exact_divide(lie[i][j], g1.g[i][j])
    if ratio is None or not ratio.is_constant():
        raise DegreeInferenceError(
            f"scaling ratio at entry {index_label((i, j))} is not a constant: "
            f"{RatFunc(lie[i][j], g1.g[i][j])}"
        )
    r = ratio.constant_value()
    for a in range(n):
        for b in range(n):
            if not (lie[a][b] - g1.g[a][b] * r).is_zero():
                raise DegreeInferenceError(
                    f"no rational degree satisfies the scaling identity; residual at "
                    f"entry {index_label((a, b))}: {lie[a][b] - g1.g[a][b] * r}"
                )
    return r + 1


def check_quasihomogeneous(p: PencilData) -> Report:
    """Certify the four scaling identities of the pencil's E, e and degree:

        [e, E] = e
        L_E g1 = (d - 1) g1
        L_e g1 = g2
        L_e g2 = 0

    A passing report sets ``p.quasihomogeneous_certified``.
    """
    e_big, e_small = p.euler
    d = p.degree
    report = Report()

    scaled_g1 = [[x * (d - 1) for x in row] for row in p.g1.g]
    report.add(reports.tensor_certificate("unity-commutator", lie_derivative(e_small, e_big, 1), e_small))
    report.add(reports.tensor_certificate("euler-scaling-first-metric", p.euler_lie_g1, scaled_g1))
    report.add(reports.tensor_certificate("unity-flow-first-metric", lie_derivative(e_small, p.g1.g, 2), p.g2.g))
    report.add(reports.tensor_certificate("unity-flow-second-metric", lie_derivative(e_small, p.g2.g, 2)))
    if report.passed:
        p.quasihomogeneous_certified = True
    return report

