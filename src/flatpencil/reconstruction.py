"""Inverse construction: from a quasihomogeneous flat pencil, presented in
flat coordinates of its second metric, back to the Frobenius structure.

Pipeline:  coordinate normalization (tau becomes the last flat coordinate),
which builds once the difference tensor and the constant operators
K, R = (d-1)/2 + K and Lam = (d-2)/2 + K with their rational spectrum, and
resolves d -> the four algebraic/differential identities of the difference
tensor -> multiplication of 1-forms u * v = Delta(u, w) + s u with
R w + s d(tau) = v (w = R^{-1} v and s = 0 when R is invertible; when R is
singular, its one-dimensional kernel spanned by d(tau) makes d(tau) the
unity) -> structure constants -> potential by one closed-form integration
of c_abc (``qpoly.primitive``) -> closing identity against the first metric
of the pencil.

The input must be a certified flat pencil (``geometry.check_flat_pencil``
passed on it): the identities of the difference tensor are coefficients in
lam of that certificate, so they are reported, not computed again, and the
construction refuses a pencil without the record.  Everything runs over
exact scalars; certificates are collected stage by stage into one report.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction

from . import frobenius as frob
from . import reports
from .errors import (
    CommutativityError,
    DegreeInferenceError,
    IntegrabilityError,
    InternalCheckError,
    KernelError,
    NonlinearEulerError,
    NormalizationError,
    OutOfRingError,
    TauHessianError,
)
from .frobenius import FrobeniusData
from .geometry import (
    PencilData,
    contract,
    jet,
    lie_derivative,
    linear_forms,
    push_metric,
    require_closed,
)
from .linalg import (
    charpoly,
    clear_denominators,
    identity_matrix,
    mat_inverse,
    mat_mul,
    nullspace,
    rank,
    rational_roots,
    solve_affine,
)
from .qpoly import QPoly, RatFunc, dot, primitive
from .reports import Certificate, Report, index_label

Q = Fraction

# Delta[k][i][j] = Delta_k^{ij}, the difference tensor of a pencil in flat
# coordinates of g2 (there it equals the connection of g1).
Delta = list[list[list[QPoly | RatFunc]]]


class Eigenspace:
    def __init__(self, value: Q, basis: list[list[Q]]):
        self.value = value
        self.basis = basis  # covector components


class OperatorPair:
    """Constant operators on covector components.

    k_op[i][j] = d_i E^j, so (K v)_i = sum_j k_op[i][j] v_j for a covector
    v; r_op = (d-1)/2 I + K and lam_op = (d-2)/2 I + K.  lam_op is
    skew-symmetric for the pairing eta^{ij}.
    """

    def __init__(
        self,
        k_op: list[list[Q]],
        r_op: list[list[Q]],
        lam_op: list[list[Q]],
        d: Q,
        spectrum: list[Eigenspace],
        certificates: list[Certificate] | None = None,
    ):
        self.k_op = k_op
        self.r_op = r_op
        self.lam_op = lam_op
        self.d = d
        self.spectrum = spectrum
        self.certificates = [] if certificates is None else certificates

    @property
    def n(self) -> int:
        return len(self.k_op)

    @cached_property
    def regular(self) -> bool:
        return rank(self.r_op) == self.n


class NormalizationResult:
    """The pencil in normalized flat coordinates, with d resolved, and what
    the rest of the construction reads of it, each built once."""

    def __init__(
        self,
        pencil: PencilData,
        matrix: list[list[Q]],
        delta: Delta,
        ops: OperatorPair,
        certificates: list[Certificate] | None = None,
    ):
        self.pencil = pencil
        self.matrix = matrix  # t_new = matrix . t_old
        self.delta = delta
        self.ops = ops
        self.certificates = [] if certificates is None else certificates


class ReconstructionResult:
    """The recovered structure; its potential and structure constants are
    those of ``frobenius``."""

    def __init__(
        self,
        frobenius: FrobeniusData,
        mode: str,
        change: list[list[Q]],
        report: Report | None = None,
    ):
        self.frobenius = frobenius
        self.mode = mode  # "regular" or "d1-remark"
        self.change = change  # composite linear change, t_final = change . t_input
        self.report = Report() if report is None else report


# ---------------------------------------------------------------------------
# Difference tensor
# ---------------------------------------------------------------------------


def delta_tensor(p: PencilData) -> Delta:
    """Delta_k^{ij} = G1_k^{ij} - G2_k^{ij}.  p.eta_up verifies that g2 is
    constant, so G2 = 0 and Delta is the connection of g1, read through
    ``p.g1_connection``."""
    p.eta_up
    return p.g1_connection.gamma


def check_delta_properties(norm: NormalizationResult) -> Report:
    """The flat-pencil identities of the difference tensor ``norm.delta``
    (:func:`delta_tensor`) of a certified flat pencil, and its two scaling
    identities:

        g1-pairing symmetry, g2-pairing symmetry,
        right-symmetry  Delta(Delta(u,v),w) = Delta(Delta(u,w),v),
        curl            d_s Delta_l^{jk} = d_l Delta_s^{jk},
        L_E Delta = (d-1) Delta,   L_e Delta = 0.

    The pencil must carry the record that :func:`check_flat_pencil` passed;
    every identity but L_e Delta = 0 is then a PASS line, for the reason
    noted at it, and so is L_e Delta = 0 when ``check_quasihomogeneous``
    passed on the pencil too.  A pencil without the flat-pencil record
    raises InternalCheckError.
    """
    q = norm.pencil
    if not q.flat_certified:
        raise InternalCheckError("inverse construction reached a pencil that check_flat_pencil has not certified")
    report = Report()
    # Delta is the connection of g1, whose build verified exactly the
    # g1-pairing symmetry residuals.
    report.add(Certificate("delta-g1-symmetry", reports.PASS))
    # g2 is constant, so G2 = 0, Delta = G1 and the certified residuals of
    # (g1 - lam eta, G1) have a lam^0 and a lam^1 coefficient.  Symmetry at
    # lam^1 is minus the g2-pairing symmetry.  Curvature at lam^1 is
    # -eta^{is} (d_s Delta_l^{jk} - d_l Delta_s^{jk}) for j < k; eta is
    # nondegenerate, and metricity makes the curl antisymmetric in (j, k),
    # so every curl entry vanishes.  Curvature at lam^0 is then its
    # quadratic part alone, minus the right-symmetry residual on the same
    # index set.
    for name in ("delta-g2-symmetry", "delta-right-symmetry", "delta-curl"):
        report.add(Certificate(name, reports.PASS))
    # Normalization verified that E is affine (operator_pair) and that
    # L_E g1 = (d-1) g1 (infer_degree).  The contravariant Levi-Civita
    # connection is natural and homogeneous of degree one in g, and the flow
    # of an affine E moves G2 = 0 to zero, so L_E Delta = (d-1) Delta.
    report.add(Certificate("delta-euler-scaling", reports.PASS))
    if q.quasihomogeneous_certified:
        # e = eta grad(tau) is constant, so its flow is a translation, which
        # moves the connection of a metric to that of the moved metric:
        # L_e G(g1) = DG_{g1}[L_e g1] = DG_{g1}[g2] by the certified
        # L_e g1 = g2, and that is G2 by the certified linearity
        # G(g1 - lam g2) = G1 - lam G2.  G2 = 0, so L_e Delta = 0.
        report.add(Certificate("delta-unity-invariance", reports.PASS))
        return report
    lie_u = lie_derivative(q.euler[1], norm.delta, 3, lower=1)
    report.add(reports.tensor_certificate("delta-unity-invariance", lie_u))
    return report


# ---------------------------------------------------------------------------
# Constant operators
# ---------------------------------------------------------------------------


def operator_pair(p: PencilData) -> OperatorPair:
    """K = dE, R = (d-1)/2 + K, Lam = (d-2)/2 + K, with exact spectrum.

    The pencil carries an affine-linear tau (`normalize_flat_coordinates`
    raises otherwise).  Verifies that E is affine-linear, the skew-symmetry
    of Lam for the eta-pairing, and that the gradient of tau is a
    K-eigencovector with eigenvalue 1 - d.  e = g2 grad(tau) is constant
    because both factors are, so the unity-constant certificate passes
    unrecomputed.

    The checks run on D Lam and D' eta cleared of denominators: scaling
    changes no zero test, and D Lam has the integer roots D lam (its
    characteristic polynomial is monic over Z) and the root spaces of Lam,
    with the same reduced bases.  The fields and the spectrum are Fractions.
    """
    eta = clear_denominators(p.eta_up)[0]
    n = p.n
    e_big = p.euler[0]
    for a in range(n):
        for b in range(n):
            if not e_big[a].diff(b).is_constant():
                raise NonlinearEulerError(
                    f"Euler component {a + 1} is not affine-linear in t{b + 1}"
                )
    d = p.degree
    k_op = [
        [e_big[j].diff(i).constant_value() for j in range(n)] for i in range(n)
    ]
    r_op = [[k_op[i][j] + (Q(d - 1) / 2 if i == j else 0) for j in range(n)] for i in range(n)]
    lam_op = [[k_op[i][j] + (Q(d - 2) / 2 if i == j else 0) for j in range(n)] for i in range(n)]
    lam, den = clear_denominators(lam_op)

    certs: list[Certificate] = []
    # M = Lam^T eta; eta is symmetric, so eta Lam = M^T and the skew-symmetry
    # Lam^T eta + eta Lam = 0 reads M + M^T = 0.
    m = mat_mul(list(zip(*lam)), eta)
    skew_ok = all(m[i][j] + m[j][i] == 0 for i in range(n) for j in range(i, n))
    certs.append(reports.verdict("lambda-skew-symmetry", skew_ok))
    certs.append(Certificate("unity-constant", reports.PASS))
    # K dtau = (1-d) dtau reads Lam dtau = -d/2 dtau; times 2 D and the
    # denominators of d and dtau, on integers.
    dtau = clear_denominators([[p.tau.diff(a).constant_value() for a in range(n)]])[0][0]
    eig_ok = all(
        2 * d.denominator * sum(lam[i][j] * dtau[j] for j in range(n)) == -d.numerator * den * dtau[i] for i in range(n)
    )
    certs.append(reports.verdict("tau-gradient-eigencovector", eig_ok))

    roots, residual_degree = rational_roots(charpoly(lam))
    spectrum = []
    for z, mult in roots:
        if z.denominator != 1:
            raise InternalCheckError(f"D Lam has the non-integer eigenvalue {z}")
        shifted = [[lam[i][j] - (z.numerator if i == j else 0) for j in range(n)] for i in range(n)]
        power = shifted
        for _ in range(mult - 1):
            power = mat_mul(power, shifted)
        spectrum.append(Eigenspace(value=z / den, basis=nullspace(power)))
    certs.append(_root_pairing_certificate(spectrum, residual_degree == 0, eta))
    return OperatorPair(
        k_op=k_op,
        r_op=r_op,
        lam_op=lam_op,
        d=d,
        spectrum=spectrum,
        certificates=certs,
    )


def _root_pairing_certificate(spectrum: list[Eigenspace], complete: bool, eta) -> Certificate:
    """Root subspaces at values lam, mu are eta-orthogonal when lam+mu != 0,
    and the pairing of opposite root subspaces has full rank.  Skipped (never
    approximated) when the characteristic polynomial does not split over Q.

    ``eta`` is eta^{ij} times a positive integer, and each Gram matrix pairs
    the bases with their denominators cleared: a nonzero scaling of rows and
    columns changes neither a zero test nor a rank.
    """
    if not complete:
        return reports.skipped("root-space-pairing", "irrational spectrum")
    bases = [clear_denominators(s.basis)[0] for s in spectrum]
    # the eta-image of each basis vector, formed once
    images = [mat_mul(basis, eta) for basis in bases]
    for s1, left in zip(spectrum, images):
        for s2, basis in zip(spectrum, bases):
            gram = [[sum(x * y for x, y in zip(image, v)) for v in basis] for image in left]
            if s1.value + s2.value != 0:
                if any(x != 0 for row in gram for x in row):
                    return Certificate(
                        "root-space-pairing",
                        reports.FAIL,
                        witness=f"subspaces at {s1.value} and {s2.value} are not orthogonal",
                    )
            elif rank(gram) != len(s1.basis) or len(s1.basis) != len(s2.basis):
                return Certificate(
                    "root-space-pairing",
                    reports.FAIL,
                    witness=f"pairing of subspaces at +/-{s1.value} is degenerate",
                )
    return Certificate("root-space-pairing", reports.PASS)


# ---------------------------------------------------------------------------
# Coordinate normalization
# ---------------------------------------------------------------------------


def normalize_flat_coordinates(p: PencilData) -> NormalizationResult:
    """Affine-linear change of flat coordinates making tau the last one.

    After the change, tau = t^n (constant dropped), so E^a = g1^{an} and
    e^a = eta^{an} hold by the definition E = g1 grad(tau), e = g2 grad(tau);
    the normalized-euler-column certificate passes unrecomputed.  The slices
    of the difference tensor

        Delta_b^{an} = (1-d)/2 delta^a_b
        Delta_b^{na} = (d-1)/2 delta^a_b + d_b E^a

    are certified on the result.  d is inferred from L_E g1 = (d-1) g1, and a
    declared d must equal it; the result carries the difference tensor, the
    operator pair and the pencil.
    """
    p.eta_up
    n = p.n
    if p.tau is None:
        raise ValueError("pencil carries no scaling potential tau")
    grad = []
    for a in range(n):
        da = p.tau.diff(a)
        if not da.is_constant():
            raise TauHessianError("tau is not affine-linear")
        grad.append(da.constant_value())
    if all(x == 0 for x in grad):
        raise NormalizationError("tau is constant; no normalization exists")

    tau_const = p.tau.coefficient((0,) * n)
    if grad == [Q(0)] * (n - 1) + [Q(1)] and tau_const == 0:
        q, matrix = p, identity_matrix(n)
    else:
        # The unit rows at every axis but the last one where grad(tau) is
        # nonzero complete it to a basis: the determinant is +-that entry.
        last = max(i for i, x in enumerate(grad) if x)
        matrix = [row for i, row in enumerate(identity_matrix(n)) if i != last] + [grad]
        q = transform_pencil(p, matrix, tau=QPoly.var(n, n - 1))

    d = q.inferred_degree
    if p.d is not None and p.d != d:
        raise DegreeInferenceError(
            f"declared d = {p.d} does not satisfy L_E g1 = (d-1) g1, which gives d = {d}"
        )
    certs = [Certificate("normalized-euler-column", reports.PASS)]
    delta = delta_tensor(q)
    ops = operator_pair(q)
    half = Q(1 - d) / 2
    shift = [[half if a == b else 0 for a in range(n)] for b in range(n)]
    column = [[delta[b][a][n - 1] for a in range(n)] for b in range(n)]
    certs.append(reports.tensor_certificate("normalized-delta-last-column", column, shift))
    row = [delta[b][n - 1] for b in range(n)]
    k_minus_shift = [[ops.k_op[b][a] - shift[b][a] for a in range(n)] for b in range(n)]
    certs.append(reports.tensor_certificate("normalized-delta-last-row", row, k_minus_shift))
    return NormalizationResult(q, matrix, delta, ops, certs)


def transform_pencil(p: PencilData, matrix: list[list[Q]], tau: QPoly | None = None) -> PencilData:
    """Apply the linear coordinate change t_new = matrix . t_old.  ``tau``,
    when given, stands in for p's tau in the new coordinates, from which it
    may differ only by a constant.  The flat-pencil and scaling conditions
    are tensorial, so the new pencil carries the records that they were
    certified over, with d."""
    new_coords = linear_forms(matrix)
    old_in_new = linear_forms(mat_inverse(matrix))
    if tau is None and p.tau is not None:
        tau = p.tau.substitute(old_in_new)
    return PencilData(
        push_metric(p.g1, new_coords, old_in_new),
        push_metric(p.g2, new_coords, old_in_new),
        tau,
        p.d,
        p.flat_certified,
        p.quasihomogeneous_certified,
    )


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------


def multiplication(norm: NormalizationResult) -> tuple[list, list, Report]:
    """u * v = Delta(u, w) + s u on covectors, where R w + s dtau = v;
    structure constants from the coordinate 1-forms, returned as c_abc and
    c^{ab}_c with the report.  Delta is ``norm.delta``, the connection of
    g1.

    When R is invertible, w = R^{-1} v and s = 0.  When R is singular (the
    d = 1 remark), the root subspace of Lam at -1/2 and ker R must be
    one-dimensional and spanned by dtau, and Delta(., dtau) must vanish so
    the choice of w along ker R cannot leak into the product; dtau is then
    the unity.  Certifies commutativity, associativity, the unity role of
    the last coordinate 1-form and, for invertible R, the pairing-derivative
    identity u*R(v) + R(u)*v = d(u, v); for singular R, dtau * v = v.  The
    pairing-derivative identity is a PASS line: with commutativity it is
    metricity, which the connection holds by its build.
    """
    p, ops, delta = norm.pencil, norm.ops, norm.delta
    n = p.n
    dtau = [p.tau.diff(a).constant_value() for a in range(n)]
    if not ops.regular:
        half_space = next((s for s in ops.spectrum if s.value == Q(-1, 2)), None)
        kdim = len(half_space.basis) if half_space else 0
        if kdim != 1:
            raise KernelError(
                f"root subspace of Lam at -1/2 has dimension {kdim}, need exactly 1"
            )
        # R = Lam + 1/2 is singular here, so 1 <= dim ker R <= kdim = 1.
        direction = half_space.basis[0]
        scale = next((dtau[i] / direction[i] for i in range(n) if direction[i]), None)
        if scale is None or any(dtau[i] != scale * direction[i] for i in range(n)):
            raise KernelError("ker R is not spanned by the gradient of tau")
        for g in range(n):
            for a in range(n):
                val = dot(p.g1.nvars, zip(delta[g][a], dtau))
                if not val.is_zero():
                    raise KernelError(
                        f"Delta(., dtau) is nonzero at entry ({g + 1},{a + 1}); "
                        "degenerate multiplication undefined"
                    )

    system = [row + [dtau[i]] for i, row in enumerate(ops.r_op)]
    solutions = [solve_affine(system, [Q(1) if i == b else Q(0) for i in range(n)])[0] for b in range(n)]
    c_raw = [[[None] * n for _ in range(n)] for _ in range(n)]
    nvars = p.g1.nvars
    for b, sol in enumerate(solutions):
        w, s_coef = sol[:n], sol[n]
        for a in range(n):
            for g in range(n):
                # With w = 0 no fraction of delta enters, so the entry stays a QPoly.
                pairs = list(zip(delta[g][a], w)) if any(w) else []
                if a == g:
                    pairs.append((s_coef, 1))
                c_raw[a][b][g] = dot(nvars, pairs)

    report = Report()
    for a in range(n):
        for b in range(a + 1, n):
            for g in range(n):
                # An entry with w = 0 is a QPoly, its mirror may be a RatFunc.
                res = dot(nvars, [(c_raw[a][b][g], 1)], [(c_raw[b][a][g], 1)])
                if not res.is_zero():
                    raise CommutativityError(
                        f"dt{a + 1} * dt{b + 1} differs from dt{b + 1} * dt{a + 1} "
                        f"in component {g + 1}: residual {res}"
                    )
    report.add(Certificate("multiplication-commutativity", reports.PASS))

    # Entry (b, a, g, mu) is minus entry (a, b, g, mu) and (a, a, g, mu) is
    # zero, so the a < b half holds the first nonzero entry of the full sweep.
    def assoc():
        for a in range(n):
            for b in range(a + 1, n):
                for g in range(n):
                    for mu in range(n):
                        plus = [(c_raw[a][e][mu], c_raw[b][g][e]) for e in range(n)]
                        minus = [(c_raw[b][e][mu], c_raw[a][g][e]) for e in range(n)]
                        yield f"entry {index_label((a, b, g, mu))}", dot(nvars, plus, minus)

    unit = identity_matrix(n)
    report.add(reports.residual_certificate("multiplication-associativity", assoc()))
    report.add(reports.tensor_certificate("multiplication-unity", [c_raw[a][n - 1] for a in range(n)], unit))
    lam_dtau_ok = all(
        ops.lam_op[i][n - 1] == (-ops.d / 2 if i == n - 1 else 0) for i in range(n)
    )
    report.add(reports.verdict("unity-lambda-eigenvalue", lam_dtau_ok, "Lam dtau != -d/2 dtau"))

    if ops.regular:
        # Delta is the connection of g1.  w_b = R^{-1} e_b exactly, so
        # sum_i w_i[j] R[i][a] = delta_ja, and commutativity turns
        # sum_ij Delta_g^{ij} R[i][a] w_b[j] into Delta_g^{ba}.  The residual
        # is then Delta_g^{ab} + Delta_g^{ba} - d_g g1^{ab}, the metricity
        # that the connection holds by its build.
        report.add(Certificate("pairing-derivative-identity", reports.PASS))
    else:
        report.add(
            reports.skipped("pairing-derivative-identity", "R singular; identity used sliced")
        )
        # Left unity: d(tau) * v = v, from Delta(dtau, v) = R(v).
        report.add(reports.tensor_certificate("multiplication-left-unity", c_raw[n - 1], unit))
    c_mixed = _to_poly(c_raw)
    c_low = contract(p.eta_cov, contract(p.eta_cov, c_mixed, 0, nvars), 1, nvars)
    return c_low, c_mixed, report


def _to_poly(c_raw):
    n = len(c_raw)
    try:
        return [[[c_raw[a][b][g].as_poly() for g in range(n)] for b in range(n)] for a in range(n)]
    except OutOfRingError as exc:
        raise OutOfRingError(
            "structure constants are not polynomial; potential recovery is outside the ring"
        ) from exc


# ---------------------------------------------------------------------------
# Potential recovery
# ---------------------------------------------------------------------------


def recover_potential(c_low: list[list[list[QPoly]]]) -> tuple[QPoly, list[QPoly], list[list[QPoly]]]:
    """Integrate fully symmetric c_abc three times: d_a d_b d_c F = c_abc.

    Verifies full symmetry of c first, then takes F from ``qpoly.primitive``
    in one pass, with the quadratic-and-lower polynomial part fixed to zero,
    and verifies it by resubstitution through its jet (``geometry.jet``),
    d_c d_b d_a F = c_abc for a <= b <= c: c and d^3 F are both symmetric.
    A passing resubstitution proves c closed (the integrability condition),
    so closedness is tested only when integration raises OutOfRingError or
    resubstitution fails, and a c that is not closed is reported as
    non-integrability; otherwise the error is re-raised (InternalCheckError
    for a failed resubstitution).  Returns F with the gradient and Hessian
    of that verified jet.
    """
    n = len(c_low)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for (x, y, z) in ((b, a, c), (a, c, b)):
                    if c_low[a][b][c] != c_low[x][y][z]:
                        raise IntegrabilityError(
                            f"c is not symmetric at indices ({a + 1},{b + 1},{c + 1})"
                        )
    try:
        f = primitive(c_low, 3)
        grad, hessian = jet(f)
        if any(hessian[a][b].diff(c) != c_low[a][b][c] for a in range(n) for b in range(a, n) for c in range(b, n)):
            raise InternalCheckError("recovered potential fails to differentiate back")
    except (OutOfRingError, InternalCheckError):
        require_closed(c_low, "gradient of c is not symmetric at indices")
        raise
    return f, grad, hessian


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


def reconstruct_frobenius(p: PencilData) -> ReconstructionResult:
    """Run the whole inverse construction and certify the closing identity
    that the intersection form of the result equals the first metric.

    ``p`` must be a certified flat pencil: :func:`check_flat_pencil` passed
    on it, so the difference-tensor identities are PASS lines (see
    :func:`check_delta_properties`), which raises InternalCheckError on a
    pencil without that record.  When the product passed its
    associativity certificate, WDVV of the recovered potential is a PASS
    line too; otherwise ``check_wdvv`` computes it.  When the unity
    presentation is the identity, the result's FrobeniusData takes the
    verified jet of the potential (gradient, Hessian, c_abc) and the
    product's raised form instead of deriving them from the potential
    again."""
    report = Report()
    norm = normalize_flat_coordinates(p)
    report.extend(norm.certificates)
    q, ops = norm.pencil, norm.ops
    n = q.n

    report.extend(check_delta_properties(norm).certificates)
    report.extend(ops.certificates)

    c_low, c_mixed, mult_report = multiplication(norm)
    mode = "regular" if ops.regular else "d1-remark"
    report.extend(mult_report.certificates)

    potential, gradient, hessian = recover_potential(c_low)

    # Present the unity field as a coordinate direction.
    e_comps = [c.constant_value() for c in q.euler[1]]
    pres_matrix, unity_index = _unity_presentation_matrix(e_comps)
    q_final = q
    if pres_matrix != identity_matrix(n):
        q_final = transform_pencil(q, pres_matrix)
        potential = potential.substitute(linear_forms(mat_inverse(pres_matrix)))
        potential = potential - potential.poly_part_degree_at_most(2)
    # E = g1 grad(tau) is a vector field, so the moved pencil's E is the pushed one.
    e_big = q_final.euler[0]

    k_lin = [[e_big[a].diff(b).constant_value() for b in range(n)] for a in range(n)]
    e_const = [e_big[a].coefficient((0,) * n) for a in range(n)]
    frob_data = FrobeniusData(
        n=n,
        eta=q_final.eta_cov,
        potential=potential,
        euler_linear=k_lin,
        euler_const=e_const,
        unity=unity_index,
        d=ops.d,
    )

    if q_final is q:
        # recover_potential verified its jet of F up to d^3 F = c_low, the
        # eta-lowering of c_mixed with this pencil's eta, so the product
        # raises back to it.
        frob_data.gradient, frob_data.hessian = gradient, hessian
        frob_data.c_low, frob_data.c_mixed = c_low, c_mixed
    frob_data.unity_axiom
    if mult_report.find("multiplication-associativity").passed:
        # d^3 F equals c_low, the eta-lowering of the certified associative
        # product (recover_potential verified both), and WDVV is tensorial
        # under the linear unity presentation.
        report.add(Certificate("wdvv-associativity", reports.PASS))
    else:
        report.add(frob_data.wdvv)
    closing = frob.intersection_form(frob_data)
    for a in range(n):
        for b in range(n):
            if not (closing.g[a][b] - q_final.g1.g[a][b]).is_zero():
                raise InternalCheckError(
                    f"closing identity fails at entry ({a + 1},{b + 1}): "
                    f"{closing.g[a][b] - q_final.g1.g[a][b]}"
                )
    report.add(Certificate("closing-intersection-form", reports.PASS))

    rows, den = clear_denominators(pres_matrix + norm.matrix)
    composite = [[Q(x, den * den) for x in row] for row in mat_mul(rows[:n], rows[n:])]
    return ReconstructionResult(frobenius=frob_data, mode=mode, change=composite, report=report)


def _unity_presentation_matrix(e_comps: list[Q]):
    """A linear change making the constant vector e a coordinate direction:
    the identity with column u, the first nonzero index of e, replaced by
    -e / e_u and then entry (u, u) by 1 / e_u, so that it maps e to the unit
    vector at u.  A unit e gives the identity.

    In normalized coordinates e is column n of the nondegenerate eta, so it
    is never zero."""
    u = next(i for i, v in enumerate(e_comps) if v)
    scale = Q(1) / e_comps[u]
    matrix = identity_matrix(len(e_comps))
    for row, v in zip(matrix, e_comps):
        row[u] = -v * scale
    matrix[u][u] = scale
    return matrix, u
