import functools
import json
import random
from fractions import Fraction as Q

import pytest

from flatpencil import frobenius, reconstruction
from flatpencil.coxeter import coxeter_pencil
from flatpencil.errors import (
    CommutativityError,
    DegreeInferenceError,
    IntegrabilityError,
    InternalCheckError,
    KernelError,
    NonlinearEulerError,
    NotFlatCoordinatesError,
    OutOfRingError,
)
from flatpencil.exprparse import parse_expr
from flatpencil.frobenius import check_unity, check_wdvv, to_flat_pencil
from flatpencil.geometry import (
    ContraMetric,
    PencilData,
    check_flat_pencil,
    check_quasihomogeneous,
    linear_forms,
    symmetry_residuals,
)
from flatpencil.linalg import charpoly, identity_matrix, mat_inverse, mat_mul, rank, rational_roots
from flatpencil.loopspace import bracket_from_metric
from flatpencil.pencilio import load_frobenius, load_pencil
from flatpencil.qpoly import QPoly, RatFunc, dot, exact_divide
from flatpencil.reconstruction import (
    NormalizationResult,
    check_delta_properties,
    delta_tensor,
    multiplication,
    normalize_flat_coordinates,
    operator_pair,
    recover_potential,
    reconstruct_frobenius,
    transform_pencil,
)
from flatpencil.reports import Certificate
import elimination_oracle
from frobenius_oracle import delta_identity_residuals, pairing_derivative_residuals, unity_invariance_residuals
from test_golden_output import DENSE_A2, SCALED_CP1, SHEAR_A3, SOURCES


def qp(text, n):
    return parse_expr(text, n)


def certified(p):
    """``p``, after a passing flat-pencil certificate set its record."""
    assert check_flat_pencil(p).passed and p.flat_certified
    return p


def test_delta_one_dim(cubic_pencil):
    delta = delta_tensor(cubic_pencil)
    assert delta[0][0][0].as_poly() == QPoly.const(1, Q(1, 2))


def test_delta_both_constant_vanishes():
    eta = ContraMetric.constant([[Q(0), Q(1)], [Q(1), Q(0)]])
    g1 = ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])
    delta = delta_tensor(PencilData(g1=g1, g2=eta))
    assert all(
        delta[k][i][j].is_zero() for k in range(2) for i in range(2) for j in range(2)
    )


def test_delta_requires_flat_coordinates():
    g2 = ContraMetric([[qp("t1", 1)]])
    with pytest.raises(NotFlatCoordinatesError):
        delta_tensor(PencilData(g1=g2, g2=g2))


def test_delta_properties_pass(cubic_pencil, a2):
    assert check_delta_properties(normalize_flat_coordinates(certified(cubic_pencil))).passed
    bundle, _recon = a2
    report = check_delta_properties(normalize_flat_coordinates(bundle.pencil))
    assert report.passed
    # scaling identities certified exactly, not skipped
    assert report.find("delta-euler-scaling").status == "pass"
    assert report.find("delta-unity-invariance").status == "pass"


def test_delta_of_orbit_pencil_is_qpoly(a3):
    bundle, _recon = a3
    delta = delta_tensor(bundle.pencil)
    assert all(type(x) is QPoly for k in delta for row in k for x in row)


def test_delta_mutation_breaks_curl(a2):
    # t1 added to g1^{11} of the A2 orbit pencil: g1 is still a metric with a
    # verified connection, but the pair is no longer a flat pencil.  The
    # failed flat-pencil certificate leaves the record unset, so the
    # difference-tensor identities of the mutated pencil are never reported:
    # check_delta_properties refuses it as a toolkit bug.
    bundle, _recon = a2
    p = bundle.pencil
    g1 = ContraMetric(
        [[x + (qp("t1", 2) if i == j == 0 else 0) for j, x in enumerate(row)] for i, row in enumerate(p.g1.g)]
    )
    mutated = PencilData(g1=g1, g2=p.g2, tau=p.tau, d=p.d)
    report = check_flat_pencil(mutated)
    assert not report.find("pencil-curvature").passed
    assert not mutated.flat_certified
    norm = normalize_flat_coordinates(p)
    norm = NormalizationResult(mutated, norm.matrix, delta_tensor(mutated), norm.ops, norm.certificates)
    with pytest.raises(InternalCheckError, match="check_flat_pencil has not certified"):
        check_delta_properties(norm)


def test_delta_properties_on_non_polynomial_connection():
    g1 = ContraMetric(
        [[qp(x, 2) for x in row] for row in [["t1^2+t2+3/2*t1*t2", "2*t1+t2^2"], ["2*t1+t2^2", "t1*t2+1"]]]
    )
    g2 = ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])
    pencil = PencilData(g1=g1, g2=g2, tau=qp("t2", 2), d=Q(1, 2))
    delta = delta_tensor(pencil)
    assert not all(exact_divide(x.num, x.den) is not None for k in delta for row in k for x in row)
    assert all(isinstance(x, RatFunc) and x.den == g1.det for k in delta for row in k for x in row)


GUARANTEE_INPUTS = ["a1", "a2", "a3", "cp1", "a2-dense", "a2-sheared", "cubic"] + [
    f"coxeter-a{r}" for r in range(1, 5)
]


@functools.cache
def guarantee_input(name):
    if name == "a2-dense":
        return load_pencil(json.dumps(DENSE_A2))[0]
    if name == "a2-sheared":
        a2 = load_pencil((SOURCES / "a2-pencil.json").read_text(encoding="utf-8"))[0]
        return transform_pencil(a2, [[Q(1), Q(2)], [Q(3), Q(7)]])
    if name == "cubic":
        return to_flat_pencil(load_frobenius((SOURCES / "cubic-frobenius.json").read_text(encoding="utf-8")))
    if name.startswith("coxeter-a"):
        return coxeter_pencil(int(name[-1]))[0].pencil
    return load_pencil((SOURCES / f"{name}-pencil.json").read_text(encoding="utf-8"))[0]


@pytest.mark.parametrize("name", GUARANTEE_INPUTS)
def test_construction_guarantees_behind_pass_lines(name):
    # The facts that delta-g1-symmetry, normalized-euler-column,
    # unity-constant, unity-normalized and bracket{1,2}-degree-one report
    # without recomputing, checked here the long way; and, on a certified
    # flat pencil, those behind delta-g2-symmetry, delta-right-symmetry,
    # delta-curl, delta-euler-scaling, pairing-derivative-identity and the
    # wdvv-associativity of the reconstructed potential.
    p = guarantee_input(name)
    n = p.n
    for g in (p.g1, p.g2):
        conn = bracket_from_metric(g)
        assert all(x.nvars == n for row in g.g for x in row)
        assert all(x.num.nvars == n for k in conn.gamma for row in k for x in row)
    assert check_flat_pencil(p).passed and p.flat_certified
    norm = normalize_flat_coordinates(p)
    q = norm.pencil
    assert q.flat_certified
    assert all(res.is_zero() for _idx, res in symmetry_residuals(q.g1.g, delta_tensor(q), n))
    e_big, e_small = q.euler
    assert e_big == [row[n - 1] for row in q.g1.g]
    assert all(c.is_constant() for c in e_small)
    if name.startswith("coxeter-a"):
        assert p.euler[1] == [QPoly.const(n, int(a == 0)) for a in range(n)]
    assert all(res.is_zero() for _name, _idx, res in delta_identity_residuals(q))
    if norm.ops.regular:
        assert all(res.is_zero() for _idx, res in pairing_derivative_residuals(q, norm.ops.r_op))
    assert check_wdvv(reconstruct_frobenius(p).frobenius).passed


def test_flat_record_survives_transform_and_replace():
    p = load_pencil((SOURCES / "a2-pencil.json").read_text(encoding="utf-8"))[0]
    assert not p.flat_certified
    assert not transform_pencil(p, [[Q(1), Q(2)], [Q(3), Q(7)]]).flat_certified
    assert check_flat_pencil(p).passed
    moved = transform_pencil(p, [[Q(1), Q(2)], [Q(3), Q(7)]])
    assert moved.flat_certified
    assert transform_pencil(p, [[Q(1), Q(2)], [Q(3), Q(7)]], tau=QPoly.var(2, 1)).flat_certified
    assert normalize_flat_coordinates(moved).pencil.flat_certified


def test_reconstruct_refuses_degree_that_does_not_fit():
    # A declared d that L_E g1 = (d-1) g1 does not fit leaves the flat-pencil
    # certificate passing, but not the reason behind the delta-euler-scaling
    # PASS line: normalization refuses the pencil before any difference-tensor
    # identity is reported.
    data = json.loads((SOURCES / "a3-pencil.json").read_text(encoding="utf-8"))
    data["d"] = "1/3"
    p = certified(load_pencil(json.dumps(data))[0])
    with pytest.raises(DegreeInferenceError, match="declared d = 1/3 does not satisfy"):
        reconstruct_frobenius(p)


def test_reconstruct_refuses_non_affine_euler_field():
    # E = g1 grad(t2) = (t2^2, t2 + 1) gives L_E g1 = -g1, so d = 0 fits,
    # but E is not affine: the tensorial L_E Delta would miss the second
    # derivatives of E.  Even with the record set, normalization refuses the
    # pencil before delta-euler-scaling is reported.
    g1 = ContraMetric([[qp(x, 2) for x in row] for row in [["t2^3-t2^2+t2-1", "t2^2"], ["t2^2", "t2+1"]]])
    p = PencilData(g1=g1, g2=ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]]), tau=qp("t2", 2))
    assert p.inferred_degree == 0
    p.flat_certified = True
    with pytest.raises(NonlinearEulerError, match="Euler component 1 is not affine-linear in t2"):
        reconstruct_frobenius(p)


def test_wdvv_computed_when_associativity_fails(monkeypatch):
    # The wdvv-associativity PASS line stands on the certified associativity
    # of the product; when that certificate fails, WDVV is computed.
    p = certified(load_pencil((SOURCES / "a2-pencil.json").read_text(encoding="utf-8"))[0])
    original = reconstruction.multiplication

    def failing_associativity(*args):
        c_low, c_mixed, report = original(*args)
        report.certificates = [
            Certificate(c.name, "fail", witness="forced") if c.name == "multiplication-associativity" else c
            for c in report.certificates
        ]
        return c_low, c_mixed, report

    calls = []
    wdvv = frobenius.check_wdvv

    def counted(m):
        calls.append(m)
        return wdvv(m)

    monkeypatch.setattr(reconstruction, "multiplication", failing_associativity)
    monkeypatch.setattr(frobenius, "check_wdvv", counted)
    result = reconstruct_frobenius(p)
    assert len(calls) == 1 and calls[0] is result.frobenius
    assert result.report.find("wdvv-associativity") == wdvv(result.frobenius)


def test_operator_pair_one_dim(cubic_pencil):
    ops = operator_pair(cubic_pencil)
    assert ops.k_op == [[Q(1)]]
    assert ops.r_op == [[Q(1, 2)]]
    assert ops.lam_op == [[Q(0)]]
    assert ops.regular
    assert all(c.passed for c in ops.certificates)
    assert [s.value for s in ops.spectrum] == [0]
    assert rational_roots(charpoly(ops.lam_op)) == ([(0, 1)], 0)


def test_operator_pair_a2(a2):
    bundle, _recon = a2
    ops = operator_pair(bundle.pencil)
    values = sorted(s.value for s in ops.spectrum)
    assert values == [Q(-1, 6), Q(1, 6)]
    # the whole spectrum is rational, so the root-space pairing is certified
    assert rational_roots(charpoly(ops.lam_op)) == ([(Q(-1, 6), 1), (Q(1, 6), 1)], 0)
    assert next(c for c in ops.certificates if c.name == "root-space-pairing").passed
    assert all(c.passed for c in ops.certificates)
    assert ops.regular


def test_operator_pair_cp1_singular(cp1_pencil):
    ops = operator_pair(cp1_pencil)
    assert not ops.regular
    assert rank(ops.r_op) == 1
    assert all(c.passed for c in ops.certificates)


def test_lambda_root_spaces_pairing(a2, cubic_pencil):
    # Root subspaces at eigenvalues lam, mu are orthogonal for lam + mu != 0
    # and pair with full rank for mu = -lam.
    for pencil in (a2[0].pencil, cubic_pencil):
        ops = operator_pair(pencil)
        if rational_roots(charpoly(ops.lam_op))[1]:  # part of the spectrum is irrational
            continue
        eta_up = pencil.g2.constant_entries()
        for s1 in ops.spectrum:
            for s2 in ops.spectrum:
                gram = [
                    [
                        sum(
                            u[i] * eta_up[i][j] * v[j]
                            for i in range(pencil.n)
                            for j in range(pencil.n)
                        )
                        for v in s2.basis
                    ]
                    for u in s1.basis
                ]
                if s1.value + s2.value != 0:
                    assert all(x == 0 for row in gram for x in row)
                else:
                    assert rank(gram) == len(s1.basis) == len(s2.basis)


def test_irrational_spectrum_skips_pairing_check():
    # Synthetic affine data whose shifted scaling operator has x^2 + 1 as
    # characteristic polynomial: no rational spectrum, so the root-space
    # pairing certificate must be skipped, never approximated.
    g1 = ContraMetric(
        [
            [qp("1", 2), qp("t1 + t2", 2)],
            [qp("t1 + t2", 2), qp("-t1 + t2", 2)],
        ]
    )
    g2 = ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])
    pencil = PencilData(g1=g1, g2=g2, tau=qp("t2", 2), d=Q(0))
    ops = operator_pair(pencil)
    assert rational_roots(charpoly(ops.lam_op)) == ([], 2)
    cert = next(c for c in ops.certificates if c.name == "root-space-pairing")
    assert cert.status == "skipped"
    assert "irrational" in cert.witness


# Synthetic affine pencils (g1, eta^{ij}, tau, d), none of them flat, each
# failing constant checks of the operator pair: E = g1 grad(tau) is linear,
# so K and Lam = (d-2)/2 + K are what the entries of g1 in tau's column say.
OPERATOR_FAILURES = {
    # Lam = diag(1, 0): Lam + Lam^T != 0, and the root space at 1 is not
    # eta-isotropic although 1 + 1 != 0.
    "skew-and-orthogonality": (
        [["1", "2*t1"], ["2*t1", "t2"]],
        [[1, 0], [0, 1]],
        "t2",
        Q(0),
        [
            ("lambda-skew-symmetry", "fail", None),
            ("unity-constant", "pass", None),
            ("tau-gradient-eigencovector", "pass", None),
            ("root-space-pairing", "fail", "subspaces at 1 and 1 are not orthogonal"),
        ],
    ),
    # K = diag(1/3, 4/3) and d = 1/3: Lam = diag(-1/2, 1/2) is skew for the
    # antidiagonal eta, but K d(tau) = 4/3 d(tau) != (1 - d) d(tau).
    "eigencovector": (
        [["1", "1/3*t1"], ["1/3*t1", "4/3*t2"]],
        [[0, 1], [1, 0]],
        "t2",
        Q(1, 3),
        [
            ("lambda-skew-symmetry", "pass", None),
            ("unity-constant", "pass", None),
            ("tau-gradient-eigencovector", "fail", None),
            ("root-space-pairing", "pass", None),
        ],
    ),
    # Lam = diag(-1/2, 1/2, 1/2): the root space at -1/2 is eta-isotropic,
    # but it pairs a line against the plane at 1/2.
    "degenerate-pairing": (
        [["1", "0", "1/3*t1"], ["0", "1", "4/3*t2"], ["1/3*t1", "4/3*t2", "4/3*t3"]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        "t3",
        Q(1, 3),
        [
            ("lambda-skew-symmetry", "fail", None),
            ("unity-constant", "pass", None),
            ("tau-gradient-eigencovector", "fail", None),
            ("root-space-pairing", "fail", "pairing of subspaces at +/--1/2 is degenerate"),
        ],
    ),
}


@pytest.mark.parametrize("name", OPERATOR_FAILURES)
def test_operator_pair_failure_witnesses(name):
    g1, eta, tau, d, expected = OPERATOR_FAILURES[name]
    n = len(eta)
    g1 = ContraMetric([[qp(x, n) for x in row] for row in g1])
    g2 = ContraMetric.constant([[Q(x) for x in row] for row in eta])
    ops = operator_pair(PencilData(g1=g1, g2=g2, tau=qp(tau, n), d=d))
    assert [(c.name, c.status, c.witness) for c in ops.certificates] == expected


def test_operator_shift_relation(cubic_pencil, a2):
    # R and the skew operator differ by half the identity.
    for pencil in (cubic_pencil, a2[0].pencil):
        ops = operator_pair(pencil)
        n = pencil.n
        for i in range(n):
            for j in range(n):
                assert ops.r_op[i][j] == ops.lam_op[i][j] + (Q(1, 2) if i == j else 0)


def test_normalize_identity_idempotent(cubic_pencil, cp1_pencil):
    for pencil in (cubic_pencil, cp1_pencil):
        result = normalize_flat_coordinates(pencil)
        assert result.pencil is pencil
        assert all(c.passed for c in result.certificates)


def test_normalize_undoes_linear_change(cp1_pencil):
    swapped = transform_pencil(cp1_pencil, [[Q(0), Q(1)], [Q(1), Q(0)]])
    result = normalize_flat_coordinates(swapped)
    assert result.pencil is not swapped
    assert all(c.passed for c in result.certificates)
    q = result.pencil
    for i in range(2):
        for j in range(2):
            assert (q.g1.g[i][j] - cp1_pencil.g1.g[i][j]).is_zero()
            assert (q.g2.g[i][j] - cp1_pencil.g2.g[i][j]).is_zero()
    assert (q.tau - cp1_pencil.tau).is_zero()


def test_sheared_a2_delta_scaling_and_reconstruction(a2):
    # A non-diagonal linear change mixes coordinates of different degrees,
    # so the lower index of L_E Delta must differentiate E^s along t^k.
    # The certified record of the orbit pencil carries to the sheared copy.
    bundle, _recon = a2
    sheared = transform_pencil(bundle.pencil, [[Q(1), Q(2)], [Q(3), Q(7)]])
    report = check_delta_properties(normalize_flat_coordinates(sheared))
    assert report.find("delta-euler-scaling").status == "pass"
    assert reconstruct_frobenius(sheared).report.passed


def push_vector(xs, new_coords, old_in_new):
    """The components X'^a(y) = (X^i d_i y^a)(x(y)) of the vector field with
    the components ``xs`` in the coordinates y^a = new_coords[a](x), where
    x^i = old_in_new[i](y): the change-of-coordinates law of a vector field,
    the oracle of the pencil's own E = g1 grad(tau) after a push."""
    nvars = xs[0].nvars
    comps = [dot(nvars, [(c, y.diff(i)) for i, c in enumerate(xs)]) for y in new_coords]
    return [c.substitute(old_in_new) for c in comps]


def test_metric_and_vector_pushes_agree(a2, cp1_pencil):
    # E = g1 grad(tau) and e = g2 grad(tau) are vector fields, so raising tau
    # with the pushed metrics must give the pushed fields.
    cases = [
        (a2[0].pencil, [[Q(2), Q(-1)], [Q(3), Q(5)]]),
        (cp1_pencil, [[Q(2), Q(3)], [Q(4), Q(5)]]),
    ]
    for p, matrix in cases:
        new_coords = linear_forms(matrix)
        old_in_new = linear_forms(mat_inverse(matrix))
        q = transform_pencil(p, matrix)
        for pushed, field in zip(q.euler, p.euler):
            assert pushed == push_vector(field, new_coords, old_in_new)
        back = transform_pencil(q, mat_inverse(matrix))
        for g_back, g in ((back.g1, p.g1), (back.g2, p.g2)):
            for i in range(p.n):
                for j in range(p.n):
                    assert g_back.g[i][j] == g.g[i][j]
        assert back.tau == p.tau


def unit_row_completion(grad):
    """grad(tau) completed to a basis by a rank loop: each unit row, in
    order, that keeps the rows and grad(tau) independent, until there are
    n - 1 of them."""
    n, rows = len(grad), []
    for i in range(n):
        cand = [Q(1) if j == i else Q(0) for j in range(n)]
        if elimination_oracle.rank(rows + [cand] + [grad]) == len(rows) + 2:
            rows.append(cand)
        if len(rows) == n - 1:
            break
    return rows + [grad]


def test_normalize_completes_every_gradient_support_as_the_rank_loop():
    # tau = 1 + grad . t over the constant pencil (2 I, I), for every
    # support of grad up to n = 5.
    rng = random.Random(11)
    for n in range(1, 6):
        for support in range(1, 1 << n):
            grad = [
                Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) if support >> i & 1 else Q(0)
                for i in range(n)
            ]
            tau = sum((QPoly.var(n, i) * x for i, x in enumerate(grad)), QPoly.const(n, 1))
            p = PencilData(
                ContraMetric.constant([[Q(2 * (i == j)) for j in range(n)] for i in range(n)]),
                ContraMetric.constant([[Q(int(i == j)) for j in range(n)] for i in range(n)]),
                tau=tau,
            )
            assert normalize_flat_coordinates(p).matrix == unit_row_completion(grad), grad


def test_normalize_scaling_change(cubic_pencil):
    scaled = transform_pencil(cubic_pencil, [[Q(2)]])
    result = normalize_flat_coordinates(scaled)
    assert result.pencil is not scaled
    assert (result.pencil.g1.g[0][0] - cubic_pencil.g1.g[0][0]).is_zero()


def test_multiplication_one_dim(cubic_pencil):
    c_low, c_mixed, report = multiplication(normalize_flat_coordinates(cubic_pencil))
    assert report.passed
    assert c_mixed[0][0][0] == QPoly.const(1, 1)
    assert c_low[0][0][0] == QPoly.const(1, 1)


def test_associativity_witness_is_first_nonzero_of_full_sweep(a2):
    # D_g = C_g R gives the constant product e1*e1 = e2, e2*e2 = e1,
    # e1*e2 = 0: commutative but not associative.  The certificate sweeps
    # only a < b; its witness must be the first nonzero entry of all (a, b).
    bundle, _recon = a2
    norm = normalize_flat_coordinates(bundle.pencil)
    n, ops = norm.pencil.n, norm.ops
    c = [[[Q(0)] * n for _b in range(n)] for _a in range(n)]  # c[a][b][g]: e_a * e_b
    c[0][0][1] = c[1][1][0] = Q(1)
    delta = [
        [[QPoly.const(n, sum(c[a][k][g] * ops.r_op[k][j] for k in range(n))) for j in range(n)] for a in range(n)]
        for g in range(n)
    ]
    probe = NormalizationResult(norm.pencil, norm.matrix, delta, norm.ops, norm.certificates)
    _c_low, _c_mixed, report = multiplication(probe)
    sweep = (
        ((a, b, g, mu), sum(c[a][e][mu] * c[b][g][e] - c[b][e][mu] * c[a][g][e] for e in range(n)))
        for a in range(n)
        for b in range(n)
        for g in range(n)
        for mu in range(n)
    )
    idx, value = next((idx, value) for idx, value in sweep if value)
    witness = f"entry ({','.join(str(i + 1) for i in idx)}): nonzero normal form: {value}"
    assert witness == "entry (1,2,1,1): nonzero normal form: -1"
    assert report.find("multiplication-commutativity").passed
    assert report.find("multiplication-associativity").witness == witness


def test_multiplication_rejects_singular(cp1_pencil):
    # A singular R admits a product only when Delta(., dtau) vanishes, so the
    # choice of w along ker R = span(dtau) cannot leak into it.
    norm = normalize_flat_coordinates(cp1_pencil)
    delta = norm.delta
    n = cp1_pencil.n
    mutated = [[[delta[k][i][j] for j in range(n)] for i in range(n)] for k in range(n)]
    mutated[0][0][1] = mutated[0][0][1] + RatFunc(qp("t1", n))  # dtau = dt2
    probe = NormalizationResult(norm.pencil, norm.matrix, mutated, norm.ops, norm.certificates)
    with pytest.raises(KernelError) as info:
        multiplication(probe)
    assert "Delta(., dtau) is nonzero at entry (1,1)" in str(info.value)


def test_commutativity_residual_of_polynomial_and_fraction_entries(cp1_pencil):
    # On CP1's singular R, w = 0 for the product by dtau = dt2, so dt1 * dt2
    # stays a QPoly while dt2 * dt1 reads the fraction put into Delta.
    norm = normalize_flat_coordinates(cp1_pencil)
    n = cp1_pencil.n
    mutated = [[list(row) for row in k] for k in norm.delta]
    mutated[0][1][0] = mutated[0][1][0] + RatFunc(qp("t1", n), qp("t1 + 1", n))
    probe = NormalizationResult(norm.pencil, norm.matrix, mutated, norm.ops, norm.certificates)
    with pytest.raises(CommutativityError) as info:
        multiplication(probe)
    assert str(info.value) == "dt1 * dt2 differs from dt2 * dt1 in component 1: residual (-t1) / (t1 + 1)"


def test_d1_multiplication_rejects_regular(cubic_pencil):
    # The d = 1 treatment (left unity in place of the pairing-derivative
    # identity) is not applied to an invertible R.
    norm = normalize_flat_coordinates(cubic_pencil)
    assert norm.ops.regular
    _c_low, _c_mixed, report = multiplication(norm)
    assert report.passed
    assert report.find("pairing-derivative-identity").status == "pass"
    assert all(c.name != "multiplication-left-unity" for c in report.certificates)


def test_multiplication_certificates_follow_r(cp1_pencil):
    # CP1's singular R (d = 1) skips the pairing-derivative identity and
    # certifies d(tau) as a left unity instead.
    norm = normalize_flat_coordinates(cp1_pencil)
    assert rank(norm.ops.r_op) == 1
    _c_low, _c_mixed, report = multiplication(norm)
    assert report.passed
    assert report.find("multiplication-left-unity").status == "pass"
    assert report.find("pairing-derivative-identity").status == "skipped"
    assert [c.name for c in report.certificates] == [
        "multiplication-commutativity",
        "multiplication-associativity",
        "multiplication-unity",
        "unity-lambda-eigenvalue",
        "pairing-derivative-identity",
        "multiplication-left-unity",
    ]


def test_regular_product_is_delta_of_r_inverse(a2, a3):
    # With R invertible the product is Delta(u, R^{-1} v), built here
    # directly from the inverse matrix.
    for bundle, _recon in (a2, a3):
        norm = normalize_flat_coordinates(bundle.pencil)
        n, delta = norm.pencil.n, norm.delta
        r_inv = mat_inverse(norm.ops.r_op)
        _c_low, c_mixed, report = multiplication(norm)
        assert report.passed
        for a in range(n):
            for b in range(n):
                for g in range(n):
                    expected = sum((delta[g][a][j] * r_inv[j][b] for j in range(n)), RatFunc(QPoly.zero(n)))
                    assert (expected - RatFunc(c_mixed[a][b][g])).is_zero()


def _kernel2_pencil():
    # d = 1 with constant metrics: R = K = 0, so the -1/2 root space of Lam
    # is everything (dimension 2).
    g1 = ContraMetric.constant([[Q(2), Q(0)], [Q(0), Q(2)]])
    g2 = ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])
    return PencilData(g1=g1, g2=g2, tau=parse_expr("t2", 2), d=Q(1))


def test_kernel_dimension_two_reported():
    with pytest.raises(KernelError) as info:
        multiplication(normalize_flat_coordinates(_kernel2_pencil()))
    assert "dimension 2" in str(info.value)


def test_recover_potential_one_dim():
    c = [[[QPoly.const(1, 1)]]]
    assert recover_potential(c)[0] == qp("1/6*t1^3", 1)


def test_recover_potential_cp1(cp1):
    check_unity(cp1)
    recovered = recover_potential(cp1.c_low)[0]
    assert recovered == cp1.potential


def not_closed_c():
    n = 2
    c = [[[QPoly.zero(n) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    c[1][1][1] = qp("t1", n)  # d_1 c_222 != d_2 c_122
    return c


def closed_c():
    """d^3 F of F = t1^3/6 + t1 t2^2/2, with F."""
    f = qp("1/6*t1^3 + 1/2*t1*t2^2", 2)
    return [[[f.diff(a).diff(b).diff(c) for c in range(2)] for b in range(2)] for a in range(2)], f


NOT_CLOSED_MESSAGE = r"^gradient of c is not symmetric at indices \(2,2,1,2\)$"


def test_recover_potential_integrability_failure():
    with pytest.raises(IntegrabilityError, match=NOT_CLOSED_MESSAGE):
        recover_potential(not_closed_c())


def test_recover_potential_tests_closedness_before_reraising_ring_bound(monkeypatch):
    # An integration that crosses a ring bound re-raises the bound error,
    # except on a c that is not closed, which keeps its own message.
    def raising(_tensor, _order):
        raise OutOfRingError("bound")

    monkeypatch.setattr(reconstruction, "primitive", raising)
    with pytest.raises(IntegrabilityError, match=NOT_CLOSED_MESSAGE):
        recover_potential(not_closed_c())
    with pytest.raises(OutOfRingError, match="^bound$"):
        recover_potential(closed_c()[0])


def test_recover_potential_resubstitution_failure_is_internal(monkeypatch):
    # A closed c whose integral does not differentiate back is a toolkit bug.
    # The wrong t1^4 shows only at the diagonal index (1,1,1), so the
    # resubstitution must reach a = b = c.
    c, f = closed_c()
    monkeypatch.setattr(reconstruction, "primitive", lambda _tensor, _order: f + qp("t1^4", 2))
    with pytest.raises(InternalCheckError, match="^recovered potential fails to differentiate back$"):
        recover_potential(c)


def test_scaled_cp1_takes_the_moved_unity_presentation(monkeypatch):
    # The golden case cp1-scale-reconstruct pins this path: its unity is not
    # a unit vector, so the potential and E are read in moved coordinates.
    moved = []
    original = reconstruction._unity_presentation_matrix

    def spy(e_comps):
        matrix, u = original(e_comps)
        moved.append(matrix != identity_matrix(len(e_comps)))
        return matrix, u

    monkeypatch.setattr(reconstruction, "_unity_presentation_matrix", spy)
    pencil = certified(load_pencil(json.dumps(SCALED_CP1))[0])
    assert reconstruct_frobenius(pencil).report.passed
    assert moved == [True]


@pytest.mark.parametrize("data", [DENSE_A2, SHEAR_A3, SCALED_CP1], ids=["a2-dense", "a3-shear", "cp1-scale"])
def test_change_is_the_product_of_the_two_changes(data):
    # The composite change, formed on integers and divided once, is the
    # Fraction product of the unity presentation and the normalization.
    pencil = certified(load_pencil(json.dumps(data))[0])
    norm = normalize_flat_coordinates(pencil)
    pres = reconstruction._unity_presentation_matrix([c.constant_value() for c in norm.pencil.euler[1]])[0]
    change = reconstruct_frobenius(pencil).change
    assert change == mat_mul(pres, norm.matrix)
    assert all(type(x) is Q for row in change for x in row)


def test_round_trip_cubic(cubic):
    result = reconstruct_frobenius(certified(to_flat_pencil(cubic)))
    assert result.mode == "regular"
    assert result.frobenius.potential == cubic.potential
    assert result.frobenius.d == cubic.d
    assert result.frobenius.unity == cubic.unity
    assert result.frobenius.euler_linear == cubic.euler_linear
    assert result.frobenius.euler_const == cubic.euler_const
    assert result.change == [[Q(1)]]


def test_round_trip_cp1(cp1, cp1_pencil):
    result = reconstruct_frobenius(certified(cp1_pencil))
    assert result.mode == "d1-remark"
    assert result.frobenius.potential == cp1.potential
    assert result.frobenius.eta == cp1.eta
    assert result.frobenius.euler_linear == cp1.euler_linear
    assert result.frobenius.euler_const == cp1.euler_const
    check_unity(cp1)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert result.frobenius.c_mixed[a][b][c] == cp1.c_mixed[a][b][c]
    assert result.report.passed


def test_regular_mode_excludes_charge_one(a1, a2, a3):
    for bundle, recon in (a1, a2, a3):
        if recon.mode == "regular":
            assert recon.frobenius.d != 1


def test_gradient_of_c_fully_symmetric(cp1):
    # The integrability shape: the 4-index array d_d c_abc is symmetric.
    check_unity(cp1)
    n = cp1.n
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    lhs = cp1.c_low[a][b][c].diff(d)
                    assert (lhs - cp1.c_low[d][b][c].diff(a)).is_zero()
                    assert (lhs - cp1.c_low[a][d][c].diff(b)).is_zero()


@pytest.mark.parametrize("rank_n", range(1, 6))
def test_unity_invariance_pass_line_on_orbit_pencils(rank_n):
    # coxeter certifies both the flat pencil and its scaling identities
    # before the inverse construction, so delta-unity-invariance is a PASS
    # line there; the sums of the oracle check the fact behind it.
    bundle, recon = coxeter_pencil(rank_n)
    p = bundle.pencil
    assert p.flat_certified and p.quasihomogeneous_certified
    assert recon.report.find("delta-unity-invariance").passed
    assert all(res.is_zero() for _idx, res in unity_invariance_residuals(p))


def test_unity_invariance_computed_without_the_scaling_record(monkeypatch):
    # pencil reconstruct certifies no scaling identity, so L_e Delta is
    # formed there; a passing check_quasihomogeneous sets the record, which
    # transform_pencil carries, and a failing one does not.
    calls = []
    lie = reconstruction.lie_derivative

    def counted(x, tensor, rank, lower=0):
        calls.append(rank)
        return lie(x, tensor, rank, lower)

    monkeypatch.setattr(reconstruction, "lie_derivative", counted)
    source = (SOURCES / "a2-pencil.json").read_text(encoding="utf-8")
    p = certified(load_pencil(source)[0])
    assert not p.quasihomogeneous_certified
    assert reconstruct_frobenius(p).report.find("delta-unity-invariance").passed
    assert calls == [3]
    calls.clear()
    q = certified(load_pencil(source)[0])
    assert check_quasihomogeneous(q).passed and q.quasihomogeneous_certified
    moved = transform_pencil(q, [[Q(1), Q(2)], [Q(3), Q(7)]])
    assert moved.quasihomogeneous_certified
    assert reconstruct_frobenius(moved).report.find("delta-unity-invariance").passed
    assert calls == []
    data = json.loads(source)
    data["d"] = "1/2"
    wrong = load_pencil(json.dumps(data))[0]
    assert not check_quasihomogeneous(wrong).passed and not wrong.quasihomogeneous_certified
