import json
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from flatpencil.errors import DegreeInferenceError, SingularMetricError
from flatpencil.exprparse import parse_expr
from flatpencil import geometry
from flatpencil.coxeter import coxeter_pencil
from flatpencil.geometry import (
    ContraMetric,
    PencilData,
    _build_connection,
    _lam_coefficients,
    check_flat_pencil,
    check_quasihomogeneous,
    covariant_derivative,
    curvature_entries,
    flat_candidate,
    is_flat,
    levi_civita,
    lie_derivative,
)
from flatpencil.pencilio import load_pencil
from flatpencil.qpoly import QPoly, RatFunc, dot, exact_divide
from flatpencil.reconstruction import delta_tensor
from flatpencil.reports import residual_certificate
from curvature_oracle import assert_kernel_matches, entries, full_curvature, same_form
from frobenius_oracle import pencil_gamma

ROOT = Path(__file__).resolve().parent.parent


def qp(text, n):
    return parse_expr(text, n)


def metric(rows, n):
    return ContraMetric([[qp(x, n) for x in row] for row in rows])


@pytest.fixture(scope="module")
def cp1_metric():
    return metric([["2*exp(t2)", "t1"], ["t1", "2"]], 2)


def test_constant_metric_has_zero_connection():
    eta = ContraMetric.constant([[Q(0), Q(1)], [Q(1), Q(0)]])
    assert all(x.is_zero() for k in levi_civita(eta).gamma for row in k for x in row)


def test_one_dim_connection():
    g = metric([["t1"]], 1)
    conn = levi_civita(g)
    assert conn.gamma[0][0][0] == QPoly.const(1, Q(1, 2))
    # direct check of metricity: 2 * (1/2) = d g / dt
    assert (conn.gamma[0][0][0] * 2 - g.g[0][0].diff(0)).is_zero()


def test_cp1_connection_matches_scaling_construction(cp1_metric, cp1):
    conn = levi_civita(cp1_metric)
    built = pencil_gamma(cp1)
    for k in range(2):
        for i in range(2):
            for j in range(2):
                assert conn.gamma[k][i][j] == built.gamma[k][i][j]


def test_cp1_exp_entries_located(cp1_metric):
    conn = levi_civita(cp1_metric)
    assert conn.gamma[1][0][0].as_poly() == qp("exp(t2)", 2)
    flat = [
        conn.gamma[k][i][j]
        for k in range(2)
        for i in range(2)
        for j in range(2)
        if (k, i, j) != (1, 0, 0)
    ]
    assert all(not x.as_poly().exp_rates_on(1) for x in flat)


def test_singular_metric_rejected():
    g = metric([["t1", "t1"], ["t1", "t1"]], 2)
    with pytest.raises(SingularMetricError):
        levi_civita(g)


def test_curvature_zero_for_constant():
    eta = ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])
    gamma = levi_civita(eta).gamma
    assert_kernel_matches(eta.g, gamma)
    assert all(val.is_zero() for _idx, val in entries(full_curvature(eta.g, gamma)))


def test_curvature_zero_in_one_dim():
    # One coordinate leaves no j < k entry; the oracle's R_1^{111} vanishes.
    g = metric([["t1^2 + 1"]], 1)
    gamma = levi_civita(g).gamma
    assert curvature_entries(g.g, gamma) == []
    assert all(val.is_zero() for _idx, val in entries(full_curvature(g.g, gamma)))


def test_curvature_antisymmetry_exact():
    # The last two connections are fractions over det.
    for g in (
        metric([["t1+2", "t2"], ["t2", "t1*t2+5"]], 2),
        metric([["1", "0"], ["0", "t1^2"]], 2),
        metric([["t1+2", "t2", "1"], ["t2", "t1*t3+5", "t2"], ["1", "t2", "t3^2+1"]], 3),
    ):
        assert_kernel_matches(g.g, levi_civita(g).gamma)


def oracle_flatness_witness(g):
    """The flatness certificate over the whole oracle tensor, labelled as
    is_flat labels the kernel's entries."""
    r = full_curvature(g.g, levi_civita(g).gamma)
    return residual_certificate(
        "flatness", (("curvature entry (" + ",".join(str(x + 1) for x in idx) + ")", v) for idx, v in entries(r))
    ).witness


@pytest.mark.parametrize(
    "rows",
    [
        [["1", "0"], ["0", "t1^2"]],
        [["t1+2", "t2"], ["t2", "t1*t2+5"]],
        [["-t1*t2-3*t2*t3+3*t3", "-t1*t3-2*t2", "0"], ["-t1*t3-2*t2", "-5*t3", "t1*t2*t3-3"], ["0", "t1*t2*t3-3", "0"]],
    ],
    ids=["fraction-2d", "generic-2d", "generic-3d"],
)
def test_first_nonzero_oracle_entry_is_the_flatness_witness(rows):
    g = metric(rows, len(rows))
    cert = is_flat(g)
    assert not cert.passed
    assert cert.witness == oracle_flatness_witness(g)


def test_is_flat_examples(cp1_metric):
    assert is_flat(ContraMetric.constant([[Q(2), Q(1)], [Q(1), Q(1)]])).passed
    assert is_flat(metric([["t1"]], 1)).passed
    assert is_flat(cp1_metric).passed


def test_non_flat_witness():
    g = metric([["1", "0"], ["0", "t1^2"]], 2)
    cert = is_flat(g)
    assert not cert.passed
    assert cert.witness and "curvature entry" in cert.witness


def bracket(x, y):
    """[X, Y] = L_X Y."""
    return lie_derivative(x, y, 1)


def test_lie_derivative_constant_fields():
    eta = ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])
    e = [QPoly.const(2, 1), QPoly.zero(2)]
    lie = lie_derivative(e, eta.g, 2)
    assert all(x.is_zero() for row in lie for x in row)


def test_lie_derivative_one_dim_scaling():
    g = metric([["t1"]], 1)
    euler = [qp("t1", 1)]
    lie = lie_derivative(euler, g.g, 2)
    assert lie[0][0] == qp("-t1", 1)  # equals (d - 1) g with d = 0


def test_unity_flow_reproduces_second_metric(a2):
    bundle, _recon = a2
    p = bundle.pencil
    _e_big, e_small = p.euler
    lie = lie_derivative(e_small, p.g1.g, 2)
    for i in range(p.n):
        for j in range(p.n):
            assert (lie[i][j] - p.g2.g[i][j]).is_zero()


def test_lie_bracket_examples():
    e = [QPoly.const(1, 1)]
    assert bracket(e, e) == [QPoly.zero(1)]
    euler = [qp("t1", 1)]
    assert bracket(e, euler) == e


def test_lie_bracket_unity_euler(a2):
    bundle, _recon = a2
    e_big, e_small = bundle.pencil.euler
    assert bracket(e_small, e_big) == e_small


def lie_derivative_connection(x, tensor):
    """Reference: the Lie derivative of a (1,2) tensor D_k^{ij} along X,
    written out,

        (L_X D)_k^{ij} = X^s d_s D_k^{ij} - D_k^{sj} d_s X^i - D_k^{is} d_s X^j
                         + D_s^{ij} d_k X^s."""
    n, nvars = len(tensor), x[0].nvars
    dx = [[c.diff(s) for s in range(n)] for c in x]
    return [
        [
            [
                dot(
                    nvars,
                    [(tensor[k][i][j].diff(s), x[s]) for s in range(n)]
                    + [(tensor[s][i][j], dx[s][k]) for s in range(n)],
                    [(tensor[k][s][j], dx[i][s]) for s in range(n)] + [(tensor[k][i][s], dx[j][s]) for s in range(n)],
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        for k in range(n)
    ]


def assert_same_lie_of_connection(x, tensor):
    got = lie_derivative(x, tensor, 3, lower=1)
    want = lie_derivative_connection(x, tensor)
    n = len(tensor)
    assert all(same_form(got[k][i][j], want[k][i][j]) for k in range(n) for i in range(n) for j in range(n))


def test_lie_kernel_matches_written_out_connection_formula():
    rng = random.Random(41)

    def rand_poly(n):
        return QPoly(
            n,
            {
                (tuple(rng.randint(0, 2) for _ in range(n)), ()): Q(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            },
        )

    for n in (1, 2, 3):
        for _ in range(4):
            x = [rand_poly(n) for _ in range(n)]
            polys = [[[rand_poly(n) for _j in range(n)] for _i in range(n)] for _k in range(n)]
            assert_same_lie_of_connection(x, polys)
            den = rand_poly(n) + 1
            if not den.is_zero():
                assert_same_lie_of_connection(x, [[[RatFunc(p, den) for p in row] for row in k] for k in polys])


def test_lie_kernel_keeps_fraction_form_of_delta():
    # The difference tensor of test_delta_properties_on_non_polynomial_connection:
    # every entry is a fraction over det g1.
    g1 = metric([["t1^2+t2+3/2*t1*t2", "2*t1+t2^2"], ["2*t1+t2^2", "t1*t2+1"]], 2)
    g2 = ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])
    pencil = PencilData(g1=g1, g2=g2, tau=qp("t2", 2), d=Q(1, 2))
    delta = delta_tensor(pencil)
    assert all(isinstance(x, RatFunc) for k in delta for row in k for x in row)
    for field in pencil.euler:
        assert_same_lie_of_connection(field, delta)


def test_lie_bracket_antisymmetry_and_jacobi():
    rng = random.Random(23)

    def rand_field():
        return [
            QPoly(
                2,
                {
                    (
                        (rng.randint(0, 2), rng.randint(0, 2)),
                        (),
                    ): Q(rng.randint(-4, 4))
                },
            )
            for _ in range(2)
        ]

    for _ in range(12):
        x, y, z = rand_field(), rand_field(), rand_field()
        minus = bracket(y, x)
        plus = bracket(x, y)
        assert all((a + b).is_zero() for a, b in zip(plus, minus))
        jac = bracket(x, bracket(y, z))
        jac2 = bracket(y, bracket(z, x))
        jac3 = bracket(z, bracket(x, y))
        total = [a + b + c for a, b, c in zip(jac, jac2, jac3)]
        assert all(t.is_zero() for t in total)


def test_flat_pencil_degenerate_equal_metrics():
    eta = ContraMetric.constant([[Q(0), Q(1)], [Q(1), Q(0)]])
    report = check_flat_pencil(PencilData(g1=eta, g2=eta))
    assert report.passed


def test_flat_pencil_with_one_connection_of_fractions():
    # G1 - lam*G2 with G1 polynomial and G2 over det g2, and the mirror
    # case: both give the same witnesses, at the lam power of G2 and G1.
    eta = ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])
    g = metric([["t1^2 + 1", "t2"], ["t2", "1"]], 2)
    assert all(isinstance(x, RatFunc) for k in levi_civita(g).gamma for row in k for x in row)
    curvature = "2*t1^2*t2^3 + t2^5 - t1^3*t2 - 5*t1*t2^3 + t1^2*t2 + t2^3 - t1*t2 + t2"
    for g1, g2, power in ((eta, g, 2), (g, eta, 0)):
        report = check_flat_pencil(PencilData(g1=g1, g2=g2))
        assert report.find("pencil-connection-symmetry").witness == (
            "entry (1,2,1), lam^1: nonzero normal form: -t1*t2 + t2"
        )
        assert report.find("pencil-curvature").witness == (
            f"entry (1,1,1,2), lam^{power}: nonzero normal form: {curvature}"
        )


def test_flat_pencil_one_dim(cubic_pencil):
    assert check_flat_pencil(cubic_pencil).passed


def test_flat_pencil_nonflat_member_fails():
    g1 = metric([["1", "0"], ["0", "t1^2"]], 2)
    g2 = ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])
    report = check_flat_pencil(PencilData(g1=g1, g2=g2))
    assert not report.passed
    assert not report.find("pencil-curvature").passed
    assert report.find("pencil-curvature").witness


def pencil_curvature_oracle_witness(p):
    """The pencil-curvature certificate over the whole oracle tensor of
    g1 - lam*g2 and G1 - lam*G2, lam adjoined as the last variable."""
    n, nvars = p.n, p.g1.nvars
    lam = QPoly.var(nvars + 1, nvars)
    conn1, conn2 = levi_civita(p.g1), levi_civita(p.g2)
    g_l = [[p.g1.g[i][j].lift(nvars + 1) - lam * p.g2.g[i][j].lift(nvars + 1) for j in range(n)] for i in range(n)]
    gamma_l = [
        [[conn1.gamma[k][i][j].lift(nvars + 1) - lam * conn2.gamma[k][i][j].lift(nvars + 1) for j in range(n)] for i in range(n)]
        for k in range(n)
    ]
    r = full_curvature(g_l, gamma_l)
    return residual_certificate("pencil-curvature", _lam_coefficients(entries(r), nvars)).witness


def test_pencil_curvature_witness_is_first_nonzero_oracle_entry():
    perturbed = json.loads((ROOT / "perfbench" / "sources" / "a2-pencil.json").read_text(encoding="utf-8"))
    perturbed["g1"][0][0] += " + t1"
    for p in (
        load_pencil(json.dumps(perturbed))[0],
        PencilData(g1=metric([["1", "0"], ["0", "t1^2"]], 2), g2=ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])),
    ):
        cert = check_flat_pencil(p).find("pencil-curvature")
        assert not cert.passed
        assert cert.witness == pencil_curvature_oracle_witness(p)


def test_pencil_members_flat_with_combined_connection(cp1_pencil):
    # Every member g1 - lam g2 is flat and its connection is the
    # lam-combination of the endpoint connections.
    conn1 = levi_civita(cp1_pencil.g1)
    conn2 = levi_civita(cp1_pencil.g2)
    g1, g2 = cp1_pencil.g1.g, cp1_pencil.g2.g
    for lam in (Q(0), Q(1), Q(-1), Q(2)):
        member = ContraMetric([[g1[i][j] - g2[i][j] * lam for j in range(2)] for i in range(2)])
        assert is_flat(member).passed
        conn = levi_civita(member)
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    assert conn.gamma[k][i][j] == conn1.gamma[k][i][j] - conn2.gamma[k][i][j] * lam


def test_quasihomogeneous_one_dim(cubic_pencil):
    report = check_quasihomogeneous(cubic_pencil)
    assert report.passed
    assert cubic_pencil.degree == 0
    assert cubic_pencil.euler[0] == [qp("t1", 1)]
    assert cubic_pencil.euler[1] == [qp("1", 1)]


def test_quasihomogeneous_inference_a2(a2):
    bundle, _recon = a2
    p = PencilData(g1=bundle.pencil.g1, g2=bundle.pencil.g2, tau=bundle.pencil.tau, d=None)
    report = check_quasihomogeneous(p)
    assert p.degree == Q(1, 3)
    assert report.passed


def test_quasihomogeneous_tau_squared_inference_fails(a2):
    bundle, _recon = a2
    p = PencilData(
        g1=bundle.pencil.g1,
        g2=bundle.pencil.g2,
        tau=bundle.pencil.tau * bundle.pencil.tau,
        d=None,
    )
    with pytest.raises(DegreeInferenceError):
        check_quasihomogeneous(p)


# ---------------------------------------------------------------------------
# The connection kernel: sympy oracle, caching, constant metrics
# ---------------------------------------------------------------------------


def _random_metric(rng, n, allow_exp):
    def entry():
        p = QPoly.zero(n)
        for _ in range(rng.randint(1, 3)):
            pows = tuple(rng.randint(0, 1) for _ in range(n))
            term = QPoly(n, {(pows, ()): Q(rng.randint(-3, 3))})
            if allow_exp and rng.random() < 0.5:
                term = term * QPoly.exp(n, n - 1, rng.choice([1, -1]))
            p = p + term
        return p

    while True:
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = entry()
        g = ContraMetric(rows)
        if not g.det.is_zero() and not g.is_constant():
            return g


ORACLE_METRICS = [
    ("hyperbolic-plane", lambda: metric([["1", "0"], ["0", "t1^2"]], 2)),
    ("cp1", lambda: metric([["2*exp(t2)", "t1"], ["t1", "2"]], 2)),
    ("random-poly", lambda: _random_metric(random.Random(5), 2, False)),
    ("random-exp-a", lambda: _random_metric(random.Random(7), 2, True)),
    ("random-exp-b", lambda: _random_metric(random.Random(8), 2, True)),
]


@pytest.mark.parametrize("make", [m for _name, m in ORACLE_METRICS], ids=[name for name, _m in ORACLE_METRICS])
def test_connection_and_curvature_match_sympy(make):
    """The single-denominator kernel against the classical route in sympy:
    the covariant metric adj(g)/det(g), its Christoffel symbols with one
    index raised, and the curvature formula evaluated on that connection.
    The sympy expressions are left unsimplified and compared with ours
    exactly at random rational points, exp(t_n) given a random rational
    value (a ring homomorphism once every derivative is taken)."""
    sympy = pytest.importorskip("sympy")
    g = make()
    n = g.n
    ts = sympy.symbols(f"t1:{n + 1}")

    def to_sym(p):
        return sympy.Add(
            *(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(t**a for t, a in zip(ts, pows)))
                * sympy.exp(sum((sympy.Rational(r.numerator, r.denominator) * ts[axis] for axis, r in efac), 0))
                for (pows, efac), c in p.terms.items()
            )
        )

    up = sympy.Matrix(n, n, lambda i, j: to_sym(g.g[i][j]))
    low = up.adjugate() / up.det()
    chris = [
        [
            [
                sum(
                    up[a, d] * (sympy.diff(low[d, c], ts[b]) + sympy.diff(low[d, b], ts[c]) - sympy.diff(low[b, c], ts[d]))
                    for d in range(n)
                )
                / 2
                for c in range(n)
            ]
            for b in range(n)
        ]
        for a in range(n)
    ]
    gamma = [[[-sum(up[i, s] * chris[j][s][k] for s in range(n)) for j in range(n)] for i in range(n)] for k in range(n)]
    riemann = [
        [
            [
                [
                    sum(
                        up[i, s] * (sympy.diff(gamma[l][j][k], ts[s]) - sympy.diff(gamma[s][j][k], ts[l]))
                        + gamma[s][i][k] * gamma[l][s][j]
                        - gamma[s][i][j] * gamma[l][s][k]
                        for s in range(n)
                    )
                    for k in range(n)
                ]
                for j in range(n)
            ]
            for i in range(n)
        ]
        for l in range(n)
    ]

    conn = levi_civita(g)
    curv = curvature_entries(g.g, conn.gamma)
    rng = random.Random(1)
    for _ in range(2):
        point = [Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        unit = Q(rng.randint(1, 9), rng.randint(1, 5))
        exp_value = {sympy.exp(ts[-1]): sympy.Rational(unit.numerator, unit.denominator)}
        coords = {t: sympy.Rational(v.numerator, v.denominator) for t, v in zip(ts, point)}

        def agree(ours, expr):
            expvals = {n - 1: (Q(1), unit)}
            value = ours.num.eval(point, expvals) / ours.den.eval(point, expvals)
            return expr.subs(exp_value).subs(coords) == sympy.Rational(value.numerator, value.denominator)

        for k in range(n):
            for i in range(n):
                for j in range(n):
                    assert agree(conn.gamma[k][i][j], gamma[k][i][j]), (k, i, j)
        for (l, i, j, k), val in curv:
            assert agree(val, riemann[l][i][j][k]), (l, i, j, k)
        # the classical tensor is antisymmetric in (j, k), so its j < k half
        # is all of it
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    for k in range(j, n):
                        mirror = riemann[l][i][j][k] + riemann[l][i][k][j]
                        assert mirror.subs(exp_value).subs(coords) == 0, (l, i, j, k)


def test_non_flat_connection_keeps_shared_denominator():
    g = metric([["1", "0"], ["0", "t1^2"]], 2)
    conn = levi_civita(g)
    assert not all(exact_divide(x.num, x.den) is not None for k in conn.gamma for row in k for x in row)
    # one inexact entry puts every entry over det, polynomial ones included
    assert all(isinstance(x, RatFunc) and x.den == g.det for k in conn.gamma for row in k for x in row)


def test_mixed_fraction_arithmetic_builds_no_constant_denominator(monkeypatch):
    # A QPoly or scalar operand of a fraction over det combines with its
    # numerator directly; no fraction over the constant 1 is built for it.
    g = metric([["1", "0"], ["0", "t1^2"]], 2)
    constant = []
    init = RatFunc.__init__

    def spy(self, *args):
        init(self, *args)
        if self.den.is_constant():
            constant.append(self)

    monkeypatch.setattr(RatFunc, "__init__", spy)
    cert = is_flat(g)
    assert not cert.passed
    assert cert.witness == "curvature entry (1,2,1,2): nonzero normal form: 2*t1^4"
    assert constant == []


def test_non_flat_three_dim_metric_fails_at_first_curvature_entry():
    g = metric(
        [
            ["-t1*t2-3*t2*t3+3*t3", "-t1*t3-2*t2", "0"],
            ["-t1*t3-2*t2", "-5*t3", "t1*t2*t3-3"],
            ["0", "t1*t2*t3-3", "0"],
        ],
        3,
    )
    cert = is_flat(g)
    assert not cert.passed
    assert cert.witness.startswith("curvature entry (1,1,1,2): ")


def test_exact_connections_are_qpoly(a3, cp1_metric, cp1):
    # Entries that divide exactly by det are stored as quasi-polynomials;
    # RatFunc appears only over a non-constant denominator.
    bundle, recon = a3
    for conn in (
        levi_civita(bundle.pencil.g1),
        levi_civita(bundle.pencil.g2),
        levi_civita(cp1_metric),
        pencil_gamma(recon.frobenius),
        pencil_gamma(cp1),
    ):
        assert all(type(x) is QPoly for k in conn.gamma for row in k for x in row)


def test_connection_built_once_per_metric(cp1_metric):
    assert levi_civita(cp1_metric) is levi_civita(cp1_metric)


def test_constant_metric_skips_adjugate(monkeypatch):
    def forbidden(*_args):
        raise AssertionError("sym_adjugate called for a constant metric")

    monkeypatch.setattr("flatpencil.geometry.sym_adjugate", forbidden)
    eta = ContraMetric.constant([[Q(2), Q(1)], [Q(1), Q(1)]])
    assert all(x.is_zero() for k in levi_civita(eta).gamma for row in k for x in row)
    assert is_flat(eta).passed


def nabla_of_differential(g, h):
    """nabla^i(dh)_k of (0.6) on the metric g."""
    dh = [h.diff(j) for j in range(g.n)]
    return covariant_derivative(g.g, levi_civita(g).gamma, dh, [[x.diff(k) for k in range(g.n)] for x in dh])


def test_covariant_derivative_one_dim():
    g = metric([["t1"]], 1)
    assert nabla_of_differential(g, qp("t1", 1)) == [[QPoly.const(1, Q(1, 2))]]


def assert_torsion_free(g, densities):
    # By the symmetry condition (0.4), nabla^i(dh)_k g^{kl} is symmetric in
    # (i, l) for every density h; with G_k^{ji} in place of G_k^{ij} it is not.
    n = g.n
    for text in densities:
        nabla = nabla_of_differential(g, qp(text, n))
        for i in range(n):
            for l in range(i + 1, n):
                plus = [(nabla[i][k], g.g[k][l]) for k in range(n)]
                minus = [(nabla[l][k], g.g[k][i]) for k in range(n)]
                assert dot(g.nvars, plus, minus).is_zero(), (text, i, l)


def test_covariant_derivative_torsion_free_a3(a3):
    assert_torsion_free(a3[0].pencil.g1, ["t1^2*t2", "t3^3 + t1*t2", "t1*t2*t3 + t2^2"])


def test_covariant_derivative_torsion_free_over_fractions():
    # The g1 of the reconstruction test on a non-polynomial connection.
    g = metric([["t1^2+t2+3/2*t1*t2", "2*t1+t2^2"], ["2*t1+t2^2", "t1*t2+1"]], 2)
    assert all(isinstance(x, RatFunc) for k in levi_civita(g).gamma for row in k for x in row)
    assert_torsion_free(g, ["t1^2*t2", "t2^3 + t1", "t1*t2"])


def candidate_source(name):
    """A fresh copy of a bundled or orbit pencil: no metric holds a connection."""
    if name.startswith("coxeter-a"):
        p = coxeter_pencil(int(name[-1]))[0].pencil
    else:
        p = load_pencil((ROOT / "perfbench" / "sources" / f"{name}-pencil.json").read_text())[0]
    return PencilData(ContraMetric(p.g1.g), ContraMetric(p.g2.g), p.tau, p.d)


@pytest.mark.parametrize("name", ["a1", "a2", "a3"] + [f"coxeter-a{r}" for r in range(1, 6)])
def test_flat_candidate_equals_kernel(name):
    # In flat coordinates of eta with a diagonal E, Dubrovin's form of the
    # connection passes its symmetry residuals and equals the kernel's
    # connection term for term, in kind too.
    p = candidate_source(name)
    candidate = flat_candidate(p)
    kernel = _build_connection(ContraMetric(p.g1.g))
    assert candidate is not None
    n = p.n
    for k in range(n):
        for i in range(n):
            for j in range(n):
                got, want = candidate.gamma[k][i][j], kernel.gamma[k][i][j]
                assert type(got) is type(want) is QPoly and got == want, (k, i, j)


def test_g1_connection_lives_in_the_metric_cache(monkeypatch):
    p = candidate_source("a3")
    conn = p.g1_connection
    assert levi_civita(p.g1) is conn is p.g1_connection
    # A connection the metric already holds is returned, with no candidate.
    q = candidate_source("a3")
    held = levi_civita(q.g1)
    monkeypatch.setattr(geometry, "flat_candidate", lambda _p: pytest.fail("candidate tried"))
    assert q.g1_connection is held


def test_determinant_vanishing_at_the_sample_point_is_expanded():
    # t1 = 3/2 is the sample point's first coordinate, where det g1 = t1 - 3/2
    # vanishes: the determinant is expanded, found nonzero, and the pencil
    # and its candidate connection pass.
    g1 = metric([["t1-3/2"]], 1)
    assert [[x.eval([Q(3, 2)]) for x in row] for row in g1.g] == [[0]]
    p = PencilData(g1, ContraMetric.constant([[Q(1)]], 1), tau=qp("t1", 1))
    assert not g1.is_degenerate() and g1._det == qp("t1-3/2", 1)
    assert flat_candidate(p) is not None
    assert check_flat_pencil(p).passed and check_quasihomogeneous(p).passed


def test_sample_point_decides_without_expanding(monkeypatch):
    def forbidden(*_args):
        raise AssertionError("sym_det expanded")

    p = candidate_source("coxeter-a4")
    monkeypatch.setattr("flatpencil.geometry.sym_det", forbidden)
    assert not p.g1.is_degenerate() and not p.g2.is_degenerate()
    assert check_flat_pencil(p).passed
    zero = metric([["t1", "t1*t2"], ["t1*t2", "t1*t2^2"]], 2)
    with pytest.raises(AssertionError, match="sym_det expanded"):
        zero.is_degenerate()


def test_constant_metric_degeneracy_reads_its_entries(monkeypatch):
    # A constant metric's determinant is that of its entries: no sample
    # point is evaluated, and a singular constant matrix is degenerate.
    def forbidden(*_args):
        raise AssertionError("sample point evaluated")

    eta = ContraMetric(candidate_source("coxeter-a4").g2.g)
    monkeypatch.setattr(geometry, "sym_sample_values", forbidden)
    monkeypatch.setattr(geometry, "sym_det", forbidden)
    assert not eta.is_degenerate()
    assert not ContraMetric.constant([[Q(0), Q(1)], [Q(1), Q(0)]]).is_degenerate()
    assert ContraMetric.constant([[Q(1), Q(2)], [Q(2), Q(4)]]).is_degenerate()
    assert ContraMetric.constant([[Q(0)]], 2).is_degenerate()


def test_candidate_declines_on_a_degenerate_metric():
    # The zero metric passes the candidate's (empty) symmetry residuals; its
    # determinant vanishes, so the kernel decides and raises its own error.
    p = PencilData(metric([["0"]], 1), ContraMetric.constant([[Q(1)]], 1), tau=qp("t1", 1), d=Q(0))
    assert flat_candidate(p) is None
    with pytest.raises(SingularMetricError, match="^metric determinant is identically zero$"):
        p.g1_connection
