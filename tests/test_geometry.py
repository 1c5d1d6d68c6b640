import random
from fractions import Fraction as Q

import pytest

from flatpencil.errors import DegreeInferenceError, SingularMetricError
from flatpencil.exprparse import parse_expr
from flatpencil.geometry import (
    ContraMetric,
    PencilData,
    VectorField,
    check_flat_pencil,
    check_quasihomogeneous,
    covariant_derivative,
    curvature,
    is_flat,
    levi_civita,
    lie_bracket,
    lie_derivative_metric,
)
from flatpencil.qpoly import QPoly, RatFunc, dot
from frobenius_oracle import pencil_gamma


def qp(text, n):
    return parse_expr(text, n)


def metric(rows, n):
    return ContraMetric([[qp(x, n) for x in row] for row in rows])


@pytest.fixture(scope="module")
def cp1_metric():
    return metric([["2*exp(t2)", "t1"], ["t1", "2"]], 2)


def test_constant_metric_has_zero_connection():
    eta = ContraMetric.constant([[Q(0), Q(1)], [Q(1), Q(0)]])
    assert levi_civita(eta).is_zero()


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
    assert all(x.quotient() is not None and not x.as_poly().exp_rates_on(1) for x in flat)


def test_singular_metric_rejected():
    g = metric([["t1", "t1"], ["t1", "t1"]], 2)
    with pytest.raises(SingularMetricError):
        levi_civita(g)


def test_curvature_zero_for_constant():
    eta = ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])
    assert curvature(eta, levi_civita(eta)).is_zero()


def test_curvature_zero_in_one_dim():
    g = metric([["t1^2 + 1"]], 1)
    assert curvature(g, levi_civita(g)).is_zero()


def test_curvature_antisymmetry_exact():
    g = metric([["t1+2", "t2"], ["t2", "t1*t2+5"]], 2)
    curv = curvature(g, levi_civita(g))
    for (l, i, j, k), val in curv.entries():
        assert (val + curv.r[l][i][k][j]).is_zero()


def test_is_flat_examples(cp1_metric):
    assert is_flat(ContraMetric.constant([[Q(2), Q(1)], [Q(1), Q(1)]])).passed
    assert is_flat(metric([["t1"]], 1)).passed
    assert is_flat(cp1_metric).passed


def test_non_flat_witness():
    g = metric([["1", "0"], ["0", "t1^2"]], 2)
    cert = is_flat(g)
    assert not cert.passed
    assert cert.witness and "curvature entry" in cert.witness


def test_lie_derivative_constant_fields():
    eta = ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])
    e = VectorField([QPoly.const(2, 1), QPoly.zero(2)])
    lie = lie_derivative_metric(e, eta)
    assert all(x.is_zero() for row in lie for x in row)


def test_lie_derivative_one_dim_scaling():
    g = metric([["t1"]], 1)
    euler = VectorField([qp("t1", 1)])
    lie = lie_derivative_metric(euler, g)
    assert lie[0][0] == qp("-t1", 1)  # equals (d - 1) g with d = 0


def test_unity_flow_reproduces_second_metric(a2):
    bundle, _recon = a2
    p = bundle.pencil
    _e_big, e_small = p.euler
    lie = lie_derivative_metric(e_small, p.g1)
    for i in range(p.n):
        for j in range(p.n):
            assert (lie[i][j] - p.g2.g[i][j]).is_zero()


def test_lie_bracket_examples():
    e = VectorField([QPoly.const(1, 1)])
    assert lie_bracket(e, e).is_zero()
    euler = VectorField([qp("t1", 1)])
    assert lie_bracket(e, euler) == e


def test_lie_bracket_unity_euler(a2):
    bundle, _recon = a2
    e_big, e_small = bundle.pencil.euler
    assert lie_bracket(e_small, e_big) == e_small


def test_lie_bracket_antisymmetry_and_jacobi():
    rng = random.Random(23)

    def rand_field():
        return VectorField(
            [
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
        )

    for _ in range(12):
        x, y, z = rand_field(), rand_field(), rand_field()
        minus = lie_bracket(y, x)
        plus = lie_bracket(x, y)
        assert all((a + b).is_zero() for a, b in zip(plus.components, minus.components))
        jac = lie_bracket(x, lie_bracket(y, z))
        jac2 = lie_bracket(y, lie_bracket(z, x))
        jac3 = lie_bracket(z, lie_bracket(x, y))
        total = [a + b + c for a, b, c in zip(jac.components, jac2.components, jac3.components)]
        assert all(t.is_zero() for t in total)


def test_flat_pencil_degenerate_equal_metrics():
    eta = ContraMetric.constant([[Q(0), Q(1)], [Q(1), Q(0)]])
    report = check_flat_pencil(PencilData(g1=eta, g2=eta))
    assert report.passed


def test_flat_pencil_one_dim(cubic_pencil):
    assert check_flat_pencil(cubic_pencil).passed


def test_flat_pencil_nonflat_member_fails():
    g1 = metric([["1", "0"], ["0", "t1^2"]], 2)
    g2 = ContraMetric.constant([[Q(1), Q(0)], [Q(0), Q(1)]])
    report = check_flat_pencil(PencilData(g1=g1, g2=g2))
    assert not report.passed
    assert not report.find("pencil-curvature").passed
    assert report.find("pencil-curvature").witness


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
    assert cubic_pencil.euler[0] == VectorField([qp("t1", 1)])
    assert cubic_pencil.euler[1] == VectorField([qp("1", 1)])


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
    curv = curvature(g, conn)
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
        for (l, i, j, k), val in curv.entries():
            assert agree(val, riemann[l][i][j][k]), (l, i, j, k)


def test_non_flat_connection_keeps_shared_denominator():
    g = metric([["1", "0"], ["0", "t1^2"]], 2)
    conn = levi_civita(g)
    assert not all(x.quotient() is not None for k in conn.gamma for row in k for x in row)
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
    assert levi_civita(eta).is_zero()
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
