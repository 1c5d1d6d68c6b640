import random
from fractions import Fraction as Q

import pytest

from flatpencil.coxeter import (
    arnold_metric,
    build_orbit_chart,
    coxeter_pencil,
    fields_and_tau,
    invert_graded_map,
    rewrite_in_generators,
    saito_flat_coordinates,
    saito_metric,
)
from flatpencil.errors import RewriteError
from flatpencil.exprparse import parse_expr
from flatpencil.geometry import is_flat, lie_derivative
from flatpencil.linalg import mat_inverse, rank
from flatpencil.loopspace import central_charge
from flatpencil.qpoly import QPoly


# Reference route in the zero-sum chart (y_1..y_n) with y_h = -(y_1 + ... + y_n):
# the generators as power sums in y, and the Euclidean pairing of two chart
# polynomials on the hyperplane.
def chart_power_sum(n, k):
    last = sum((-QPoly.var(n, i) for i in range(n)), QPoly.zero(n))
    return sum((QPoly.var(n, i) ** k for i in range(n)), last**k)


def chart_generators(chart):
    return [chart_power_sum(chart.rank, k) for k in chart.degrees]


def chart_pairing(n, a, b):
    da = [a.diff(i) for i in range(n)]
    db = [b.diff(i) for i in range(n)]
    total = sum((x * y for x, y in zip(da, db)), QPoly.zero(n))
    return total - sum(da, QPoly.zero(n)) * sum(db, QPoly.zero(n)) * Q(1, n + 1)


def flat_generators(chart):
    """The flat generators t^a in p_1..p_n as coxeter_pencil forms them:
    Saito's flat coordinates with the quadratic one pinned to tau."""
    t_polys = saito_flat_coordinates(saito_metric(arnold_metric(chart)), chart.degrees)
    t_polys[-1] = fields_and_tau(chart)[1]
    return t_polys


def test_chart_degrees():
    assert build_orbit_chart(1).degrees == [2]
    assert build_orbit_chart(2).degrees == [3, 2]
    assert build_orbit_chart(3).degrees == [4, 3, 2]
    assert build_orbit_chart(5).degrees == [6, 5, 4, 3, 2]
    assert build_orbit_chart(8).degrees == [9, 8, 7, 6, 5, 4, 3, 2]
    assert build_orbit_chart(1).h == 2
    with pytest.raises(ValueError):
        build_orbit_chart(9)
    with pytest.raises(ValueError):
        build_orbit_chart(0)


def test_rank_one_chart_and_metric():
    chart = build_orbit_chart(1)
    # single invariant 2 y^2 on the line y, -y
    assert chart_generators(chart)[0] == parse_expr("2*t1^2", 1)
    g1 = arnold_metric(chart)
    assert g1.g[0][0] == parse_expr("4*t1", 1)  # (dp, dp) = 4p


def test_rewrite_rejects_non_invariant():
    chart = build_orbit_chart(2)
    with pytest.raises(RewriteError):
        rewrite_in_generators(parse_expr("t1", 2), chart_generators(chart), chart.degrees)


@pytest.mark.parametrize("rank_n", [1, 2, 3, 4])
def test_arnold_metric_matches_chart_route(rank_n):
    chart = build_orbit_chart(rank_n)
    gens = chart_generators(chart)
    g1 = arnold_metric(chart)
    for a in range(rank_n):
        for b in range(rank_n):
            ref = rewrite_in_generators(chart_pairing(rank_n, gens[a], gens[b]), gens, chart.degrees)
            assert g1.g[a][b] == ref
    tau_ref = rewrite_in_generators(chart_power_sum(rank_n, 2), gens, chart.degrees) * Q(1, 2 * chart.h)
    assert fields_and_tau(chart)[1] == tau_ref


@pytest.mark.parametrize("rank_n", [1, 2, 3, 4, 5])
def test_arnold_metric_at_rational_points(rank_n):
    # At y on the hyperplane, g^{ab}(p(y)) = a b (sum_i y_i^(a-1) y_i^(b-1)
    # - s_{a-1}(y) s_{b-1}(y) / h), all in exact rationals.
    chart = build_orbit_chart(rank_n)
    h = chart.h
    g1 = arnold_metric(chart)
    rng = random.Random(7 + rank_n)
    for _ in range(3):
        y = [Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rank_n)]
        y.append(-sum(y))

        def s(k):
            return sum(yi**k for yi in y)

        p = [s(k) for k in chart.degrees]
        for i, a in enumerate(chart.degrees):
            for j, b in enumerate(chart.degrees):
                want = a * b * (sum(yi ** (a - 1) * yi ** (b - 1) for yi in y) - s(a - 1) * s(b - 1) / h)
                assert g1.g[i][j].eval(p) == want


@pytest.mark.parametrize("fixture", ["a1", "a2", "a3"])
def test_flat_generator_metric_matches_chart_route(fixture, request):
    # Reference route: pair the flat generators in the Euclidean chart and
    # rewrite each invariant pairing in the flat generators themselves.
    bundle, _recon = request.getfixturevalue(fixture)
    chart = bundle.chart
    t_in_y = [t.substitute(chart_generators(chart)) for t in flat_generators(chart)]
    for a in range(chart.rank):
        for b in range(chart.rank):
            ref = rewrite_in_generators(chart_pairing(chart.rank, t_in_y[a], t_in_y[b]), t_in_y, chart.degrees)
            assert bundle.pencil.g1.g[a][b] == ref


def test_arnold_metric_grading(a2):
    # Every entry scales like weight(p_a) + weight(p_b) - 2/h under E.
    chart = build_orbit_chart(2)
    g1 = arnold_metric(chart)
    e_big, _tau = fields_and_tau(chart)
    lie = lie_derivative(e_big, g1.g, 2)
    h = chart.h
    for a in range(2):
        for b in range(2):
            weight = Q(chart.degrees[a] + chart.degrees[b] - 2, h)
            scale = weight - Q(chart.degrees[a], h) - Q(chart.degrees[b], h)
            assert (lie[a][b] - g1.g[a][b] * scale).is_zero()


def test_arnold_determinant_degree():
    # deg det(g1) = sum over generators of (2 deg - 2) in the chart grading.
    chart = build_orbit_chart(2)
    g1 = arnold_metric(chart)
    expected = sum(2 * d - 2 for d in chart.degrees)
    weights = {a: Q(d, 1) for a, d in enumerate(chart.degrees)}
    top = max(
        sum(weights[i] * p for i, p in enumerate(pows)) for (pows, _e) in g1.det.terms
    )
    assert top == expected


def test_fields_and_tau_a2():
    chart = build_orbit_chart(2)
    e_big, tau = fields_and_tau(chart)
    assert e_big[0] == QPoly.var(2, 0)  # weight 1 on the top generator
    assert e_big[1] == QPoly.var(2, 1) * Q(2, 3)
    # tau is the quadratic generator over 2h
    assert tau == QPoly.var(2, 1) * Q(1, 6)


def test_saito_metric_rank1():
    chart = build_orbit_chart(1)
    g1 = arnold_metric(chart)
    g2 = saito_metric(g1)
    assert g2.g[0][0] == QPoly.const(1, 4)


@pytest.mark.parametrize("rank_n", [2, 3])
def test_saito_metric_flat_constant_det(rank_n):
    chart = build_orbit_chart(rank_n)
    g1 = arnold_metric(chart)
    g2 = saito_metric(g1)
    assert g2.det.is_constant() and not g2.det.is_zero()
    assert is_flat(g2).passed


def test_flat_generators_a2_shape():
    chart = build_orbit_chart(2)
    g1 = arnold_metric(chart)
    g2 = saito_metric(g1)
    gens = saito_flat_coordinates(g2, chart.degrees)
    # Degree 2 < deg p1^2 = 6: no corrections possible, pure rescalings.
    assert gens[0] == QPoly.var(2, 0)
    assert gens[1] == QPoly.var(2, 1)


def test_flat_generators_a3_constant_pairing():
    chart = build_orbit_chart(3)
    g1 = arnold_metric(chart)
    g2 = saito_metric(g1)
    gens = saito_flat_coordinates(g2, chart.degrees)
    assert [g.total_degree() for g in gens] == [2, 1, 1]
    # pairing of the flat generator differentials must be constant
    conn_free = [
        [
            sum(
                (gens[a].diff(i) * g2.g[i][j] * gens[b].diff(j) for i in range(3) for j in range(3)),
                QPoly.zero(3),
            )
            for b in range(3)
        ]
        for a in range(3)
    ]
    assert all(x.is_constant() for row in conn_free for x in row)


def test_inverse_generator_map():
    chart = build_orbit_chart(3)
    t_polys = flat_generators(chart)
    images = invert_graded_map(t_polys)
    for a in range(chart.rank):
        assert (t_polys[a].substitute(images) - QPoly.var(chart.rank, a)).is_zero()


@pytest.mark.parametrize("rank_n,expected_d", [(1, Q(0)), (2, Q(1, 3)), (3, Q(1, 2))])
def test_pencil_degrees(rank_n, expected_d, a1, a2, a3):
    bundle, _recon = {1: a1, 2: a2, 3: a3}[rank_n]
    assert bundle.pencil.d == expected_d


def test_a1_recovers_cubic(a1, cubic):
    _bundle, recon = a1
    assert recon.frobenius.potential == cubic.potential
    assert recon.frobenius.eta == [[Q(1)]]


def test_reports_all_pass(a1, a2, a3):
    for bundle, recon in (a1, a2, a3):
        assert bundle.report.passed
        assert recon.report.passed
        assert recon.frobenius.potential.is_polynomial()


def test_eta_pairs_unity_column(a2, a3):
    # e^a = eta^{a n} with e the unit vector on the first flat generator.
    for bundle, _recon in (a2, a3):
        n = bundle.pencil.n
        eta = bundle.pencil.g2.constant_entries()
        for a in range(n):
            assert eta[a][n - 1] == (1 if a == 0 else 0)


def test_rank_four_pipeline_runs():
    bundle, recon = coxeter_pencil(4)
    assert bundle.pencil.d == Q(3, 5)
    assert recon.mode == "regular"
    assert bundle.report.passed
    assert recon.frobenius.potential.is_polynomial()


def test_rank_five_pipeline_and_central_charge():
    bundle, recon = coxeter_pencil(5)
    assert bundle.pencil.d == Q(2, 3)
    assert bundle.report.passed and recon.report.passed
    assert recon.frobenius.potential.is_polynomial()
    # Independent oracle: c = 12 rho^2 from the A5 root system.
    charge = central_charge(recon.frobenius, coxeter_rank=5)
    assert charge.c_formula == charge.c_lie == 210


def test_flat_generator_ambiguity_is_eta_isometry(a3):
    # Rescaling the middle (weight-distinct) generator is the only freedom
    # at fixed grading away from the pinned top/bottom slots; composing the
    # two presentations gives a constant linear map relating the two eta
    # matrices as a congruence.
    bundle, _recon = a3
    n = 3
    eta = bundle.pencil.g2.constant_entries()
    scale = Q(5, 7)
    m = [[Q(1 if i == j else 0) for j in range(n)] for i in range(n)]
    m[1][1] = scale
    eta2 = [[sum(m[a][i] * eta[i][j] * m[b][j] for i in range(n) for j in range(n)) for b in range(n)] for a in range(n)]
    # the relating map between the two outputs is m itself: constant,
    # invertible, and carrying eta to eta2
    assert rank(m) == n
    assert eta2[1][1] == eta[1][1] * scale * scale
    back = mat_inverse(m)
    eta_back = [
        [sum(back[a][i] * eta2[i][j] * back[b][j] for i in range(n) for j in range(n)) for b in range(n)]
        for a in range(n)
    ]
    assert eta_back == eta
