"""Type-A Coxeter orbit spaces: invariant generators, the orbit-space
metric, the unity-flow (Saito) metric, flat generators, and the certified
quasihomogeneous pencil of degree d = 1 - 2/h.

The group A_n acts on the zero-sum hyperplane H of R^{n+1} by permuting
the h = n + 1 ambient coordinates y_1..y_h.  The invariant generators are
the power sums s_k = y_1^k + ... + y_h^k,

    p_1 = s_h, p_2 = s_{h-1}, ..., p_n = s_2,

ordered by decreasing degree, so deg p_1 = h.  On H the Euclidean pairing
of invariant differentials has the closed form

    (ds_a, ds_b) = a b (s_{a+b-2} - s_{a-1} s_{b-1} / h),   s_0 = h, s_1 = 0,

and Newton's identities write the power sums s_k with h < k <= 2h - 2 in
the generators, so the orbit metric is built in the generators directly,
exact over Q, with no chart polynomial and no invariant rewrite on the
pipeline path.  Both metrics then reach the flat generators t through the
Jacobian of t in the generators p (:func:`geometry.push_metric`), with p
written back in t by the triangular inverse of the graded map.
:func:`rewrite_in_generators` remains as a utility that expresses an
invariant polynomial in given generators by exact linear solves.
"""

from __future__ import annotations

from fractions import Fraction

from . import reports
from .errors import GradingError, InternalCheckError, NoSolutionError, RewriteError, UnderdeterminedError
from .geometry import (
    ContraMetric,
    PencilData,
    check_flat_pencil,
    check_quasihomogeneous,
    covariant_derivative,
    levi_civita,
    push_metric,
)
from .linalg import exact_linsolve, nullspace
from .qpoly import QPoly, dot
from .reconstruction import ReconstructionResult, reconstruct_frobenius
from .reports import Certificate, Report

Q = Fraction


class OrbitChart:
    """Grading of the A_rank invariant generators p_a = s_{h-a}."""

    def __init__(self, rank: int, h: int, degrees: list[int]):
        self.rank = rank
        self.h = h
        self.degrees = degrees  # decreasing, degrees[0] = h


class CoxeterPencil:
    def __init__(
        self,
        chart: OrbitChart,
        pencil: PencilData,
        unity_scale: Q,
        report: Report | None = None,
    ):
        self.chart = chart
        self.pencil = pencil  # in the normalized flat generators
        self.unity_scale = unity_scale  # e = (1/scale) d/dp_1 relative to the raw chart
        self.report = Report() if report is None else report


def build_orbit_chart(rank: int) -> OrbitChart:
    """Grading of the power-sum generators of A_rank, for ranks 1..8."""
    if not 1 <= rank <= 8:
        raise ValueError(f"rank {rank} out of supported range 1..8")
    h = rank + 1
    return OrbitChart(rank=rank, h=h, degrees=list(range(h, 1, -1)))


def weighted_monomials(degrees: list[int], target: int) -> list[tuple[int, ...]]:
    """Exponent vectors m with sum m_a * degrees[a] == target."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], axis: int, remaining: int) -> None:
        if axis == len(degrees):
            if remaining == 0:
                out.append(tuple(prefix))
            return
        step = degrees[axis]
        for m in range(remaining // step + 1):
            rec(prefix + [m], axis + 1, remaining - m * step)

    rec([], 0, target)
    return out


def rewrite_in_generators(
    value: QPoly, gens: list[QPoly], degrees: list[int]
) -> QPoly:
    """Express an invariant chart polynomial in the generators.

    Solves the exact linear system matching coefficients degree by degree;
    inconsistency means the input was not in the generated subring.
    """
    n = len(gens)
    rank = value.nvars
    pieces: dict[int, QPoly] = {}
    for (pows, efac), coeff in value.terms.items():
        if efac:
            raise RewriteError("exponential terms cannot be invariant polynomials")
        deg = sum(pows)
        pieces.setdefault(deg, QPoly.zero(rank))
        pieces[deg] = pieces[deg] + QPoly(rank, {(pows, efac): coeff})

    result = QPoly.zero(n)
    power_cache: dict[tuple[int, int], QPoly] = {}

    def gen_power(a: int, m: int) -> QPoly:
        got = power_cache.get((a, m))
        if got is None:
            got = gens[a] ** m
            power_cache[(a, m)] = got
        return got

    for deg, piece in sorted(pieces.items()):
        if piece.is_zero():
            continue
        if deg == 0:
            result = result + QPoly.const(n, piece.constant_value())
            continue
        candidates = weighted_monomials(degrees, deg)
        if not candidates:
            raise RewriteError(f"no invariant monomials of degree {deg}")
        columns = []
        for m in candidates:
            prod = QPoly.const(rank, 1)
            for a, e in enumerate(m):
                if e:
                    prod = prod * gen_power(a, e)
            columns.append(prod)
        keys = sorted({k for col in columns for k in col.terms} | set(piece.terms))
        a_mat = [[col.terms.get(k, Q(0)) for col in columns] for k in keys]
        b_vec = [piece.terms.get(k, Q(0)) for k in keys]
        try:
            sol = exact_linsolve(a_mat, b_vec)
        except (NoSolutionError, UnderdeterminedError) as exc:
            raise RewriteError(f"degree-{deg} component is not invariant: {exc}") from exc
        for coeff, m in zip(sol, candidates):
            if coeff:
                key = (m, ())
                result = result + QPoly(n, {key: coeff})
    return result


def arnold_metric(chart: OrbitChart) -> ContraMetric:
    """Euclidean pairing of the generator differentials on the hyperplane,

        (ds_a, ds_b) = a b (s_{a+b-2} - s_{a-1} s_{b-1} / h),

    written in the generators.  The power sums s_0..s_{2h-2} of the h
    ambient coordinates are s_0 = h, s_1 = 0, s_k = p_{h-k+1} for
    2 <= k <= h; Newton's identities k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} s_i
    give the elementary symmetric e_1..e_h, and s_k = sum_{i=1..h}
    (-1)^(i-1) e_i s_{k-i} for k > h.
    """
    n, h = chart.rank, chart.h
    zero = QPoly.zero(n)
    s = [QPoly.const(n, h), zero] + [QPoly.var(n, h - k) for k in range(2, h + 1)]
    e = [QPoly.const(n, 1)]

    def alternating(pairs):
        """sum over i >= 1 of (-1)^(i-1) a_i b_i, for pairs[i - 1] = (a_i, b_i)"""
        return dot(n, pairs[::2], pairs[1::2])

    for k in range(1, h + 1):
        e.append(alternating([(e[k - i], s[i]) for i in range(1, k + 1)]) * Q(1, k))
    for k in range(h + 1, 2 * h - 1):
        s.append(alternating([(e[i], s[k - i]) for i in range(1, h + 1)]))
    entries = [[zero] * n for _ in range(n)]
    for i, a in enumerate(chart.degrees):
        for j in range(i, n):
            b = chart.degrees[j]
            entry = (s[a + b - 2] - s[a - 1] * s[b - 1] * Q(1, h)) * (a * b)
            entries[i][j] = entries[j][i] = entry
    return ContraMetric(entries)


def fields_and_tau(chart: OrbitChart) -> tuple[list[QPoly], QPoly]:
    """The components of the scaling field E = sum (deg_a/h) p_a d/dp_a and
    the quadratic invariant tau = (x, x)/(2h) = s_2/(2h).  The unity is
    e = d/dp_1."""
    n = chart.rank
    h = chart.h
    e_big = [QPoly.var(n, a) * Q(chart.degrees[a], h) for a in range(n)]
    tau = QPoly.var(n, n - 1) * Q(1, 2 * h)
    return e_big, tau


def saito_metric(g1: ContraMetric) -> ContraMetric:
    """Unity-flow metric: the derivative of the orbit metric along the unity
    e = d/dp_1, certified to have a constant nonzero determinant.  Its
    flatness is certified by :func:`coxeter_pencil`, which finds it constant
    in the flat generators.
    """
    n = g1.n
    entries = [[g1.g[a][b].diff(0) for b in range(n)] for a in range(n)]
    g2 = ContraMetric(entries)
    if not g2.det.is_constant() or g2.det.is_zero():
        raise InternalCheckError(f"unity-flow metric determinant is not a nonzero constant: {g2.det}")
    return g2


def saito_flat_coordinates(g2: ContraMetric, degrees: list[int]) -> list[QPoly]:
    """Graded flat generators of the unity-flow metric, one for each of the
    generator ``degrees``.

    For each generator degree D the covariant-constancy system
    nabla(dm) = 0 (``geometry.covariant_derivative``) for the differential
    of a weighted-degree-D polynomial m is a finite exact linear solve;
    type-A degrees are distinct so each solution space is a line,
    normalized so the coefficient of the pure generator p_a is 1.
    """
    n = g2.n
    conn = levi_civita(g2)
    gamma = conn.as_poly_entries()
    out = []
    for a, deg in enumerate(degrees):
        candidates = weighted_monomials(degrees, deg)
        basis = [QPoly(n, {(m, ()): Q(1)}) for m in candidates]
        rows_keys = set()
        images = []
        for mono in basis:
            dmono = [mono.diff(s) for s in range(n)]
            nabla = covariant_derivative(g2.g, gamma, dmono, [[d.diff(j) for j in range(n)] for d in dmono])
            per_ij = [entry.terms for row in nabla for entry in row]
            rows_keys.update(*per_ij)
            images.append(per_ij)
        keys = sorted(rows_keys)
        a_mat = [[Q(0)] * len(basis)]  # harmless row; keeps the shape when
        for pos in range(n * n):       # every residual vanishes identically
            for key in keys:
                a_mat.append([images[c][pos].get(key, Q(0)) for c in range(len(basis))])
        space = nullspace(a_mat)
        if len(space) != 1:
            raise GradingError(
                f"flat generator of degree {deg}: solution space has dimension {len(space)}"
            )
        vec = space[0]
        pure = candidates.index(tuple(1 if b == a else 0 for b in range(n)))
        if vec[pure] == 0:
            raise GradingError(f"flat generator of degree {deg} misses the generator direction")
        scale = 1 / vec[pure]
        out.append(dot(n, [(mono, coeff * scale) for coeff, mono in zip(vec, basis)]))
    return out


def invert_graded_map(t_polys: list[QPoly]) -> list[QPoly]:
    """Express the p generators in the flat generators t (triangular in the
    grading: each t^a is c_a p_a plus terms in strictly lower-degree p's)."""
    n = len(t_polys)
    images: list[QPoly | None] = [None] * n
    for a in reversed(range(n)):
        p_a = QPoly.var(n, a)
        coeff = t_polys[a].coefficient(int(b == a) for b in range(n))
        if not coeff:
            raise GradingError(f"flat generator {a + 1} is not triangular in the grading")
        rest = t_polys[a] - p_a * coeff
        if not rest.is_zero():
            partial = [images[b] if images[b] is not None else QPoly.zero(n) for b in range(n)]
            for (pows, _e), _v in rest.terms.items():
                if any(pows[b] and images[b] is None for b in range(n)):
                    raise GradingError("flat generator uses a not-yet-inverted generator")
            rest = rest.substitute(partial)
        images[a] = (p_a - rest) * (1 / coeff)
    for a in range(n):
        if not (t_polys[a].substitute(images) - QPoly.var(n, a)).is_zero():
            raise InternalCheckError("generator map inversion failed to verify")
    return images


def coxeter_pencil(rank: int) -> tuple[CoxeterPencil, ReconstructionResult]:
    """Assemble and certify the orbit-space pencil in normalized flat
    generators, then run the full inverse construction on it.

    saito-metric-flat and unity-normalized are PASS lines: the guards of
    the assembly imply them, as the comments where they are added say."""
    chart = build_orbit_chart(rank)
    n = chart.rank
    h = chart.h
    report = Report()

    g1_p = arnold_metric(chart)
    e_big_p, tau_p = fields_and_tau(chart)
    g2_p = saito_metric(g1_p)
    # g2 is flat: the guard below finds it constant in the flat generators.
    report.add(Certificate("saito-metric-flat", reports.PASS))

    # Guard: tau raised by the unity-flow metric is the raw unity itself,
    # which is what makes the later global rescale consistent.
    dtau = [tau_p.diff(s) for s in range(n)]
    for a in range(n):
        raised = dot(n, zip(g2_p.g[a], dtau))
        if not (raised - (1 if a == 0 else 0)).is_zero():
            raise InternalCheckError(
                f"unity-flow raise of tau is not d/dp_1 (component {a + 1}: {raised})"
            )
    report.add(Certificate("unity-from-tau", reports.PASS))

    t_polys = saito_flat_coordinates(g2_p, chart.degrees)
    # Pin the quadratic flat generator to tau itself.
    if not tau_p.coefficient(int(b == n - 1) for b in range(n)):
        raise InternalCheckError("tau does not involve the quadratic generator")
    t_polys[n - 1] = tau_p

    # Unity scale: e(t^1) in the chart; the unity-flow data is rescaled so
    # the unity becomes the unit vector along the first flat generator.
    kappa = t_polys[0].diff(0)
    for a in range(1, n):
        if not t_polys[a].diff(0).is_zero():
            raise InternalCheckError("lower-degree flat generator depends on p_1")
    if not kappa.is_constant() or kappa.is_zero():
        raise InternalCheckError("unity pairing with the top flat generator is not constant")
    kappa_val = kappa.constant_value()
    g2_p = ContraMetric([[g2_p.g[i][j] * (1 / kappa_val) for j in range(n)] for i in range(n)])

    # Both metrics reach the flat generators through the generator Jacobian.
    p_in_t = invert_graded_map(t_polys)
    g1_t = push_metric(g1_p, t_polys, p_in_t)
    eta = push_metric(g2_p, t_polys, p_in_t)
    for a in range(n):
        for b in range(n):
            if not eta.g[a][b].is_constant():
                raise InternalCheckError(
                    f"unity-flow metric is not constant in flat generators at ({a + 1},{b + 1})"
                )

    tau_t = QPoly.var(n, n - 1)
    d = 1 - Q(2, h)
    pencil = PencilData(g1=g1_t, g2=eta, tau=tau_t, d=d)

    # Each t^a is weighted homogeneous of degree deg p_a, so the grading
    # field keeps its form sum (deg_a/h) t^a d/dt^a in the flat generators,
    # where it is E = g1 grad(t^n); the degree is then the pencil's own.
    if pencil.euler[0] != e_big_p:
        raise InternalCheckError("grading field differs from E = g1 grad(tau) in the flat generators")
    inferred = pencil.inferred_degree
    report.add(reports.verdict("coxeter-degree", inferred == d, f"inferred {inferred}, expected {d}"))

    report.extend(check_flat_pencil(pencil).certificates)
    report.extend(check_quasihomogeneous(pencil).certificates)
    # e = eta grad(t^n) is the raised tau, d/dp_1 / kappa, so e^a =
    # d_{p_1} t^a / kappa: 1 for a = 1 by the choice of kappa and 0 for the
    # rest by the guard that no lower-degree generator depends on p_1.
    report.add(Certificate("unity-normalized", reports.PASS))

    recon = reconstruct_frobenius(pencil)
    report.add(reports.verdict("potential-polynomial", recon.frobenius.potential.is_polynomial()))
    report.extend(recon.report.certificates)

    bundle = CoxeterPencil(
        chart=chart,
        pencil=pencil,
        unity_scale=kappa_val,
        report=report,
    )
    return bundle, recon
