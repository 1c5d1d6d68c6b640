"""Fuzzing of the expression grammar and the JSON loaders under the
exit-code contract: a malformed input ends in `ParseError` or
`InputFormatError` (exit 3), never in another exception.

Most drawn files are a valid skeleton with one field replaced or deleted,
so that the draw reaches the parser and the field checks behind it.

The integration kernel `qpoly.primitive` is fuzzed too: on the k-th
derivatives of a drawn quasi-polynomial it must give that quasi-polynomial
back, without its polynomial part of degree below k, and agree with the
staircase oracle.

The connection kernel `geometry.levi_civita` is checked on drawn symmetric
metrics against `numerator_connection`, which puts every entry over det,
and against the metricity condition it holds by construction.

The determinant and adjugate kernels `linalg.sym_det` and
`linalg.sym_adjugate`, which share memoized minors, are checked on drawn
symmetric matrices up to 5x5, singular ones among them, against the plain
Laplace expansion of `laplace_oracle`, and the degeneracy test
`ContraMetric.is_degenerate` against the expanded determinant.

The fraction-free elimination kernel behind `linalg.rank`, `nullspace`,
`solve_affine`, `mat_inverse` and `det_value` is checked on drawn
rectangular, rank-deficient and augmented matrices of ints and Fractions
against the `Fraction` Gauss-Jordan elimination and Bareiss determinant of
`elimination_oracle`, errors included.  `linalg.charpoly`, Faddeev-LeVerrier
over the integer matrix that clearing denominators once gives, is checked
against the loop over `Fraction` of the same oracle, on drawn dense,
singular, diagonal and zero matrices up to 8x8.

The index kernel `geometry.contract` is checked against the written-out
sum over the contracted index, on drawn tensors of rank 1-3 whose entries
carry exponential factors, every slot of them, and Fraction matrices with
zero rows and zero entries.

The closedness test `geometry.require_closed` is checked on drawn rank-2
and rank-3 tensors, closed ones (derivatives of a drawn quasi-polynomial)
and ones with one entry perturbed, against the two written-out loops it
replaced (the recursion's and the potential recovery's): same first index,
same message.  `reconstruction._unity_presentation_matrix` is checked on
drawn nonzero vectors of ints and Fractions, zeros among them: it maps e to
the unit vector at its first nonzero index, equals the two-branch
construction it replaced, and is the identity exactly on that unit vector.

`linalg.rational_roots`, which runs on the primitive integer polynomial, is
checked against the `Fraction` version of `elimination_oracle` on drawn
products of rational linear factors of multiplicity 1-3, zero roots, an
irreducible factor and an overall rational scale, coefficients up to about
10^30.  The constant checks of `reconstruction.operator_pair` and the eta
scaling of `frobenius.check_quasihomogeneity`, which run on the integer
matrices that clearing denominators gives, are checked against their
`Fraction` forms in the same oracle on drawn constant data: skew and broken
skew operators, triangular ones with repeated eigenvalues, zero entries,
and tau gradients that are root vectors or not.  They must agree on every
verdict and message, on the spectrum and its bases, and on the rank of
every Gram matrix of the root-space pairing.
"""

import copy
import json
from functools import reduce
from operator import getitem
from itertools import product
from fractions import Fraction as Q
from pathlib import Path
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import elimination_oracle as oracle  # noqa: E402
from flatpencil.errors import (  # noqa: E402
    InputFormatError,
    IntegrabilityError,
    NoSolutionError,
    NotQuasihomogeneousError,
    ParseError,
)
from flatpencil.exprparse import parse_expr  # noqa: E402
from flatpencil.frobenius import FrobeniusData, check_quasihomogeneity  # noqa: E402
from flatpencil.geometry import ContraMetric, contract, levi_civita, linear_forms, require_closed  # noqa: E402
from flatpencil.linalg import (  # noqa: E402
    charpoly,
    clear_denominators,
    det_value,
    identity_matrix,
    mat_inverse,
    mat_mul,
    nullspace,
    rank,
    rational_roots,
    solve_affine,
    sym_adjugate,
    sym_det,
)
from flatpencil.pencilio import load_frobenius, load_pencil  # noqa: E402
from flatpencil.qpoly import QPoly, RatFunc, dot, primitive  # noqa: E402
from flatpencil.reconstruction import _unity_presentation_matrix, operator_pair  # noqa: E402
from connection_oracle import numerator_connection  # noqa: E402
from frobenius_oracle import metricity_residuals  # noqa: E402
from laplace_oracle import laplace_adjugate, laplace_det  # noqa: E402
from staircase_oracle import staircase_primitive  # noqa: E402

TESTDATA = Path(__file__).resolve().parent.parent / "testdata"
SKELETONS = [
    (load_pencil, json.loads((TESTDATA / "n1-pencil.json").read_text())),
    (load_frobenius, json.loads((TESTDATA / "cp1-frobenius.json").read_text())),
    (load_frobenius, json.loads((TESTDATA / "n1-cubic-frobenius.json").read_text())),
]

# Grammar tokens and near misses.  Exponents stay small so that a valid draw
# expands quickly; 65 crosses the degree bound before any expansion.
TOKENS = [
    "t1", "t2", "t3", "t0", "t", "x", "exp", "sqrt", "(", ")", "+", "-", "*", "/", "^",
    "0", "1", "2", "3", "65", "1/2", "-1", "1000000000", " ", "\n", "²", "٣", "é", ".", ",",
]
expressions = st.one_of(st.lists(st.sampled_from(TOKENS), max_size=30).map("".join), st.text(max_size=30))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | expressions,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def slots(node, path=()):
    """Every (path to container, key) inside a JSON value."""
    items = enumerate(node) if isinstance(node, list) else node.items() if isinstance(node, dict) else ()
    for key, child in items:
        yield path, key
        yield from slots(child, (*path, key))


@st.composite
def near_valid_files(draw):
    load, skeleton = draw(st.sampled_from(SKELETONS))
    data = copy.deepcopy(skeleton)
    path, key = draw(st.sampled_from([*slots(data), ((), "unknown")]))
    parent = data
    for step in path:
        parent = parent[step]
    if draw(st.booleans()) and key in (range(len(parent)) if isinstance(parent, list) else parent):
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return load, json.dumps(data)


def pencil_text(g1, expgens=()):
    return json.dumps({"schema": 1, "n": 1, "expgens": [list(g) for g in expgens], "g1": [[g1]], "g2": [["1"]]})


HOSTILE_EXPRESSIONS = [
    "1" + "2" * 4999 + "*t1",
    "t" + "1" * 5000,
    "t1^²",
    "exp(1000000000*t1)^2",
    "exp(2000000000*t1)",
    "(" * 300 + "t1" + ")" * 300,
    "t1 +\xa02",
]


def hostile_examples(test):
    for text in HOSTILE_EXPRESSIONS:
        test = example(text=text, nvars=1)(test)
    return test


@hostile_examples
@given(text=expressions, nvars=st.integers(1, 3))
def test_parse_expr_raises_only_parse_error(text, nvars):
    try:
        parse_expr(text, nvars)
    except ParseError:
        pass


def hostile_files(test):
    texts = [pencil_text(text, [[1, "1"]]) for text in HOSTILE_EXPRESSIONS]
    texts.append('{"schema": 1, "n": 1, "g1": [["t1"]], "g2": [["1"]], "d": ' + "9" * 5000 + "}")
    texts.append("[" * 100000 + "]" * 100000)
    for text in texts:
        test = example(case=(load_pencil, text))(test)
    return test


@hostile_files
@given(case=near_valid_files())
def test_loaders_raise_only_input_errors(case):
    load, text = case
    try:
        load(text)
    except (InputFormatError, ParseError):
        pass


RATES = [Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 2)]


@st.composite
def quasi_polynomials(draw):
    """A QPoly in 1-3 variables with rational coefficients, some of its
    terms carrying exponential factors on one or two axes."""
    nvars = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        pows = tuple(draw(st.lists(st.integers(0, 4), min_size=nvars, max_size=nvars)))
        axes = draw(st.sets(st.integers(0, nvars - 1), max_size=min(2, nvars)))
        efac = tuple((axis, draw(st.sampled_from(RATES))) for axis in sorted(axes))
        coeff = draw(st.fractions(min_value=-5, max_value=5, max_denominator=7))
        terms[(pows, efac)] = terms.get((pows, efac), Q(0)) + coeff
    return QPoly(nvars, terms)


def derivatives(h: QPoly, order: int, leaf=lambda h: h):
    """The tensor d_{i1}...d_{ik} h as nested lists, k = ``order``, with
    ``leaf`` applied to each entry."""
    if order == 0:
        return leaf(h)
    return [derivatives(h.diff(i), order - 1, leaf) for i in range(h.nvars)]


@given(h=quasi_polynomials(), order=st.integers(1, 3))
def test_primitive_inverts_derivatives(h, order):
    tensor = derivatives(h, order)
    got = primitive(tensor, order)
    assert got == h - h.poly_part_degree_at_most(order - 1)
    assert got == staircase_primitive(tensor, order)


@st.composite
def small_quasi_polynomials(draw, nvars, with_exp):
    """Up to three multilinear terms, each with at most one exp factor when
    ``with_exp``; small enough that a 3-dim det stays cheap."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        pows = tuple(draw(st.lists(st.integers(0, 1), min_size=nvars, max_size=nvars)))
        axes = draw(st.sets(st.integers(0, nvars - 1), max_size=1)) if with_exp else ()
        efac = tuple((axis, draw(st.sampled_from(RATES[:3]))) for axis in sorted(axes))
        coeff = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        terms[(pows, efac)] = terms.get((pows, efac), Q(0)) + coeff
    return QPoly(nvars, terms)


@st.composite
def symmetric_metrics(draw):
    """A symmetric 2- or 3-dim metric with nonzero det.  Either U D U^T with
    U unit upper triangular and D a constant diagonal, whose det is the
    constant det D, so every connection entry divides; or independent
    entries, whose connection mostly keeps det.  Entries carry exp factors
    when drawn so."""
    n = draw(st.integers(2, 3))
    with_exp = draw(st.booleans())
    entry = small_quasi_polynomials(n, with_exp)
    if draw(st.booleans()):
        one, zero = QPoly.const(n, 1), QPoly.zero(n)
        u = [[one if i == j else draw(entry) if i < j else zero for j in range(n)] for i in range(n)]
        diag = [draw(st.sampled_from([Q(1), Q(-1), Q(2), Q(1, 3)])) for _ in range(n)]
        rows = [[dot(n, [(u[i][s], u[j][s] * diag[s]) for s in range(n)]) for j in range(n)] for i in range(n)]
    else:
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(entry)
    g = ContraMetric(rows)
    assume(not g.det.is_zero())
    return g


def metric_from_text(rows):
    n = len(rows)
    return ContraMetric([[parse_expr(x, n) for x in row] for row in rows])


@given(g=symmetric_metrics())
@example(g=metric_from_text([["2*exp(t2)", "t1"], ["t1", "2"]]))
@example(g=metric_from_text([["1", "0"], ["0", "t1^2"]]))
@example(
    g=metric_from_text(
        [
            ["-t1*t2-3*t2*t3+3*t3", "-t1*t3-2*t2", "0"],
            ["-t1*t3-2*t2", "-5*t3", "t1*t2*t3-3"],
            ["0", "t1*t2*t3-3", "0"],
        ]
    )
)
def test_connection_matches_numerator_oracle(g):
    gamma = levi_civita(g).gamma
    oracle = numerator_connection(g)
    for k, i, j in product(range(g.n), repeat=3):
        got, want = gamma[k][i][j], oracle[k][i][j]
        assert type(got) is type(want)
        if isinstance(want, RatFunc):
            assert (got.num, got.den) == (want.num, want.den)
        else:
            assert got == want
    assert all(res.is_zero() for _idx, res in metricity_residuals(g.g, gamma, g.n, g.n))


@st.composite
def symmetric_matrices(draw):
    """A symmetric n x n matrix, n <= 5, of small quasi-polynomials; made
    singular when drawn so, by a zero row and column or by repeating the
    first row and column as the last."""
    n = draw(st.integers(1, 5))
    entry = small_quasi_polynomials(n, draw(st.booleans()))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entry)
    singular = draw(st.sampled_from(["no", "zero", "repeat"]))
    if singular == "zero":
        for i in range(n):
            rows[i][n - 1] = rows[n - 1][i] = QPoly.zero(n)
    elif singular == "repeat" and n > 1:
        for i in range(n - 1):
            rows[i][n - 1] = rows[n - 1][i] = rows[i][0]
        rows[n - 1][n - 1] = rows[0][0]
    return rows


@settings(max_examples=60)
@given(m=symmetric_matrices())
def test_memoized_minors_match_laplace_oracle(m):
    n = len(m)
    memo = {}
    det = sym_det(m, n, memo)
    assert det == laplace_det(m, n)
    assert sym_adjugate(m, n, memo) == laplace_adjugate(m, n)
    assert sym_adjugate(m, n) == laplace_adjugate(m, n)
    assert ContraMetric(m).is_degenerate() == det.is_zero()


scalars = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)


@st.composite
def rational_matrices(draw, nrows=None, ncols=None):
    """An nrows x ncols matrix of ints and Fractions (sizes up to 5 x 6 when
    not given) in which each row after the first is, when drawn so, a
    combination of the rows above it: rank deficiency."""
    nrows = draw(st.integers(0, 5)) if nrows is None else nrows
    ncols = draw(st.integers(1, 6)) if ncols is None else ncols
    rows = []
    for i in range(nrows):
        if i and draw(st.booleans()):
            coeffs = draw(st.lists(scalars, min_size=i, max_size=i))
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(scalars, min_size=ncols, max_size=ncols)))
    return rows


def outcome(f, *args):
    try:
        return f(*args)
    except NoSolutionError as exc:
        return ("NoSolutionError", str(exc))


@given(a=rational_matrices())
def test_rank_and_nullspace_match_elimination_oracle(a):
    assert rank(a) == oracle.rank(a)
    assert nullspace(a) == oracle.nullspace(a)


augmented_systems = st.integers(0, 5).flatmap(
    lambda n: st.tuples(rational_matrices(nrows=n), st.lists(scalars, min_size=n, max_size=n))
)


@given(system=augmented_systems)
@example(system=([[1, 2], [2, 4]], [1, 3]))
def test_solve_affine_matches_elimination_oracle(system):
    a, b = system
    assert outcome(solve_affine, a, b) == outcome(oracle.solve_affine, a, b)


@given(a=st.integers(0, 5).flatmap(lambda n: rational_matrices(nrows=n, ncols=n)))
@example(a=[[1, 2], [2, 4]])
@example(a=[[0, 1, 2], [1, Q(1, 2), 0], [3, 0, 1]])
def test_det_value_and_inverse_match_elimination_oracle(a):
    assert det_value(a) == oracle.det_value(a)
    assert outcome(mat_inverse, a) == outcome(oracle.mat_inverse, a)


@st.composite
def square_matrices(draw):
    """An n x n matrix of ints and Fractions, n = 1-8: drawn by
    `rational_matrices` (singular ones among them), diagonal, or zero."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["dense", "diagonal", "zero"]))
    if kind == "dense":
        return draw(rational_matrices(nrows=n, ncols=n))
    diagonal = draw(st.lists(scalars, min_size=n, max_size=n)) if kind == "diagonal" else [0] * n
    return [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]


@given(a=square_matrices())
@example(a=[[0]])
@example(a=[[Q(1, 2), 0], [0, Q(-2, 3)]])
@example(a=[[1, 2], [2, 4]])
def test_charpoly_matches_elimination_oracle(a):
    assert charpoly(a) == oracle.charpoly(a)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def rational_root_polynomials(draw):
    """Coefficients, highest first, of c x^z r(x) prod (q x - p)^m: c a
    rational scale up to about 10^30, z zero roots, r 1 or an irreducible
    factor, and up to four linear factors of multiplicity m = 1-3; leading
    zeros when drawn so."""
    scale = Q(draw(st.integers(-(10**30), 10**30).filter(bool)), draw(st.integers(1, 10**6)))
    poly = poly_mul([scale], draw(st.sampled_from([[1], [1, 0, -2], [1, 0, 0, -3], [2, 0, 1], [1, 1, 1]])))
    for _ in range(draw(st.integers(0, 4))):
        factor = [draw(st.integers(1, 12)), -draw(st.integers(-40, 40))]
        for _ in range(draw(st.integers(1, 3))):
            poly = poly_mul(poly, factor)
    return [0] * draw(st.integers(0, 1)) + poly + [0] * draw(st.integers(0, 3))


@given(coeffs=rational_root_polynomials())
@example(coeffs=[Q(3, 2)])
@example(coeffs=[0, 4, -4, 1])
@example(coeffs=[Q(-9, 7), Q(6, 7), Q(3, 7), 0, 0])
@example(coeffs=[4, -12, 9, 0])
def test_rational_roots_match_fraction_oracle(coeffs):
    assert rational_roots(coeffs) == oracle.rational_roots(coeffs)


def transpose(a):
    return [list(col) for col in zip(*a)]


@st.composite
def nondegenerate_etas(draw, n):
    """A symmetric nondegenerate n x n Fraction matrix: diagonal, antidiagonal
    or dense."""
    kind = draw(st.sampled_from(["diagonal", "antidiagonal", "dense"]))
    if kind == "dense":
        eta = [[Q(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                eta[i][j] = eta[j][i] = Q(draw(scalars))
        assume(det_value(eta) != 0)
        return eta
    diag = draw(st.lists(st.sampled_from([Q(1), Q(-1), Q(1, 2), Q(-3)]), min_size=n, max_size=n))
    partner = (lambda i: n - 1 - i) if kind == "antidiagonal" else (lambda i: i)
    return [[diag[min(i, partner(i))] if j == partner(i) else Q(0) for j in range(n)] for i in range(n)]


@st.composite
def skew_matrices(draw, n):
    skew = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            skew[i][j] = Q(draw(scalars))
            skew[j][i] = -skew[i][j]
    return skew


def perturbed(draw, matrix):
    """``matrix``, or a copy with one entry moved when drawn so."""
    if draw(st.booleans()):
        matrix = [row[:] for row in matrix]
        n = len(matrix)
        matrix[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += draw(st.sampled_from([1, Q(-1, 3)]))
    return matrix


@st.composite
def constant_operator_data(draw):
    """(K, eta^{ij}, d, dtau) for n = 1-4.  Lam = (d-2)/2 + K is eta^{-1} A
    for a drawn skew A (zero, or with zero entries, among them), so that it
    is eta-skew, or upper triangular with eigenvalues drawn from four values,
    so that they repeat; one entry moved when drawn so.  dtau is drawn, or a
    basis vector of a root space of Lam at value lam, with d = -2 lam."""
    n = draw(st.integers(1, 4))
    eta = draw(nondegenerate_etas(n))
    if draw(st.booleans()):
        lam = mat_mul(mat_inverse(eta), draw(skew_matrices(n)))
    else:
        values = draw(st.lists(st.sampled_from([Q(0), Q(1, 2), Q(-1, 2), Q(2)]), min_size=n, max_size=n))
        lam = [[values[i] if i == j else Q(draw(scalars)) if j > i else Q(0) for j in range(n)] for i in range(n)]
    lam = perturbed(draw, lam)
    roots = oracle.rational_roots(oracle.charpoly(lam))[0]
    if roots and draw(st.booleans()):
        value, _mult = draw(st.sampled_from(roots))
        shifted = [[lam[i][j] - (value if i == j else 0) for j in range(n)] for i in range(n)]
        d, dtau = -2 * value, draw(st.sampled_from(oracle.nullspace(shifted)))
    else:
        d, dtau = Q(draw(scalars)), [Q(x) for x in draw(st.lists(scalars, min_size=n, max_size=n))]
    k_op = [[lam[i][j] - (Q(d - 2) / 2 if i == j else 0) for j in range(n)] for i in range(n)]
    return k_op, eta, d, dtau


@given(case=constant_operator_data())
@example(case=([[Q(1, 3), 0], [0, Q(4, 3)]], [[Q(0), Q(1)], [Q(1), Q(0)]], Q(1, 3), [Q(0), Q(1)]))
def test_operator_pair_matches_fraction_checks(case):
    k_op, eta, d, dtau = case
    n = len(k_op)
    # operator_pair reads these five attributes of a pencil; E^j = K_ij t^i.
    pencil = SimpleNamespace(
        n=n, eta_up=eta, degree=d, euler=(linear_forms(transpose(k_op)), None), tau=linear_forms([dtau])[0]
    )
    ops = operator_pair(pencil)
    skew_ok, eig_ok, spectrum, pairing, ranks = oracle.operator_checks(k_op, eta, d, dtau)
    certs = {c.name: c for c in ops.certificates}
    assert certs["lambda-skew-symmetry"].passed == skew_ok
    assert certs["tau-gradient-eigencovector"].passed == eig_ok
    assert (certs["root-space-pairing"].status, certs["root-space-pairing"].witness) == pairing
    assert [(s.value, s.basis) for s in ops.spectrum] == spectrum
    assert all(type(x) is Q for s in ops.spectrum for x in [s.value, *sum(s.basis, [])])
    if ranks is not None:
        # Gram matrices of the bases and eta with their denominators cleared
        # have the ranks of the Fraction ones.
        eta_int = clear_denominators(eta)[0]
        bases = [clear_denominators(s.basis)[0] for s in ops.spectrum]
        assert {
            (i, j): rank(mat_mul(mat_mul(b1, eta_int), transpose(b2)))
            for i, b1 in enumerate(bases)
            for j, b2 in enumerate(bases)
        } == ranks


@st.composite
def eta_scaling_data(draw):
    """(K, eta_ab, d) for n = 1-4: K = (2-d)/2 + eta^{-1} B for a drawn skew
    B, so that K^T eta + eta K = (2-d) eta, one entry moved when drawn so."""
    n = draw(st.integers(1, 4))
    eta = draw(nondegenerate_etas(n))
    d = draw(st.sampled_from([0, 1, Q(1, 3), Q(-2, 5), 2]))
    k = mat_mul(mat_inverse(eta), draw(skew_matrices(n)))
    k = perturbed(draw, [[x + (Q(2 - d) / 2 if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(k)])
    return k, eta, d


@given(case=eta_scaling_data())
def test_eta_scaling_matches_fraction_check(case):
    k, eta, d = case
    n = len(k)
    m = FrobeniusData(n=n, eta=eta, potential=QPoly.zero(n), euler_linear=k, euler_const=[0] * n, unity=0, d=d)
    try:
        check_quasihomogeneity(m)
        message = None
    except NotQuasihomogeneousError as exc:
        message = str(exc)
    assert message == oracle.eta_scaling_failure(k, eta, d)


@st.composite
def contractions(draw):
    """(matrix, tensor, slot, rank, n): an n x n Fraction matrix, some rows
    and entries zero, and a slot of a rank 1-3 tensor of quasi-polynomials
    in n = 1-3 variables with exponential factors."""
    n = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 3))
    entry = st.one_of(st.just(Q(0)), st.fractions(min_value=-6, max_value=6, max_denominator=7))
    row = st.one_of(st.just([Q(0)] * n), st.lists(entry, min_size=n, max_size=n))
    matrix = draw(st.lists(row, min_size=n, max_size=n))

    def tensor(depth):
        return draw(small_quasi_polynomials(n, True)) if depth == 0 else [tensor(depth - 1) for _ in range(n)]

    return matrix, tensor(rank), draw(st.integers(0, rank - 1)), rank, n


@given(case=contractions())
@example(case=([[Q(0), Q(2)], [Q(0), Q(0)]], [parse_expr("t1", 2), parse_expr("exp(t2)", 2)], 0, 1, 2))
def test_contract_matches_written_out_sums(case):
    matrix, tensor, slot, rank, n = case
    got = contract(matrix, tensor, slot, n)
    for idx in product(range(n), repeat=rank):
        expected = QPoly.zero(n)
        for l in range(n):
            moved = idx[:slot] + (l,) + idx[slot + 1 :]
            expected = expected + reduce(getitem, moved, tensor) * matrix[idx[slot]][l]
        assert reduce(getitem, idx, got) == expected, idx


def recursion_closedness(target):
    """The recursion's written-out closedness loop, returning its message."""
    n = len(target)
    for a in range(n):
        for b in range(n):
            for c in range(b + 1, n):
                if target[a][b].diff(c) != target[a][c].diff(b):
                    return f"target gradient is not symmetric at ({a + 1},{b + 1},{c + 1})"
    return None


def recovery_closedness(c_low):
    """The potential recovery's written-out closedness loop, returning its message."""
    n = len(c_low)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for dd in range(c + 1, n):
                    if c_low[a][b][c].diff(dd) != c_low[a][b][dd].diff(c):
                        return f"gradient of c is not symmetric at indices ({a + 1},{b + 1},{c + 1},{dd + 1})"
    return None


CLOSEDNESS = {
    2: ("target gradient is not symmetric at", recursion_closedness),
    3: ("gradient of c is not symmetric at indices", recovery_closedness),
}


@st.composite
def gradient_tensors(draw):
    """(tensor, order), k = order = 2 or 3: d^k h for a drawn h with zero to
    two drawn entries replaced by drawn quasi-polynomials, or a tensor of
    independently drawn entries, which is rarely closed anywhere."""
    h = draw(quasi_polynomials())
    order = draw(st.sampled_from([2, 3]))
    entry = small_quasi_polynomials(h.nvars, True)
    indices = st.lists(st.integers(0, h.nvars - 1), min_size=order, max_size=order)
    if draw(st.booleans()):
        return derivatives(h, order, lambda _h: draw(entry)), order
    tensor = derivatives(h, order)
    for idx in draw(st.lists(indices, max_size=2)):
        reduce(getitem, idx[:-1], tensor)[idx[-1]] = draw(entry)
    return tensor, order


@given(case=gradient_tensors())
def test_require_closed_matches_written_out_loops(case):
    tensor, order = case
    what, reference = CLOSEDNESS[order]
    expected = reference(tensor)
    if expected is None:
        require_closed(tensor, what)
    else:
        with pytest.raises(IntegrabilityError) as info:
            require_closed(tensor, what)
        assert str(info.value) == expected


def two_branch_presentation(e_comps):
    """The unity presentation as two branches: the identity for a unit e,
    else each row built on its own."""
    n = len(e_comps)
    nonzero = [i for i, v in enumerate(e_comps) if v != 0]
    u = nonzero[0]
    matrix = identity_matrix(n)
    if len(nonzero) == 1 and e_comps[u] == 1:
        return matrix, u
    for a in range(n):
        if a == u:
            matrix[a] = [Q(1) / e_comps[u] if b == u else Q(0) for b in range(n)]
        else:
            matrix[a] = [
                Q(1) if b == a else (-e_comps[a] / e_comps[u] if b == u else Q(0))
                for b in range(n)
            ]
    return matrix, u


constant_vectors = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=n, max_size=n
    )
).filter(any)


@given(e=constant_vectors)
@example(e=[0, 1, 0])
@example(e=[Q(0), Q(1)])
@example(e=[0, 0, Q(-1, 2), 3])
def test_unity_presentation_matrix(e):
    n = len(e)
    matrix, u = _unity_presentation_matrix(e)
    assert u == next(i for i, v in enumerate(e) if v)
    assert all(type(x) is Q for row in matrix for x in row)
    unit = [int(i == u) for i in range(n)]
    assert [sum(m * v for m, v in zip(row, e)) for row in matrix] == unit
    # The reference divides with `/`, which gives a float on two ints, so it
    # is handed Fractions, as the construction is in the program.
    assert (matrix, u) == two_branch_presentation([Q(v) for v in e])
    assert (matrix == identity_matrix(n)) == (e == unit)
