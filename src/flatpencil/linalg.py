"""Exact linear algebra over Q, plus generic helpers for symbolic matrices.

Every rational solve, kernel, rank and inverse runs one Gauss-Jordan
elimination over `Fraction` (`_rref`); rank deficiency is reported, never
papered over.  `rational_roots` decides every rational root in time
polynomial in the bit size of its input, by p-adic (Hensel) lifting of the
roots of the square-free part modulo one small prime; it refuses nothing.

The symbolic helpers (determinant, adjugate) take QPoly entries in
``nvars`` variables and expand along rows, each minor formed once per
matrix, keyed by its (row set, column set) bitmasks, and each cofactor sum
through `qpoly.dot`, one multiply-accumulate over one denominator.  The
determinant and the adjugate of one matrix may share that memo, and the
adjugate of a symmetric matrix is formed for j >= i only.  Where a
determinant only has to be nonzero, `sym_sample_values` evaluates the
entries exactly at one rational point and `det_value` forms the rational
determinant of those values, whose being nonzero proves the symbolic one
nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm

from .errors import NoSolutionError, UnderdeterminedError
from .qpoly import QPoly, dot

Q = Fraction

Matrix = list[list[Q]]
Vector = list[Q]


def exact_linsolve(a: Matrix, b: Vector) -> Vector:
    """Solve A x = b exactly: `solve_affine`, with an empty nullspace.

    Raises `NoSolutionError` on an inconsistent system and
    `UnderdeterminedError` when rank(A) < number of unknowns.
    """
    if len(a) != len(b):
        raise ValueError("matrix/vector size mismatch")
    ncols = len(a[0]) if a else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    x, null = solve_affine(a, b)
    if null:
        raise UnderdeterminedError(f"rank {ncols - len(null)} < {ncols} unknowns")
    return x


def solve_affine(a: Matrix, b: Vector) -> tuple[Vector, list[Vector]]:
    """A particular solution of A x = b together with a nullspace basis."""
    rows = len(a)
    ncols = len(a[0]) if rows else 0
    m, pivots = _rref([[Q(x) for x in row] + [Q(rhs)] for row, rhs in zip(a, b)])
    if ncols in pivots:
        raise NoSolutionError("inconsistent linear system")
    particular = [Q(0)] * ncols
    for r, c in enumerate(pivots):
        particular[c] = m[r][ncols]
    return particular, _nullspace_from_rref(m, pivots, ncols)


def nullspace(a: Matrix) -> list[Vector]:
    ncols = len(a[0]) if a else 0
    m, pivots = _rref([[Q(x) for x in row] for row in a])
    return _nullspace_from_rref(m, pivots, ncols)


def rank(a: Matrix) -> int:
    _m, pivots = _rref([[Q(x) for x in row] for row in a])
    return len(pivots)


def _rref(m: list[list[Q]]) -> tuple[list[list[Q]], list[int]]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _nullspace_from_rref(m: list[list[Q]], pivots: list[int], ncols: int) -> list[Vector]:
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Q(0)] * ncols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def mat_inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [[Q(x) for x in row] + [Q(1) if i == j else Q(0) for j in range(n)] for i, row in enumerate(a)]
    m, pivots = _rref(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise NoSolutionError("singular matrix")
    return [row[n:] for row in m]


def det_value(a: Matrix) -> Q:
    """The exact determinant of a matrix of ints and Fractions, by
    fraction-free (Bareiss) elimination over the integer rows that clearing
    each row's denominators gives; each division of the elimination is
    exact."""
    n = len(a)
    sign, scale = 1, 1
    rows = []
    for row in a:
        den = lcm(*(x.denominator for x in row))
        scale *= den
        rows.append([x.numerator * (den // x.denominator) for x in row])
    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot_row is None:
            return Q(0)
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        top, pk = rows[k], rows[k][k]
        for i in range(k + 1, n):
            row, f = rows[i], rows[i][k]
            rows[i] = [(pk * row[j] - f * top[j]) // prev for j in range(n)]
        prev = pk
    return Q(sign * prev, scale)


def mat_mul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(1, len(b))), a[i][0] * b[0][j]) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def identity_matrix(n: int) -> Matrix:
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def charpoly(a: Matrix) -> list[Q]:
    """Coefficients [1, c1, ..., cn] of det(x I - A) via Faddeev-LeVerrier."""
    n = len(a)
    coeffs = [Q(1)]
    m = [[Q(x) for x in row] for row in a]  # A times the identity
    for k in range(1, n + 1):
        if k > 1:
            m = mat_mul(a, m)
        ck = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(ck)
        for i in range(n):
            m[i][i] += ck
    return coeffs


def rational_roots(coeffs: list[Q]) -> tuple[list[tuple[Q, int]], int]:
    """Rational roots (with multiplicity, in ascending order) of a polynomial
    given by coefficients [c0, c1, ..., cn] for c0 x^n + ... + cn.

    Returns (roots, residual_degree); residual_degree == 0 means the
    polynomial splits completely over Q.  A root x of the square-free part s
    gives an integer root z = lead(s) x of a monic h with |z| < B (Cauchy).
    The roots of h modulo the smallest prime at which all are simple are
    Newton-lifted to a modulus above 2B (Zassenhaus, J. Number Theory 1,
    1969); each integer root of h is the symmetric residue of one lift.
    """
    ends = [i for i, c in enumerate(coeffs) if c != 0]
    if not ends:
        raise ValueError("zero polynomial")
    f = [Q(c) for c in coeffs[ends[0] : ends[-1] + 1]]
    zero_mult = len(coeffs) - 1 - ends[-1]
    roots = [(Q(0), zero_mult)] if zero_mult else []

    # The primitive integer form of the square-free part f / gcd(f, f').
    g, rest = f, _derivative(f)
    while rest:
        g, rest = rest, _poly_divmod(g, rest)[1]
    s = _poly_divmod(f, g)[0]
    scale = Q(lcm(*(c.denominator for c in s)), gcd(*(c.numerator for c in s)))
    s = [int(c * scale) for c in s]
    lead = s[0]
    h = [1] + [c * lead**i for i, c in enumerate(s[1:])]
    dh = _derivative(h)
    bound = 2 * (1 + max(abs(c) for c in h))
    # h is square-free, so only the finitely many primes dividing its
    # discriminant give it a repeated root.
    for ell in count(2):
        if all(ell % q for q in range(2, isqrt(ell) + 1)):
            residues = [r for r in range(ell) if _horner(h, r) % ell == 0]
            if all(_horner(dh, r) % ell for r in residues):
                break
    for r in residues:
        # Newton steps square the modulus; the inverse of h'(r) is lifted
        # along with r.
        modulus, inverse = ell, pow(_horner(dh, r), -1, ell)
        while modulus <= bound:
            modulus *= modulus
            r = (r - _horner(h, r) * inverse) % modulus
            inverse = inverse * (2 - _horner(dh, r) * inverse) % modulus
        # The symmetric residue is the only candidate; a lift that is no
        # root divides f zero times.
        root, mult = Q(r if 2 * r < modulus else r - modulus, lead), 0
        quo, rem = _poly_divmod(f, [1, -root])
        while not rem:
            f, mult = quo, mult + 1
            quo, rem = _poly_divmod(f, [1, -root])
        if mult:
            roots.append((root, mult))
    return sorted(roots), len(f) - 1


def _horner(poly: list, x):
    value = 0
    for c in poly:
        value = value * x + c
    return value


def _derivative(poly: list) -> list:
    return [c * (len(poly) - 1 - i) for i, c in enumerate(poly[:-1])]


def _poly_divmod(a: list[Q], b: list) -> tuple[list[Q], list[Q]]:
    """Quotient and remainder over Q, coefficients highest first; b[0] != 0
    and the remainder has no leading zeros."""
    rem, quo = list(a), []
    while len(rem) >= len(b):
        c = rem[0] / b[0]
        quo.append(c)
        rem = [x - c * y for x, y in zip(rem[1:], b[1:] + [0] * (len(rem) - len(b)))]
    while rem and rem[0] == 0:
        rem.pop(0)
    return quo, rem


# ---------------------------------------------------------------------------
# Symbolic matrices of QPoly entries
# ---------------------------------------------------------------------------


def sym_det(m: list[list[QPoly]], nvars: int, minors: dict | None = None) -> QPoly:
    """Determinant by Laplace expansion along the first row; see :func:`_minor`.
    ``minors`` is the memo of one matrix, which a caller may share with
    :func:`sym_adjugate` on the same matrix."""
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    full = (1 << n) - 1
    return _minor(m, nvars, full, full, {} if minors is None else minors)


def sym_adjugate(m: list[list[QPoly]], nvars: int, minors: dict | None = None) -> list[list[QPoly]]:
    """Adjugate matrix of a symmetric matrix: adj(M) @ M = det(M) * I.  The
    adjugate is symmetric too, so only the cofactors with j >= i are formed;
    ``minors`` as in :func:`sym_det`."""
    n = len(m)
    minors = {} if minors is None else minors
    full = (1 << n) - 1
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            cof = _minor(m, nvars, full & ~(1 << i), full & ~(1 << j), minors)
            adj[i][j] = adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj


def _minor(m: list[list[QPoly]], nvars: int, rows: int, cols: int, memo: dict) -> QPoly:
    """The determinant of ``m`` restricted to the rows and columns set in the
    bitmasks ``rows`` and ``cols`` (of equal size; the empty minor is 1),
    expanded along its first row with zero entries skipped.  Each minor is
    formed once per ``memo``, keyed by (rows, cols): the n! products of a
    plain Laplace expansion become one cofactor sum per distinct minor."""
    if not rows:
        return QPoly.const(nvars, 1)
    got = memo.get((rows, cols))
    if got is None:
        r = (rows & -rows).bit_length() - 1
        rest = rows & (rows - 1)
        if not rest:
            got = m[r][cols.bit_length() - 1]
        else:
            pairs: tuple[list, list] = ([], [])
            for pos, c in enumerate(c for c in range(len(m)) if cols >> c & 1):
                if m[r][c]:
                    pairs[pos % 2].append((m[r][c], _minor(m, nvars, rest, cols & ~(1 << c), memo)))
            got = dot(nvars, *pairs)
        memo[rows, cols] = got
    return got


def sym_sample_values(m: list[list[QPoly]]) -> Matrix:
    """The exact values of the entries of a symmetric matrix at one fixed
    rational point: t_k = (k^2 + 3)/(k + 2) for the 0-based axis k, and
    exp(b t_k) = (k^2 + 5)/(k + 3) with b the gcd of the exponential rates
    on axis k over all entries.  Only the entries with j >= i are evaluated.

    Every rate on axis k is an integer multiple of b, so this is a ring
    homomorphism from the entries' ring to Q: a polynomial identity in the
    entries, such as det = 0, holds at the point too, so a nonzero
    :func:`det_value` of these values proves the determinant nonzero.
    """
    n = len(m)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    nvars = m[0][0].nvars
    coords = [Q(k * k + 3, k + 2) for k in range(nvars)]
    expvals = {}
    for k in range(nvars):
        rates = set().union(*(m[i][j].exp_rates_on(k) for i, j in upper))
        if rates:
            base = Q(gcd(*(r.numerator for r in rates)), lcm(*(r.denominator for r in rates)))
            expvals[k] = (base, Q(k * k + 5, k + 3))
    values = [[None] * n for _ in range(n)]
    for i, j in upper:
        values[i][j] = values[j][i] = m[i][j].eval(coords, expvals)
    return values
