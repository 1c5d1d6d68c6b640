"""Exact linear algebra over Q, plus generic helpers for symbolic matrices.

Every rational solve, kernel, rank and inverse runs one Gauss-Jordan
elimination over `Fraction` (`_rref`); rank deficiency is reported, never
papered over.  `rational_roots` clears denominators and tries the
rational-root-theorem candidates of the integer polynomial once; it refuses
a leading or trailing coefficient beyond ``ROOT_COEFFICIENT_LIMIT``, whose
divisors it could not enumerate in time, and more candidates than
``ROOT_STEP_BUDGET``, which it could not try in time.

The symbolic helpers (determinant, adjugate) take QPoly entries in
``nvars`` variables and sum each Laplace expansion through `qpoly.dot`, so a
cofactor sum is one multiply-accumulate over one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import NoSolutionError, RingBoundError, UnderdeterminedError
from .qpoly import QPoly, dot

Q = Fraction

# Divisors are found by trial division up to the square root, so the
# coefficient bound keeps each enumeration under ROOT_STEP_BUDGET steps; the
# candidate roots +-p/q are held to the same budget.
ROOT_STEP_BUDGET = 10**6
ROOT_COEFFICIENT_LIMIT = ROOT_STEP_BUDGET**2

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
    """Rational roots (with multiplicity) of a polynomial given by coefficients
    [c0, c1, ..., cn] for c0 x^n + ... + cn.

    Returns (roots, residual_degree); residual_degree == 0 means the
    polynomial splits completely over Q.  Raises RingBoundError when the
    leading or trailing coefficient, cleared of denominators, exceeds
    ``ROOT_COEFFICIENT_LIMIT`` in magnitude, or when the candidates +-p/q
    (p dividing the trailing and q the leading coefficient) number more than
    ``ROOT_STEP_BUDGET``.
    """
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    while ints and ints[0] == 0:
        ints.pop(0)
    if not ints:
        raise ValueError("zero polynomial")
    roots: list[tuple[Q, int]] = []
    # Trailing zeros are roots at 0.
    zero_mult = 0
    while ints[-1] == 0 and len(ints) > 1:
        ints.pop()
        zero_mult += 1
    if zero_mult:
        roots.append((Q(0), zero_mult))

    def divisors(n: int) -> list[int]:
        n = abs(n)
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return sorted(set(out))

    # Rational-root theorem: every root p/q has p | tail and q | lead.  A
    # root of a deflated factor is a root of the whole polynomial, so one
    # pass over these candidates finds every rational root.
    lead, tail = ints[0], ints[-1]
    if max(abs(lead), abs(tail)) > ROOT_COEFFICIENT_LIMIT:
        raise RingBoundError(f"rational root coefficient bound {ROOT_COEFFICIENT_LIMIT} exceeded")
    numerators, denominators = divisors(tail), divisors(lead)
    if 2 * len(numerators) * len(denominators) > ROOT_STEP_BUDGET:
        raise RingBoundError(f"rational root candidate budget {ROOT_STEP_BUDGET} exceeded")
    for p in numerators:
        for q in denominators:
            for sign in (1, -1):
                cand = Q(sign * p, q)
                mult = 0
                while len(ints) > 1:
                    quo, rem = _synth_div(ints, cand)
                    if rem != 0:
                        break
                    ints = quo
                    mult += 1
                if mult:
                    roots.append((cand, mult))
    return roots, len(ints) - 1


def _synth_div(ints: list, root: Q) -> tuple[list, Q]:
    out = [Q(ints[0])]
    for c in ints[1:]:
        out.append(c + out[-1] * root)
    rem = out.pop()
    return out, rem


# ---------------------------------------------------------------------------
# Symbolic matrices of QPoly entries
# ---------------------------------------------------------------------------


def sym_det(m: list[list[QPoly]], nvars: int) -> QPoly:
    """Laplace-expansion determinant along the first row; fine for the small
    ranks used here."""
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    if n == 1:
        return m[0][0]
    terms = [(m[0][j], sym_det([row[:j] + row[j + 1 :] for row in m[1:]], nvars)) for j in range(n)]
    return dot(nvars, terms[::2], terms[1::2])


def sym_adjugate(m: list[list[QPoly]], nvars: int) -> list[list[QPoly]]:
    """Adjugate matrix: adj(M) @ M = det(M) * I."""
    n = len(m)
    if n == 1:
        return [[QPoly.const(nvars, 1)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            cof = sym_det(minor, nvars)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj
