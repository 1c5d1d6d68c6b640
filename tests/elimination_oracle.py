"""Oracle for the constant linear algebra of `flatpencil.linalg`: the
Gauss-Jordan elimination over `Fraction` and the Bareiss determinant that
`rank`, `nullspace`, `solve_affine`, `mat_inverse` and `det_value` ran
before they shared one fraction-free Gauss-Jordan kernel, and the
Faddeev-LeVerrier loop over `Fraction` that `charpoly` ran before it
cleared denominators once."""

from fractions import Fraction as Q
from math import lcm

from flatpencil.errors import NoSolutionError


def rref(m: list[list[Q]]) -> tuple[list[list[Q]], list[int]]:
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


def _nullspace_from_rref(m, pivots, ncols):
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def rank(a):
    return len(rref([[Q(x) for x in row] for row in a])[1])


def nullspace(a):
    ncols = len(a[0]) if a else 0
    m, pivots = rref([[Q(x) for x in row] for row in a])
    return _nullspace_from_rref(m, pivots, ncols)


def solve_affine(a, b):
    ncols = len(a[0]) if a else 0
    m, pivots = rref([[Q(x) for x in row] + [Q(rhs)] for row, rhs in zip(a, b)])
    if ncols in pivots:
        raise NoSolutionError("inconsistent linear system")
    particular = [Q(0)] * ncols
    for r, c in enumerate(pivots):
        particular[c] = m[r][ncols]
    return particular, _nullspace_from_rref(m, pivots, ncols)


def mat_inverse(a):
    n = len(a)
    aug = [[Q(x) for x in row] + [Q(1) if i == j else Q(0) for j in range(n)] for i, row in enumerate(a)]
    m, pivots = rref(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise NoSolutionError("singular matrix")
    return [row[n:] for row in m]


def det_value(a) -> Q:
    """Bareiss elimination of the integer rows that clearing each row's
    denominators gives."""
    n = len(a)
    sign, scale = 1, 1
    rows = []
    for row in a:
        den = lcm(*(Q(x).denominator for x in row))
        scale *= den
        rows.append([Q(x).numerator * (den // Q(x).denominator) for x in row])
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


def charpoly(a) -> list[Q]:
    """Faddeev-LeVerrier over `Fraction`: coefficients [1, c1, ..., cn] of
    det(x I - A)."""
    n = len(a)
    coeffs = [Q(1)]
    m = [[Q(x) for x in row] for row in a]  # A times the identity
    for k in range(1, n + 1):
        if k > 1:
            m = [[sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        ck = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(ck)
        for i in range(n):
            m[i][i] += ck
    return coeffs
