"""Exact linear algebra over Q, plus generic helpers for symbolic matrices.

All constant linear algebra runs on Python ints: a routine clears the
denominators of its input once (`clear_denominators`) and reads
`fractions.Fraction` only at its API edge, in its arguments and results.
Every rational solve, kernel, rank, inverse and determinant reads one
fraction-free Gauss-Jordan elimination (`_eliminate`) of the integer rows
that clearing each row's denominators gives; rank deficiency is reported,
never papered over.  `rational_roots` decides every rational root in time
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
    ncols = len(a[0]) if a else 0
    m, pivots, _det = _eliminate([[*row, rhs] for row, rhs in zip(a, b)])
    if ncols in pivots:
        raise NoSolutionError("inconsistent linear system")
    particular = [Q(0)] * ncols
    for row, c in zip(m, pivots):
        particular[c] = Q(row[ncols], row[c])
    return particular, _nullspace_from_rref(m, pivots, ncols)


def nullspace(a: Matrix) -> list[Vector]:
    ncols = len(a[0]) if a else 0
    m, pivots, _det = _eliminate(a)
    return _nullspace_from_rref(m, pivots, ncols)


def rank(a: Matrix) -> int:
    return len(_eliminate(a)[1])


def mat_inverse(a: Matrix) -> Matrix:
    n = len(a)
    m, pivots, _det = _eliminate([[*row, *(1 if i == j else 0 for j in range(n))] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise NoSolutionError("singular matrix")
    return [[Q(x, row[c]) for x in row[n:]] for row, c in zip(m, pivots)]


def det_value(a: Matrix) -> Q:
    """The exact determinant of a square matrix of ints and Fractions."""
    return _eliminate(a)[2]


def _eliminate(a: Matrix) -> tuple[list[list[int]], list[int], Q]:
    """Fraction-free Gauss-Jordan elimination, the one elimination kernel.

    Each row is first multiplied by the lcm of its denominators.  The step
    with pivot p in column c replaces every other row x, rows with x_c = 0
    included, by (p x - x_c top) / p', top the pivot row and p' the previous
    pivot (1 at first): an exact division (Bareiss, Math. Comp. 22, 1968).
    Returns the integer rows, whose first len(pivots) are the reduced row
    echelon form times the last pivot and the others zero; the pivot
    columns; and, when every row holds a pivot, the determinant of the
    pivot columns (the sign follows the row swaps), else 0.
    """
    rows, scale = [], 1
    for row in a:
        den = lcm(*(x.denominator for x in row))
        scale *= den
        rows.append([x.numerator * (den // x.denominator) for x in row])
    nrows = len(rows)
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        top, p = rows[r], rows[r][c]
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        pivots.append(c)
        prev = p
    return rows, pivots, Q(sign * prev, scale) if len(pivots) == nrows else Q(0)


def _nullspace_from_rref(m: list[list[int]], pivots: list[int], ncols: int) -> list[Vector]:
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Q(0)] * ncols
        v[fc] = Q(1)
        for row, pc in zip(m, pivots):
            v[pc] = Q(-row[fc], row[pc])
        basis.append(v)
    return basis


def rational_gcd(values: set[Q]) -> Q:
    """The largest rational of which every value is an integer multiple."""
    return Q(gcd(*(x.numerator for x in values)), lcm(*(x.denominator for x in values)))


def clear_denominators(rows: Matrix) -> tuple[list[list[int]], int]:
    """The integer rows D a and D, the lcm of the denominators of the
    entries of ``rows`` (a matrix, or a list of vectors; ints allowed)."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def mat_mul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(1, len(b))), a[i][0] * b[0][j]) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def identity_matrix(n: int) -> Matrix:
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def charpoly(a: Matrix) -> list[Q]:
    """Coefficients [1, c1, ..., cn] of det(x I - A) via Faddeev-LeVerrier,
    run over the integer matrix B = D A, D the lcm of A's denominators:
    every c_k(B) is an integer, so each trace divides exactly by k, and
    c_k(A) = c_k(B) / D^k."""
    n = len(a)
    b, den = clear_denominators(a)
    coeffs = [Q(1)]
    m = [row[:] for row in b]  # B times the identity
    for k in range(1, n + 1):
        if k > 1:
            m = mat_mul(b, m)
        ck = -sum(m[i][i] for i in range(n)) // k
        coeffs.append(Q(ck, den**k))
        for i in range(n):
            m[i][i] += ck
    return coeffs


def rational_roots(coeffs: list[Q]) -> tuple[list[tuple[Q, int]], int]:
    """Rational roots (with multiplicity, in ascending order) of a polynomial
    given by coefficients [c0, c1, ..., cn] for c0 x^n + ... + cn.

    Returns (roots, residual_degree); residual_degree == 0 means the
    polynomial splits completely over Q.  Runs on the primitive integer f of
    the input; its square-free part s = f / gcd(f, f') comes from a primitive
    pseudo-remainder sequence, and by Gauss's lemma s and each quotient of f
    by a root's factor q x - p are exact divisions over Z.  A root x of s
    gives an integer root z = lead(s) x of a monic h with |z| < B (Cauchy).
    The roots of h modulo the smallest prime at which all are simple are
    Newton-lifted to a modulus above 2B (Zassenhaus, J. Number Theory 1,
    1969); each integer root of h is the symmetric residue of one lift.
    """
    ends = [i for i, c in enumerate(coeffs) if c != 0]
    if not ends:
        raise ValueError("zero polynomial")
    f = _primitive(clear_denominators([coeffs[ends[0] : ends[-1] + 1]])[0][0])
    zero_mult = len(coeffs) - 1 - ends[-1]
    roots = [(Q(0), zero_mult)] if zero_mult else []

    g, rest = f, _primitive(_derivative(f))
    while rest:
        g, rest = rest, _primitive(_pseudo_remainder(g, rest))
    s = _exact_quotient(f, g)
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
        linear = [root.denominator, -root.numerator]
        quo = _exact_quotient(f, linear)
        while quo is not None:
            f, mult = quo, mult + 1
            quo = _exact_quotient(f, linear)
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


def _primitive(poly: list[int]) -> list[int]:
    content = gcd(*poly)
    return [c // content for c in poly]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of lead(b)^k a by b over Z, coefficients highest first,
    without leading zeros."""
    rem = list(a)
    while len(rem) >= len(b):
        rem = [b[0] * x - rem[0] * y for x, y in zip(rem[1:], b[1:] + [0] * (len(rem) - len(b)))]
    while rem and rem[0] == 0:
        rem.pop(0)
    return rem


def _exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b if it is a polynomial over Z, else None; b[0] != 0."""
    rem, quo = list(a), []
    while len(rem) >= len(b):
        c, r = divmod(rem[0], b[0])
        if r:
            return None
        quo.append(c)
        rem = [x - c * y for x, y in zip(rem[1:], b[1:] + [0] * (len(rem) - len(b)))]
    return None if any(rem) else quo


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
            expvals[k] = (rational_gcd(rates), Q(k * k + 5, k + 3))
    values = [[None] * n for _ in range(n)]
    for i, j in upper:
        values[i][j] = values[j][i] = m[i][j].eval(coords, expvals)
    return values
