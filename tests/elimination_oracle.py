"""Oracle for the constant linear algebra of `flatpencil.linalg`: the
Gauss-Jordan elimination over `Fraction` and the Bareiss determinant that
`rank`, `nullspace`, `solve_affine`, `mat_inverse` and `det_value` ran
before they shared one fraction-free Gauss-Jordan kernel, and the
Faddeev-LeVerrier loop over `Fraction` that `charpoly` ran before it
cleared denominators once, and the `Fraction` `rational_roots` (square-free
part by Euclid's algorithm over Q, multiplicities by division by x - root)
that ran before it moved to the primitive integer polynomial.  Also the
constant checks of `reconstruction.operator_pair` and the eta scaling of
`frobenius.check_quasihomogeneity` as they ran over `Fraction`, before both
cleared denominators once."""

from fractions import Fraction as Q
from itertools import count
from math import gcd, isqrt, lcm

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


def rational_roots(coeffs) -> tuple[list[tuple[Q, int]], int]:
    """Rational roots with multiplicity, ascending, and the residual degree
    of c0 x^n + ... + cn, by Hensel lifting of the roots of the square-free
    part, all polynomial arithmetic over `Fraction`."""
    ends = [i for i, c in enumerate(coeffs) if c != 0]
    if not ends:
        raise ValueError("zero polynomial")
    f = [Q(c) for c in coeffs[ends[0] : ends[-1] + 1]]
    zero_mult = len(coeffs) - 1 - ends[-1]
    roots = [(Q(0), zero_mult)] if zero_mult else []

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
    for ell in count(2):
        if all(ell % q for q in range(2, isqrt(ell) + 1)):
            residues = [r for r in range(ell) if _horner(h, r) % ell == 0]
            if all(_horner(dh, r) % ell for r in residues):
                break
    for r in residues:
        modulus, inverse = ell, pow(_horner(dh, r), -1, ell)
        while modulus <= bound:
            modulus *= modulus
            r = (r - _horner(h, r) * inverse) % modulus
            inverse = inverse * (2 - _horner(dh, r) * inverse) % modulus
        root, mult = Q(r if 2 * r < modulus else r - modulus, lead), 0
        quo, rem = _poly_divmod(f, [1, -root])
        while not rem:
            f, mult = quo, mult + 1
            quo, rem = _poly_divmod(f, [1, -root])
        if mult:
            roots.append((root, mult))
    return sorted(roots), len(f) - 1


def _horner(poly, x):
    value = 0
    for c in poly:
        value = value * x + c
    return value


def _derivative(poly):
    return [c * (len(poly) - 1 - i) for i, c in enumerate(poly[:-1])]


def _poly_divmod(a, b):
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


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def operator_checks(k_op, eta_up, d, dtau):
    """The constant checks of `reconstruction.operator_pair` over `Fraction`:
    the lambda-skew-symmetry and tau-gradient-eigencovector verdicts, the
    spectrum [(value, basis)] of Lam = (d-2)/2 + K, the root-space-pairing
    (status, witness), and the Gram ranks {(i, j): rank} of the eta-pairing
    of root spaces i and j (None when the spectrum is not rational)."""
    n = len(k_op)
    lam_op = [[k_op[i][j] + (Q(d - 2) / 2 if i == j else 0) for j in range(n)] for i in range(n)]
    m = [[sum(lam_op[s][i] * eta_up[s][j] for s in range(n)) for j in range(n)] for i in range(n)]
    skew_ok = all(m[i][j] + m[j][i] == 0 for i in range(n) for j in range(i, n))
    eig_ok = all(sum(k_op[i][j] * dtau[j] for j in range(n)) == (1 - d) * dtau[i] for i in range(n))
    roots, residual_degree = rational_roots(charpoly(lam_op))
    spectrum = []
    for value, mult in roots:
        shifted = [[lam_op[i][j] - (value if i == j else 0) for j in range(n)] for i in range(n)]
        power = shifted
        for _ in range(mult - 1):
            power = _mat_mul(power, shifted)
        spectrum.append((value, nullspace(power)))
    if residual_degree:
        return skew_ok, eig_ok, spectrum, ("skipped", "irrational spectrum"), None
    ranks, pairing = {}, ("pass", None)
    for i1, (v1, b1) in enumerate(spectrum):
        images = [[sum(u[i] * eta_up[i][j] for i in range(n)) for j in range(n)] for u in b1]
        for i2, (v2, b2) in enumerate(spectrum):
            gram = [[sum(x * y for x, y in zip(image, v)) for v in b2] for image in images]
            ranks[i1, i2] = rank(gram)
            if pairing[0] != "pass":
                continue
            if v1 + v2 != 0:
                if any(x != 0 for row in gram for x in row):
                    pairing = ("fail", f"subspaces at {v1} and {v2} are not orthogonal")
            elif ranks[i1, i2] != len(b1) or len(b1) != len(b2):
                pairing = ("fail", f"pairing of subspaces at +/-{v1} is degenerate")
    return skew_ok, eig_ok, spectrum, pairing, ranks


def eta_scaling_failure(k, eta, d) -> str | None:
    """The message of the first entry at which K^T eta + eta K = (2 - d) eta
    fails, over `Fraction`, else None."""
    n = len(k)
    for i in range(n):
        for j in range(n):
            lhs = sum(k[s][i] * eta[s][j] + eta[i][s] * k[s][j] for s in range(n))
            if lhs != (2 - d) * eta[i][j]:
                return f"eta scaling fails at entry ({i + 1},{j + 1}): {lhs} != (2-d) eta = {(2 - d) * eta[i][j]}"
    return None
