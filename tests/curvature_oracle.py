"""Oracle for `geometry.curvature_entries`: the full curvature tensor.

`full_curvature` forms every entry R_l^{ijk}, j > k and j = k included, with
the same contraction per entry as the kernel, and checks the antisymmetry in
(j, k) that metricity guarantees.  The kernel forms only the j < k half, so
the tests compare it with `half` of this tensor, and compare the first
nonzero entry of the whole tensor with the witness the kernel's callers
report.
"""

from flatpencil.errors import InternalCheckError
from flatpencil.geometry import curvature_entries
from flatpencil.qpoly import RatFunc, dot


def full_curvature(gmat, gamma):
    """r[l][i][j][k] = R_l^{ijk} for all indices; raises when some
    R_l^{ijk} + R_l^{ikj} is nonzero."""
    n = len(gmat)
    nvars = gmat[0][0].nvars
    dgamma = [[[[gamma[l][j][k].diff(s) for s in range(n)] for k in range(n)] for j in range(n)] for l in range(n)]
    # curl[l][s][j][k] = d_s G_l^{jk} - d_l G_s^{jk}, shared by every i
    curl = [
        [[[dgamma[l][j][k][s] - dgamma[s][j][k][l] for k in range(n)] for j in range(n)] for s in range(n)]
        for l in range(n)
    ]
    r = [
        [
            [
                [
                    dot(
                        nvars,
                        [(gmat[i][s], curl[l][s][j][k]) for s in range(n)]
                        + [(gamma[s][i][k], gamma[l][s][j]) for s in range(n)],
                        [(gamma[s][i][j], gamma[l][s][k]) for s in range(n)],
                    )
                    for k in range(n)
                ]
                for j in range(n)
            ]
            for i in range(n)
        ]
        for l in range(n)
    ]
    for (l, i, j, k), val in entries(r):
        if not (val + r[l][i][k][j]).is_zero():
            raise InternalCheckError(
                f"curvature antisymmetry failed at R_{l + 1}^{{{i + 1}{j + 1}{k + 1}}}; "
                "connection does not satisfy metricity"
            )
    return r


def entries(r):
    """Every ((l, i, j, k), R_l^{ijk}) of a full tensor, in index order."""
    n = len(r)
    return [
        ((l, i, j, k), r[l][i][j][k]) for l in range(n) for i in range(n) for j in range(n) for k in range(n)
    ]


def half(r):
    """The entries with j < k, in index order."""
    return [(idx, val) for idx, val in entries(r) if idx[2] < idx[3]]


def same_form(a, b) -> bool:
    """Equal kind and, for a fraction, equal numerator and denominator, not
    only equal value."""
    if type(a) is not type(b):
        return False
    if isinstance(a, RatFunc):
        return a.num == b.num and a.den == b.den
    return a == b


def assert_kernel_matches(gmat, gamma) -> None:
    """The kernel's entries are the oracle's j < k entries, index for index
    and in the same form; the oracle checks its own antisymmetry."""
    got = curvature_entries(gmat, gamma)
    want = half(full_curvature(gmat, gamma))
    assert [idx for idx, _v in got] == [idx for idx, _v in want]
    assert all(same_form(a, b) for (_i, a), (_j, b) in zip(got, want))
