"""Oracle for `geometry.levi_civita`: every entry as a numerator over det.

`numerator_connection` forms, for all n^3 entries,

    N_k^{ij} = 1/2 det d_k g^{ij} + 1/2 adj_{kq} (g^{is} d_s g^{jq} - g^{js} d_s g^{iq})

and divides each by det g: the QPoly quotients when every division is
exact, else every entry the RatFunc N / det.  The kernel puts only the
antisymmetric part over det and divides it for i < j, so the tests compare
the two entry by entry, in kind, value and, for fractions, numerator and
denominator.
"""

from fractions import Fraction as Q

from flatpencil.geometry import ContraMetric
from flatpencil.linalg import sym_adjugate
from flatpencil.qpoly import QPoly, RatFunc, dot, exact_divide


def numerator_connection(g: ContraMetric) -> list[list[list[QPoly | RatFunc]]]:
    """gamma[k][i][j] = N_k^{ij} / det g, all of one kind."""
    n, nvars, det = g.n, g.nvars, g.det
    adj = sym_adjugate(g.g, nvars)
    dg = [[[g.g[i][j].diff(s) for s in range(n)] for j in range(n)] for i in range(n)]
    skew = [
        [
            [
                dot(nvars, [(g.g[i][s], dg[j][q][s]) for s in range(n)], [(g.g[j][s], dg[i][q][s]) for s in range(n)])
                for q in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    nums = [
        [
            [dot(nvars, [(det, dg[i][j][k])] + [(adj[k][q], skew[i][j][q]) for q in range(n)]) * Q(1, 2) for j in range(n)]
            for i in range(n)
        ]
        for k in range(n)
    ]
    quos = [[[exact_divide(num, det) for num in row] for row in layer] for layer in nums]
    if any(quo is None for layer in quos for row in layer for quo in row):
        return [[[RatFunc(num, det) for num in row] for row in layer] for layer in nums]
    return quos
