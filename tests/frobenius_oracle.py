"""Oracle helpers for the Frobenius tests.

`pencil_gamma` builds the polynomial connection of the pencil (g - lam*eta)
straight from the structure constants and the scaling operator, with no
Levi-Civita solve, so tests can compare it with `geometry.levi_civita`.
`metricity_residuals` checks the metricity condition (0.5), which
`geometry.levi_civita` satisfies by construction and does not evaluate.
"""

from flatpencil.errors import InternalCheckError
from flatpencil.frobenius import FrobeniusData, intersection_form, scaling_operator
from flatpencil.geometry import Connection, symmetry_residuals
from flatpencil.qpoly import QPoly


def metricity_residuals(gmat, gamma, n: int, ncoords: int):
    """Residuals of G_k^{ij} + G_k^{ji} = d g^{ij}/dx^k over i <= j, all k."""
    for i in range(n):
        for j in range(i, n):
            for k in range(ncoords):
                yield (k, i, j), gamma[k][i][j] + gamma[k][j][i] - gmat[i][j].diff(k)


def pencil_gamma(m: FrobeniusData) -> Connection:
    """The polynomial connection G_c^{ab} = c^{ae}_c R_e^b of the pencil
    (g - lam * eta), verified to satisfy symmetry and metricity for every
    lam (the lam^0 and lam^1 coefficient identities)."""
    n = m.n
    sc = m.structure
    r_mat = scaling_operator(m)
    zero = QPoly.zero(n)
    gamma_poly = [
        [
            [sum((sc.c_mixed[a][e][c] * r_mat[b][e] for e in range(n)), zero) for b in range(n)]
            for a in range(n)
        ]
        for c in range(n)
    ]
    g = intersection_form(m)
    for (k, i, j), res in metricity_residuals(g.g, gamma_poly, n, n):
        if not res.is_zero():
            raise InternalCheckError(f"pencil connection fails metricity at ({k + 1},{i + 1},{j + 1})")
    for gmat, tag in ((g.g, "lam^0"), (m.eta_metric().g, "lam^1")):
        for (i, j, k), res in symmetry_residuals(gmat, gamma_poly, n):
            if not res.is_zero():
                raise InternalCheckError(
                    f"pencil connection fails symmetry ({tag}) at ({i + 1},{j + 1},{k + 1})"
                )
    return Connection(gamma_poly)
