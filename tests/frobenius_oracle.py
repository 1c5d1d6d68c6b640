"""Oracle helpers for the Frobenius tests.

`pencil_gamma` builds the polynomial connection of the pencil (g - lam*eta)
straight from the structure constants and the scaling operator, with no
Levi-Civita solve, so tests can compare it with `geometry.levi_civita`.
`metricity_residuals` checks the metricity condition (0.5), which
`geometry.levi_civita` satisfies by construction and does not evaluate.
`delta_identity_residuals` and `pairing_derivative_residuals` form, over
every index and with plain sums, the identities that the inverse
construction reports as PASS lines: it runs only on a pencil whose
flat-pencil certificate passed, so it never computes them itself, and
these sums are the only check of them.  `unity_invariance_residuals` does
the same for L_e Delta = 0, a PASS line once the scaling certificates
passed on the pencil too.
"""

from flatpencil.errors import InternalCheckError
from flatpencil.frobenius import FrobeniusData, intersection_form, scaling_operator
from flatpencil.geometry import Connection, PencilData, levi_civita, symmetry_residuals
from flatpencil.linalg import mat_inverse
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
    m.unity_axiom
    r_mat = scaling_operator(m)
    zero = QPoly.zero(n)
    gamma_poly = [
        [
            [sum((m.c_mixed[a][e][c] * r_mat[b][e] for e in range(n)), zero) for b in range(n)]
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


def delta_identity_residuals(p: PencilData):
    """(identity, index, residual) of the difference tensor Delta = G1 of a
    pencil with constant g2 and tau, over all indices:

        g2-symmetry     eta^{is} Delta_s^{jk} - eta^{js} Delta_s^{ik}
        right-symmetry  Delta_s^{ij} Delta_k^{sl} - Delta_s^{il} Delta_k^{sj}
        curl            d_l Delta_s^{jk} - d_s Delta_l^{jk}
        euler-scaling   (L_E Delta)_k^{ij} - (d-1) Delta_k^{ij}

    with L_E Delta = E^s d_s Delta_k^{ij} + Delta_s^{ij} d_k E^s
    - Delta_k^{sj} d_s E^i - Delta_k^{is} d_s E^j."""
    n = p.n
    dm = levi_civita(p.g1).gamma
    eta = p.g2.constant_entries()
    e_big = p.euler[0]
    de = [[c.diff(s) for s in range(n)] for c in e_big]
    d = p.degree

    def total(terms):
        return sum(terms, QPoly.zero(p.g1.nvars))

    idx3 = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    idx4 = [(a, *rest) for a in range(n) for rest in idx3]
    for i, j, k in idx3:
        yield "g2-symmetry", (i, j, k), total(eta[i][s] * dm[s][j][k] - eta[j][s] * dm[s][i][k] for s in range(n))
    for i, j, l, k in idx4:
        res = total(dm[s][i][j] * dm[k][s][l] - dm[s][i][l] * dm[k][s][j] for s in range(n))
        yield "right-symmetry", (i, j, l, k), res
    for s, l, j, k in idx4:
        yield "curl", (s, l, j, k), dm[s][j][k].diff(l) - dm[l][j][k].diff(s)
    for k, i, j in idx3:
        lie = total(
            e_big[s] * dm[k][i][j].diff(s)
            + dm[s][i][j] * de[s][k]
            - dm[k][s][j] * de[i][s]
            - dm[k][i][s] * de[j][s]
            for s in range(n)
        )
        yield "euler-scaling", (k, i, j), lie - dm[k][i][j] * (d - 1)


def pairing_derivative_residuals(p: PencilData, r_op):
    """Delta_g^{ab} + sum_ij Delta_g^{ij} R[i][a] R^{-1}[j][b] - d_g g1^{ab},
    the pairing-derivative identity u*R(v) + R(u)*v = d(u, v) on coordinate
    1-forms, with R^{-1} from an explicit inverse."""
    n = p.n
    dm = levi_civita(p.g1).gamma
    r_inv = mat_inverse(r_op)
    for a in range(n):
        for b in range(n):
            for g in range(n):
                second = sum(
                    (dm[g][i][j] * (r_op[i][a] * r_inv[j][b]) for i in range(n) for j in range(n)),
                    QPoly.zero(p.g1.nvars),
                )
                yield (a, b, g), dm[g][a][b] + second - p.g1.g[a][b].diff(g)


def unity_invariance_residuals(p: PencilData):
    """(index, residual) of L_e Delta = 0 for Delta = G1 and e = eta grad(tau),
    over all indices:

        e^s d_s Delta_k^{ij} + Delta_s^{ij} d_k e^s - Delta_k^{sj} d_s e^i - Delta_k^{is} d_s e^j."""
    n = p.n
    dm = levi_civita(p.g1).gamma
    e = p.euler[1]
    de = [[c.diff(s) for s in range(n)] for c in e]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                yield (k, i, j), sum(
                    (
                        e[s] * dm[k][i][j].diff(s)
                        + dm[s][i][j] * de[s][k]
                        - dm[k][s][j] * de[i][s]
                        - dm[k][i][s] * de[j][s]
                        for s in range(n)
                    ),
                    QPoly.zero(p.g1.nvars),
                )
