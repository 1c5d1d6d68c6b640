"""Oracle for `linalg.sym_det` and `linalg.sym_adjugate`: the plain Laplace
expansion along the first row, every minor formed afresh and every cofactor
of the adjugate formed, as the two kernels were before they shared memoized
minors."""

from flatpencil.qpoly import QPoly, dot


def laplace_det(m: list[list[QPoly]], nvars: int) -> QPoly:
    n = len(m)
    if n == 1:
        return m[0][0]
    terms = [(m[0][j], laplace_det([row[:j] + row[j + 1 :] for row in m[1:]], nvars)) for j in range(n)]
    return dot(nvars, terms[::2], terms[1::2])


def laplace_adjugate(m: list[list[QPoly]], nvars: int) -> list[list[QPoly]]:
    n = len(m)
    if n == 1:
        return [[QPoly.const(nvars, 1)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = laplace_det(minor, nvars)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj
