import random
from fractions import Fraction as Q

from flatpencil.exprparse import parse_expr
from flatpencil.qpoly import QPoly, RatFunc
from flatpencil.reports import (
    FAIL,
    PASS,
    Certificate,
    index_label,
    residual_certificate,
    tensor_certificate,
    verdict,
)


def random_qpoly(rng, nvars):
    """A sum of up to three monomials with small rational coefficients;
    zero about one time in four."""
    terms = {}
    for _ in range(rng.choice([0, 1, 2, 3])):
        pows = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[(pows, ())] = Q(rng.randint(-4, 4), rng.randint(1, 3))
    return QPoly(nvars, terms)


def random_tensor(rng, rank, n, nvars, like=None):
    """Nested lists of random QPoly entries; with ``like``, each entry
    repeats the one of ``like`` half the time, so its residual vanishes."""
    if rank == 0:
        return like if like is not None and rng.random() < 0.5 else random_qpoly(rng, nvars)
    return [random_tensor(rng, rank - 1, n, nvars, None if like is None else like[i]) for i in range(n)]


def written_out(lhs, rhs, rank, n):
    """The (label, residual) pairs of lhs - rhs, loop by loop in index order."""
    def res(x, y):
        return x if rhs is None else x - y

    if rank == 1:
        return [(f"entry ({i + 1})", res(lhs[i], rhs and rhs[i])) for i in range(n)]
    if rank == 2:
        return [
            (f"entry ({i + 1},{j + 1})", res(lhs[i][j], rhs and rhs[i][j]))
            for i in range(n)
            for j in range(n)
        ]
    return [
        (f"entry ({i + 1},{j + 1},{k + 1})", res(lhs[i][j][k], rhs and rhs[i][j][k]))
        for i in range(n)
        for j in range(n)
        for k in range(n)
    ]


def test_tensor_certificate_matches_written_out_residuals():
    rng = random.Random(41)
    verdicts = set()
    for _ in range(300):
        rank, n, nvars = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        rhs = random_tensor(rng, rank, n, nvars)
        lhs = random_tensor(rng, rank, n, nvars, like=rhs)
        if rng.random() < 0.25:
            rhs = None
        got = tensor_certificate("t", lhs, rhs)
        assert got == residual_certificate("t", written_out(lhs, rhs, rank, n))
        verdicts.add((rank, rhs is None, got.status))
    # every rank, with and without rhs, both passes and fails
    assert len(verdicts) == 12


def test_tensor_certificate_reports_first_failing_entry_in_index_order():
    z, t1 = QPoly.zero(1), QPoly.var(1, 0)
    lhs = [[z, t1 * 2], [t1 * 3, z]]
    cert = tensor_certificate("mirror", lhs, [[z, z], [z, z]])
    assert cert == Certificate("mirror", FAIL, "entry (1,2): nonzero normal form: 2*t1")
    assert tensor_certificate("mirror", lhs) == cert
    assert tensor_certificate("mirror", lhs, lhs) == Certificate("mirror", PASS)
    cube = [[[z] * 2 for _ in range(2)] for _ in range(2)]
    cube[1][0][1] = t1
    assert tensor_certificate("cube", cube).witness == "entry (2,1,2): nonzero normal form: t1"


def test_tensor_certificate_of_ratfunc_minus_rational():
    num, den = parse_expr("t1 + 1", 1), parse_expr("2*t1", 1)
    lhs = [RatFunc(num, den), RatFunc(num * 2, den)]
    for rhs in ([Q(1, 2), Q(1)], [Q(1, 2), 1], [0, Q(1)]):
        want = residual_certificate("r", [(f"entry ({i + 1})", lhs[i] - rhs[i]) for i in range(2)])
        assert tensor_certificate("r", lhs, rhs) == want
    # (t1 + 1)/(2 t1) - 1/2 = 1/(2 t1) is kept over 2 t1: its numerator
    # 1 is the witness
    assert tensor_certificate("r", lhs, [Q(1, 2), Q(1)]).witness == "entry (1): nonzero normal form: 1"


def test_verdict_carries_a_witness_only_on_failure():
    assert verdict("v", True, "why") == Certificate("v", PASS)
    assert verdict("v", True, "why").witness is None
    assert verdict("v", False, "why") == Certificate("v", FAIL, "why")
    assert verdict("v", False) == Certificate("v", FAIL)


def test_index_label_is_one_based():
    assert index_label((0,)) == "(1)"
    assert index_label((2, 0, 11)) == "(3,1,12)"
