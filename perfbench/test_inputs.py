"""Self-tests of the benchmark's input generation; no flatpencil calls.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path

import pytest

import inputs
import polys
import run

STREAMS = ("1.0", "2.0", "7.3")
NOTES = json.loads((Path(__file__).resolve().parent / "notes.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=STREAMS)
def batch(request, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("batch")
    return inputs.build_batch(request.param, workdir)


def _input(op):
    return Path(op["argv"][2]) if op["argv"][0] != "coxeter" else None


def _load(op):
    return json.loads(_input(op).read_text(encoding="utf-8"))


def _matrix(op):
    return [[Q(x) for x in row] for row in op["change"]]


def _same_pencil(a: dict, b: dict) -> bool:
    n = a["n"]
    for key in ("g1", "g2"):
        for row_a, row_b in zip(a[key], b[key]):
            if any(polys.parse(x, n) != polys.parse(y, n) for x, y in zip(row_a, row_b)):
                return False
    if ("tau" in a) != ("tau" in b):
        return False
    return "tau" not in a or polys.parse(a["tau"], n) == polys.parse(b["tau"], n)


def _source(op):
    fam = op["family"]
    for family, source, *_rest in inputs.PENCIL_FAMILIES:
        if family == fam:
            return inputs.load_source(f"{source}-pencil.json")
    for family, tag, _kind in inputs.MUTATED_FAMILIES:
        if family == fam:
            return inputs.mutated_pair(tag)
    for family, source, *_rest in inputs.FROBENIUS_FAMILIES:
        if family == fam:
            return inputs.load_source(f"{source}-frobenius.json")
    raise KeyError(fam)


def test_parse_print_round_trip():
    for text in ("0", "-3/4*t1^2*t2 + exp(-1/2*t1)*exp(t2) - 5", "(t1 + 2*t2)^3 - t1*exp(2*t1)"):
        p = polys.parse(text, 2)
        assert polys.parse(polys.fmt(p), 2) == p
    assert polys.parse("(t1 + t2)^2", 2) == polys.parse("t1^2 + 2*t1*t2 + t2^2", 2)


def test_inverting_each_change_reproduces_its_source(batch):
    for op in batch:
        if _input(op) is None:
            continue
        m, data, src = _matrix(op), _load(op), _source(op)
        back_m = polys.inverse(m)
        if "potential" in src:
            back = inputs.change_frobenius(data, back_m, 1 / Q(op["scale"]))
            n = src["n"]
            assert polys.parse(back["potential"], n) == polys.parse(src["potential"], n), op["id"]
            assert [[Q(x) for x in r] for r in back["eta"]] == [[Q(x) for x in r] for r in src["eta"]]
            for part in ("linear", "constant"):
                got = [[Q(x) for x in r] if isinstance(r, list) else Q(r) for r in back["euler"][part]]
                want = [[Q(x) for x in r] if isinstance(r, list) else Q(r) for r in src["euler"][part]]
                assert got == want, op["id"]
            assert back["unity_index"] == src["unity_index"]
        else:
            assert _same_pencil(inputs.change_pencil(data, back_m), src), op["id"]


def test_g2_stays_constant_symmetric_nondegenerate(batch):
    for op in batch:
        if _input(op) is None or "g2" not in _load(op):
            continue
        data = _load(op)
        n = data["n"]
        g2 = [[polys.parse(x, n) for x in row] for row in data["g2"]]
        consts = []
        for row in g2:
            for p in row:
                assert all(not any(pw) and not any(r) for pw, r in p), op["id"]
            consts.append([sum(p.values(), Q(0)) for p in row])
        assert consts == polys.transpose(consts), op["id"]
        polys.inverse(consts)  # raises when singular


def test_family_counts_do_not_depend_on_the_seed(batch):
    # every stream's batch must match the one table in notes.json
    counts = Counter(op["family"] for op in batch)
    assert dict(counts) == NOTES["certify_batch_family_counts"]
    assert len(batch) == NOTES["certify_batch_ops"] >= 100


def test_notes_record_the_deadlines():
    assert NOTES["deadlines_s"] == run.DEADLINES_S
    assert NOTES["recurse_steps"] == run.RECURSE_STEPS
    assert NOTES["setup_samples"] == run.SETUP_SAMPLES


def test_every_subcommand_and_one_op_per_input(batch):
    subcommands = {" ".join(op["argv"][:2]) if op["argv"][0] != "coxeter" else "coxeter" for op in batch}
    assert len(subcommands) == 10
    files = [_input(op) for op in batch if _input(op) is not None]
    assert len(files) == len(set(files))
    texts = [f.read_text(encoding="utf-8") for f in files]
    assert len(texts) == len(set(texts))


def test_expected_codes_follow_the_contract(batch):
    for op in batch:
        if op["family"].startswith("mut-"):
            want = 3 if op["argv"][1] == "reconstruct" else 1
        else:
            want = 0
        assert op["expected"] == want, op["id"]


def test_mutated_pencils_are_not_flat(batch):
    sympy = pytest.importorskip("sympy")
    for op in batch:
        if not op["family"].startswith("mut-") or op["argv"][1] != "check":
            continue
        data = _load(op)
        s = sympy.symbols("s1 s2")
        lam = sympy.Rational(7, 3)

        def expr(text):
            return sum(
                (sympy.Rational(c.numerator, c.denominator)
                 * sympy.Mul(*(s[i] ** e for i, e in enumerate(pw)))
                 * sympy.exp(sum(sympy.Rational(r.numerator, r.denominator) * s[i] for i, r in enumerate(rates))))
                for (pw, rates), c in polys.parse(text, 2).items()
            )

        g = sympy.Matrix(2, 2, lambda i, j: expr(data["g1"][i][j]) - lam * expr(data["g2"][i][j]))
        h = g.inv()  # covariant metric of g1 - lam*g2

        def christoffel(a, b, c):
            return sum(g[a, d] * (sympy.diff(h[d, b], s[c]) + sympy.diff(h[d, c], s[b]) - sympy.diff(h[b, c], s[d]))
                       for d in range(2)) / 2

        gam = [[[christoffel(a, b, c) for c in range(2)] for b in range(2)] for a in range(2)]
        # R^0_{101} = d_0 G^0_{11} - d_1 G^0_{10} + G^0_{0e} G^e_{11} - G^0_{1e} G^e_{10}
        r = (sympy.diff(gam[0][1][1], s[0]) - sympy.diff(gam[0][1][0], s[1])
             + sum(gam[0][0][e] * gam[e][1][1] - gam[0][1][e] * gam[e][1][0] for e in range(2)))
        point = {s[0]: sympy.Rational(3, 7), s[1]: sympy.Rational(-2, 5)}
        assert abs(sympy.N(r.subs(point), 30)) > 1e-12, op["id"]
