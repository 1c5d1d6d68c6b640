import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from flatpencil import cli, coxeter, frobenius, geometry, loopspace, reports
from flatpencil.cli import main
from flatpencil.errors import InternalCheckError
from flatpencil.frobenius import FrobeniusData
from flatpencil.pencilio import dump_pencil, load_pencil
from flatpencil.qpoly import QPoly
from flatpencil.reports import Certificate, Report
from test_golden_output import DENSE_A2

TESTDATA = Path(__file__).resolve().parent.parent / "testdata"
SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = Path(__file__).resolve().parent.parent / "perfbench" / "sources"
CUBIC = TESTDATA / "n1-cubic-frobenius.json"
CP1 = TESTDATA / "cp1-frobenius.json"
PENCIL1 = TESTDATA / "n1-pencil.json"


def run(argv):
    return main([str(a) for a in argv])


def test_frobenius_check_passes(capsys):
    assert run(["frobenius", "check", CUBIC]) == 0
    out = capsys.readouterr().out
    assert "wdvv-associativity" in out and "PASS" in out


def test_frobenius_pencil_writes_file(tmp_path):
    assert run(["frobenius", "pencil", CUBIC, "--out", tmp_path]) == 0
    pencil = json.loads((tmp_path / "n1-cubic-frobenius-pencil.json").read_text())
    assert pencil["g1"] == [["t1"]]
    assert pencil["tau"] == "t1"
    assert pencil["d"] == "0"


def test_pencil_check(capsys):
    assert run(["pencil", "check", PENCIL1]) == 0
    out = capsys.readouterr().out
    assert "pencil-curvature" in out
    assert "degree-d: 0" in out


def test_round_trip_through_files(tmp_path):
    assert run(["frobenius", "pencil", CP1, "--out", tmp_path]) == 0
    pencil_path = tmp_path / "cp1-frobenius-pencil.json"
    assert run(["pencil", "reconstruct", pencil_path, "--out", tmp_path]) == 0
    recovered = json.loads((tmp_path / "cp1-frobenius-pencil-frobenius.json").read_text())
    original = json.loads(CP1.read_text())
    assert recovered == original


def test_reconstruct_reports_mode(tmp_path, capsys):
    run(["frobenius", "pencil", CP1, "--out", tmp_path])
    capsys.readouterr()
    assert run(["pencil", "reconstruct", tmp_path / "cp1-frobenius-pencil.json"]) == 0
    assert "mode: d1-remark" in capsys.readouterr().out


def test_coxeter_outputs(tmp_path, capsys):
    assert run(["coxeter", "--type", "A", "--rank", "2", "--out", tmp_path]) == 0
    out = capsys.readouterr().out
    assert "degree-d: 1/3" in out
    assert (tmp_path / "a2-pencil.json").exists()
    assert (tmp_path / "a2-frobenius.json").exists()


def test_bracket_commands(tmp_path, capsys):
    assert run(["bracket", "compat", PENCIL1]) == 0
    assert run(["bracket", "virasoro", CUBIC]) == 0
    assert run(["bracket", "emit", PENCIL1, "--out", tmp_path]) == 0
    emitted = json.loads((tmp_path / "n1-pencil-brackets.json").read_text())
    assert emitted["bracket1"]["connection"] == [[["1/2"]]]
    assert run(["bracket", "recurse", PENCIL1, "--steps", "2", "--out", tmp_path]) == 0
    densities = json.loads((tmp_path / "n1-pencil-densities.json").read_text())
    assert densities["densities"]["1,1"] == "1/4*t1^2"
    capsys.readouterr()
    assert run(["bracket", "central-charge", CUBIC, "--coxeter-rank", "1"]) == 0
    out = capsys.readouterr().out
    assert "central-charge: 6" in out


def test_parse_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"schema": 1, "n": 1, "g1": [["t1 ++ 2"]], "g2": [["1"]]}', encoding="utf-8"
    )
    assert run(["pencil", "check", bad]) == 3
    err = capsys.readouterr().err
    assert "line 1" in err and "column 5" in err


def test_unknown_field_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"schema": 1, "n": 1, "g1": [["t1"]], "g2": [["1"]], "shiny": true}',
        encoding="utf-8",
    )
    assert run(["pencil", "check", bad]) == 3
    assert "unknown fields" in capsys.readouterr().err


def test_non_utf8_input_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert run(["pencil", "check", bad]) == 3
    assert capsys.readouterr() == (
        "",
        f"input error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n",
    )


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_reconstruct_without_tau_exit_3(tmp_path, capsys):
    data = json.loads(PENCIL1.read_text())
    del data["tau"]
    assert run(["pencil", "reconstruct", write_json(tmp_path / "no-tau.json", data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "no tau" in err


def test_recurse_on_non_constant_g2_exit_1(tmp_path, capsys):
    data = {"schema": 1, "n": 1, "g1": [["1"]], "g2": [["t1"]]}
    assert run(["bracket", "recurse", write_json(tmp_path / "curved-g2.json", data)]) == 1
    assert capsys.readouterr().err.startswith("certification error: NotFlatCoordinatesError:")


@pytest.mark.parametrize(
    "command", [["pencil", "check"], ["pencil", "reconstruct"], ["bracket", "compat"], ["bracket", "recurse"]]
)
def test_degenerate_g2_exit_1(tmp_path, capsys, command):
    path = write_json(tmp_path / "degenerate-g2.json", {"schema": 1, "n": 1, "g1": [["t1"]], "g2": [["0"]]})
    assert run([*command, path]) == 1
    assert capsys.readouterr().err.startswith("certification error: SingularMetricError:")


def test_power_over_degree_bound_exit_3(tmp_path, capsys):
    assert run(["coxeter", "--type", "A", "--rank", "2", "--out", tmp_path]) == 0
    data = json.loads((tmp_path / "a2-pencil.json").read_text())
    data["g1"][0][0] = "(t1+t2+1)^400"
    path = write_json(tmp_path / "a2-big-power.json", data)
    capsys.readouterr()
    assert run(["pencil", "check", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "degree bound 64" in err


def test_power_over_packed_limit_exit_3(tmp_path, capsys):
    # Every factor is within the degree bound 64 of a power, but the product
    # of 513 of them reaches t1^32832, past the packed-key bound 32767.
    data = json.loads(CUBIC.read_text())
    data["potential"] = "*".join(["t1^64"] * 513)
    path = write_json(tmp_path / "huge-product.json", data)
    assert run(["frobenius", "check", path]) == 3
    assert capsys.readouterr().err.startswith("parse error: coordinate power bound 32767 exceeded")


def one_by_one_pencil(g1, expgens=()):
    return {"schema": 1, "n": 1, "expgens": [list(g) for g in expgens], "g1": [[g1]], "g2": [["1"]]}


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps(one_by_one_pencil("1" + "2" * 4999 + "*t1")), "parse error: token longer than the bound of 1000 characters"),
        (json.dumps(one_by_one_pencil("t" + "1" * 5000)), "parse error: token longer than the bound of 1000 characters"),
        (json.dumps(one_by_one_pencil("t1^\u00b2")), "parse error: unexpected character '\u00b2'"),
        (
            json.dumps(one_by_one_pencil("exp(1000000000*t1)^2", [[1, "1"]])),
            "parse error: exponential generator rate bound 1000000000 exceeded",
        ),
        (
            json.dumps(one_by_one_pencil("exp(2000000000*t1)", [[1, "1"]])),
            "parse error: exponential generator rate bound 1000000000 exceeded",
        ),
        ('{"schema": 1, "n": 1, "g1": [["t1"]], "g2": [["1"]], "d": ' + "9" * 5000 + "}",
         "input error: JSON integer longer than the bound of 1000 digits"),
    ],
    ids=["long-literal", "long-variable-index", "superscript-exponent", "exp-power-rate", "exp-rate", "long-json-integer"],
)
def test_hostile_input_exit_3(tmp_path, capsys, text, message):
    path = tmp_path / "hostile.json"
    path.write_text(text, encoding="utf-8")
    assert run(["pencil", "check", path]) == 3
    assert capsys.readouterr().err.startswith(message)


def diagonal_pencil(entry, expgens=()):
    """diag(entry, entry) over g2 = I."""
    return {
        "schema": 1,
        "n": 2,
        "expgens": [list(g) for g in expgens],
        "g1": [[entry, "0"], ["0", entry]],
        "g2": [["1", "0"], ["0", "1"]],
    }


@pytest.mark.parametrize(
    "g1, expgens, message",
    [
        (" * ".join(["t1^64"] * 257), (), "input error: coordinate power bound 32767 exceeded\n"),
        ("exp(600000000*t1)", [[1, "600000000"]], "input error: exponential generator rate bound 1000000000 exceeded\n"),
    ],
    ids=["power-bound", "rate-bound"],
)
def test_ring_bound_crossed_during_run_exit_3(tmp_path, capsys, g1, expgens, message):
    # Both parse within the bounds; det g1 = g1^{11} g1^{22} (degree 32896,
    # or rate 1200000000) crosses one, which says the input is too large for
    # the ring, not that a certificate failed.
    path = write_json(tmp_path / "large.json", diagonal_pencil(g1, expgens))
    assert run(["pencil", "check", path]) == 3
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize(
    "g1, expgens",
    [(" * ".join(["t1^64"] * 300), ()), ("exp(600000000*t1)", [[1, "600000000"]])],
    ids=["power-bound", "rate-bound"],
)
def test_one_by_one_pencil_near_ring_bound_decides(tmp_path, capsys, g1, expgens):
    # A 1x1 connection is 1/2 d g1 with no product by det, so no bound is
    # crossed, and a 1x1 pencil is flat.
    path = write_json(tmp_path / "large.json", one_by_one_pencil(g1, expgens))
    assert run(["pencil", "check", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "FAIL" not in captured.out


def test_reconstruct_large_scaling_rate_decides_exit_1(tmp_path, capsys):
    # The characteristic polynomial of Lam is x - 5*10^23, too large to
    # enumerate its divisors; [e, E] = L e with L = 10^24 + 1 makes the
    # pencil not quasihomogeneous.
    data = {"schema": 1, "n": 1, "g1": [["1000000000000000000000001*t1"]], "g2": [["1"]], "tau": "t1"}
    path = write_json(tmp_path / "large-rate.json", data)
    started = time.monotonic()
    assert run(["pencil", "reconstruct", path]) == 1
    assert time.monotonic() - started < 1
    assert capsys.readouterr() == (
        "",
        "certification error: NotQuasihomogeneousError: scaling residual has terms beyond quadratic: "
        "1000000000000000000000000/3*t1^3\n",
    )


def test_reconstruct_non_affine_tau_exit_1(tmp_path, capsys):
    # The A2 orbit pencil with tau = t2^2 instead of t2.
    data = {
        "schema": 1,
        "n": 2,
        "g1": [["54*t2^2", "t1"], ["t1", "2/3*t2"]],
        "g2": [["0", "1"], ["1", "0"]],
        "tau": "t2^2",
        "d": "1/3",
    }
    assert run(["pencil", "reconstruct", write_json(tmp_path / "tau-squared.json", data)]) == 1
    assert capsys.readouterr() == ("", "certification error: TauHessianError: tau is not affine-linear\n")


def test_recursion_integral_over_power_bound_exit_3(tmp_path, capsys):
    # On g1 = t1^4096 over g2 = 1 the density of step s has degree 4096 s + 1,
    # so the eighth target has degree 32767, within the bound; only its
    # integral, of degree 32769, crosses it.
    g1 = " * ".join(["t1^64"] * 64)
    path = write_json(tmp_path / "steep.json", one_by_one_pencil(g1))
    assert run(["bracket", "recurse", path, "--steps", "7"]) == 0
    capsys.readouterr()
    assert run(["bracket", "recurse", path, "--steps", "8"]) == 3
    assert capsys.readouterr() == ("", "input error: coordinate power bound 32767 exceeded\n")


def test_long_integer_in_witness_prints_in_full(tmp_path, capsys):
    # Within the token bound, but the scaling residual 2*S^5*t1^5 has about
    # 4700 digits, more than Python converts to str by default.
    sevens = int("7" * 1000)
    data = json.loads(CUBIC.read_text())
    data["potential"] = f"1/6*t1^3 + ({sevens}*t1)^5"
    path = write_json(tmp_path / "long-witness.json", data)
    limit = sys.get_int_max_str_digits()
    assert run(["frobenius", "check", path]) == 1
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        witness = f"scaling residual has terms beyond quadratic: {2 * sevens ** 5}*t1^5"
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert witness in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("declared", ["1", "3"])
def test_reconstruct_certifies_declared_degree(tmp_path, capsys, declared):
    # L_E g1 = (d-1) g1 gives d = 0 for this pencil.
    data = json.loads(PENCIL1.read_text())
    data["d"] = declared
    path = write_json(tmp_path / "wrong-d.json", data)
    assert run(["pencil", "reconstruct", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("certification error: DegreeInferenceError:")
    assert f"declared d = {declared}" in err and "gives d = 0" in err
    # pencil check still certifies the declared degree as before
    assert run(["pencil", "check", path]) == 1
    assert "euler-scaling-first-metric" in capsys.readouterr().out


@pytest.mark.parametrize(
    "source, field, value, message",
    [
        (PENCIL1, "n", True, "n must be a positive integer"),
        (CP1, "n", True, "n must be a positive integer"),
        (CP1, "unity_index", True, "unity_index"),
        (CP1, "expgens", [[True, "1"]], "expgens coordinate"),
        (PENCIL1, "expgens", [[True, "1"]], "expgens coordinate"),
        (CP1, "eta", [["1", "1"], ["1", "1"]], "eta is singular"),
    ],
    ids=["pencil-n", "frobenius-n", "unity-index", "frobenius-expgens", "pencil-expgens", "singular-eta"],
)
def test_loader_rejects_booleans_and_singular_eta_exit_3(tmp_path, capsys, source, field, value, message):
    data = json.loads(source.read_text())
    data[field] = value
    kind = "pencil" if source == PENCIL1 else "frobenius"
    assert run([kind, "check", write_json(tmp_path / "bad.json", data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err


def test_usage_error_exit_2(capsys):
    for argv in (
        ["pencil", "frobnicate", PENCIL1],
        ["coxeter", "--rank", "9"],
        ["coxeter", "--rank", "0"],
    ):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        assert "usage:" in capsys.readouterr().err
    # The orbit space of A_K has dimension K, so K must equal n (here n = 1).
    for rank in ("0", "-2", "2", "20000"):
        with pytest.raises(SystemExit) as info:
            run(["bracket", "central-charge", CUBIC, "--coxeter-rank", rank])
        assert info.value.code == 2
        assert "--coxeter-rank must equal the dimension n = 1" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"schema": 1, "n": ', None], ids=["malformed", "missing"])
def test_steps_checked_before_the_input_is_read(tmp_path, capsys, text):
    path = tmp_path / "in.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        run(["bracket", "recurse", path, "--steps", "0"])
    assert info.value.code == 2
    assert capsys.readouterr() == ("", "error: --steps must be >= 1\n")


def test_certificate_failure_exit_1(tmp_path, capsys):
    bad = tmp_path / "nonflat.json"
    bad.write_text(
        json.dumps(
            {
                "schema": 1,
                "n": 2,
                "expgens": [],
                "g1": [["1", "0"], ["0", "t1^2"]],
                "g2": [["1", "0"], ["0", "1"]],
            }
        ),
        encoding="utf-8",
    )
    assert run(["pencil", "check", bad]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_reports_byte_identical(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        assert run(["pencil", "check", PENCIL1, "--out", out]) == 0
    r1 = (out1 / "pencil-check-report.json").read_bytes()
    r2 = (out2 / "pencil-check-report.json").read_bytes()
    assert r1 == r2
    payload = json.loads(r1)
    assert payload["mode"] == "exact" and payload["seed"] is None
    names = [c["name"] for c in payload["certificates"]]
    assert names == sorted(names)


def test_report_has_digest_and_schema(tmp_path):
    out = tmp_path / "r"
    assert run(["frobenius", "check", CUBIC, "--out", out]) == 0
    payload = json.loads((out / "frobenius-check-report.json").read_text())
    assert payload["schema"] == 1
    assert payload["inputs"][0]["sha256"]
    assert all(c["timing_ms"] is None for c in payload["certificates"])


def test_internal_error_exit_4(monkeypatch, capsys):
    # A connection kernel that drops the determinant from the antisymmetric
    # part: the symmetry self-check must fire as a toolkit bug, not as a
    # failed certificate.  CP1's spectrum is resonant, so its g1 connection
    # is built by the kernel, not by the flat-coordinate candidate.
    monkeypatch.setattr("flatpencil.geometry.exact_divide", lambda num, den: num)
    assert run(["pencil", "check", SOURCES / "cp1-pencil.json"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "internal error: connection symmetry residual nonzero at (1,2,1)\n"
    assert "FAIL" not in captured.out


def test_uncertified_pencil_in_inverse_construction_exit_4(monkeypatch, capsys):
    # The inverse construction reports the difference-tensor identities as
    # implied by the flat-pencil certificate, so a pipeline that reaches it
    # without that record is a toolkit bug, never a PASS or a FAIL line.
    def failing(_pencil):
        report = Report()
        report.add(Certificate("pencil-curvature", reports.FAIL, witness="forced"))
        return report

    monkeypatch.setattr(coxeter, "check_flat_pencil", failing)
    assert run(["coxeter", "--type", "A", "--rank", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: inverse construction reached a pencil that check_flat_pencil has not certified\n"
    )


def test_frobenius_check_enforces_unity_axiom(tmp_path, capsys):
    data = json.loads(CUBIC.read_text())
    data["potential"] = "1/3*t1^3"
    path = tmp_path / "unity-violating.json"
    path.write_text(json.dumps(data))
    expected = "certification error: UnityViolationError: c(e, d_1, d_1) = 2 differs from eta entry 1\n"
    commands = (["frobenius", "check"], ["frobenius", "pencil"], ["bracket", "virasoro"], ["bracket", "central-charge"])
    for command in commands:
        assert run([*command, path]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", expected), command


@pytest.mark.parametrize(
    "argv, derived, unformed",
    [
        # The unity check reads c_abc alone, and nothing else in frobenius
        # check reads c^{ab}_c, so that is never formed there.
        (["frobenius", "check", SOURCES / "a3-frobenius.json"], 1, ("c_mixed",)),
        (["frobenius", "pencil", SOURCES / "a3-frobenius.json"], 1, ()),
        (["bracket", "virasoro", SOURCES / "a3-frobenius.json"], 1, ()),
        # The inverse construction reports WDVV as implied by the certified
        # associativity of its product, so it never reaches check_wdvv; with
        # the identity unity presentation it hands the FrobeniusData the
        # gradient, Hessian and c_abc that recover_potential verified and the
        # raised product of `multiplication`, so none is derived from F again.
        (["pencil", "reconstruct", SOURCES / "a3-pencil.json"], 0, ()),
        (["coxeter", "--rank", "3"], 0, ()),
    ],
    ids=["frobenius-check", "frobenius-pencil", "bracket-virasoro", "pencil-reconstruct", "coxeter"],
)
def test_forward_quantities_derived_once(argv, derived, unformed, monkeypatch):
    calls = Counter()
    cached = ("gradient", "hessian", "c_low", "c_up", "c_mixed")
    for name in cached:
        def counted_property(m, name=name, derive=FrobeniusData.__dict__[name].func):
            calls[name] += 1
            return derive(m)

        spy = functools.cached_property(counted_property)
        spy.__set_name__(FrobeniusData, name)
        monkeypatch.setattr(FrobeniusData, name, spy)
    for name in ("check_wdvv", "check_quasihomogeneity", "check_unity"):
        def counted(*args, name=name, original=getattr(frobenius, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(frobenius, name, counted)
    assert run(argv) == 0
    expected = Counter(check_quasihomogeneity=1, check_unity=1)
    expected.update(dict.fromkeys((*cached, "check_wdvv"), derived))
    for name in unformed:
        expected[name] = 0
    assert calls == expected


def a3_pencil(tmp_path, d):
    """The A3 orbit pencil with its degree replaced by d, or removed for None."""
    data = json.loads((SOURCES / "a3-pencil.json").read_text())
    if d is None:
        del data["d"]
    else:
        data["d"] = d
    return write_json(tmp_path / "a3.json", data)


def test_reconstruct_refuses_declared_degree_that_does_not_fit(tmp_path, capsys):
    assert run(["pencil", "reconstruct", a3_pencil(tmp_path, "1/3")]) == 1
    assert capsys.readouterr() == (
        "",
        "certification error: DegreeInferenceError: declared d = 1/3 does not satisfy "
        "L_E g1 = (d-1) g1, which gives d = 1/2\n",
    )


def count_scaling_derivations(monkeypatch) -> Counter:
    """Count the reads of a constant g2's entries, the (E, e) derivations
    and each distinct Lie derivative of a metric formed."""
    calls = Counter()
    read_entries = geometry.ContraMetric.constant_entries

    def counted_entries(g):
        calls["eta"] += 1
        return read_entries(g)

    monkeypatch.setattr(geometry.ContraMetric, "constant_entries", counted_entries)
    derive_euler = geometry.PencilData.__dict__["euler"].func

    def counted_euler(p):
        calls["euler"] += 1
        return derive_euler(p)

    spy = functools.cached_property(counted_euler)
    spy.__set_name__(geometry.PencilData, "euler")
    monkeypatch.setattr(geometry.PencilData, "euler", spy)
    lie = geometry.lie_derivative

    def counted_lie(x, tensor, rank, lower=0):
        calls["lie", str(x), str(tensor), rank, lower] += 1
        return lie(x, tensor, rank, lower)

    monkeypatch.setattr(geometry, "lie_derivative", counted_lie)
    return calls


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["bracket", "recurse", SOURCES / "a3-pencil.json", "--steps", "10"], {"eta": 1}),
        (["pencil", "reconstruct", None], {"eta": 1, "euler": 1}),
        (["coxeter", "--rank", "4"], {"eta": 1, "euler": 1}),
    ],
    ids=["bracket-recurse-10", "pencil-reconstruct-inferred", "coxeter-4"],
)
def test_pencil_scaling_data_derived_once(tmp_path, monkeypatch, argv, expected):
    argv = [a3_pencil(tmp_path, None) if a is None else a for a in argv]
    calls = count_scaling_derivations(monkeypatch)
    assert run(argv) == 0
    assert {key: calls[key] for key in expected} == expected


def test_pencil_check_forms_each_lie_derivative_once(tmp_path, monkeypatch):
    # L_E g1 serves both the degree inference and the euler-scaling
    # certificate; [e, E] = L_e E, L_e g1 and L_e g2 are the three others.
    calls = count_scaling_derivations(monkeypatch)
    assert run(["pencil", "check", a3_pencil(tmp_path, None)]) == 0
    assert sorted(n for key, n in calls.items() if key[0] == "lie") == [1, 1, 1, 1]


def test_internal_error_in_potential_scaling_exit_4(monkeypatch, capsys):
    def broken(_m):
        raise InternalCheckError("scaling self-check failed")

    monkeypatch.setattr("flatpencil.frobenius.check_quasihomogeneity", broken)
    assert run(["frobenius", "check", CUBIC]) == 4
    assert "internal error: scaling self-check failed" in capsys.readouterr().err


# Pencils over g2 = 1 on which the first recursion step from h = t1 has no
# solution, with the message each gets.
NON_INTEGRABLE_RECURSIONS = {
    "asymmetric-target": (
        {"g1": [["2*exp(t2)", "t1"], ["t1", "2"]], "expgens": [[2, "1"]]},
        "second-derivative target is not symmetric at (1,2); the pencil pair is not bihamiltonian on this density",
    ),
    "target-not-closed": (
        {"g1": [["t1^2 + 1", "t1"], ["t1", "1"]]},
        "target gradient is not symmetric at (2,1,2)",
    ),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGRABLE_RECURSIONS))
def test_recurse_non_integrable_target_exit_1(tmp_path, capsys, case):
    fields, message = NON_INTEGRABLE_RECURSIONS[case]
    data = {"schema": 1, "n": 2, "g2": [["1", "0"], ["0", "1"]], **fields}
    assert run(["bracket", "recurse", write_json(tmp_path / f"{case}.json", data)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"certification error: IntegrabilityError: {message}\n")


def test_recurse_resubstitution_failure_exit_4(monkeypatch, capsys):
    # A closed target whose integration comes back wrong is a toolkit bug,
    # not a pencil that fails to be bihamiltonian.
    integrate = loopspace.primitive

    def wrong(tensor, order):
        return integrate(tensor, order) + QPoly.var(tensor[0][0].nvars, 0) ** 3

    monkeypatch.setattr(loopspace, "primitive", wrong)
    assert run(["bracket", "recurse", SOURCES / "a2-pencil.json"]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "internal error: resubstitution of the recursion step failed\n")


def test_recurse_differentiates_each_density_once(monkeypatch):
    # The step that makes h_k verifies it with its gradient (n derivatives)
    # and the upper half of its symmetric Hessian (n(n+1)/2), and the next
    # step reads that jet instead of differentiating h_k again.  Derivatives
    # are traced to the density they were taken of through one level of
    # first derivatives.
    kept, parent, calls = [], {}, Counter()
    diff = QPoly.diff

    def counting(self, axis):
        out = diff(self, axis)
        kept.append((self, out))  # no id is reused while the run lasts
        parent[id(out)] = id(self)
        calls[id(self)] += 1
        return out

    densities = []
    step = cli.recursion_step

    def recording(pencil, density):
        result = step(pencil, density)
        densities.append(result.h)
        return result

    monkeypatch.setattr(QPoly, "diff", counting)
    monkeypatch.setattr(cli, "recursion_step", recording)
    assert run(["bracket", "recurse", SOURCES / "a3-pencil.json", "--steps", "10"]) == 0
    children = {}
    for child, of in parent.items():
        children.setdefault(of, []).append(child)
    per_density = [calls[id(h)] + sum(calls[c] for c in children.get(id(h), ())) for h in densities]
    n = 3
    assert per_density == [n + n * (n + 1) // 2] * (n * 10)


@pytest.mark.parametrize("command", ["emit", "compat"])
def test_bracket_commands_build_no_kernel_connection_of_g1(tmp_path, monkeypatch, command):
    # Both commands read g1's connection through the pencil, and an orbit
    # pencil's g1 takes its flat-coordinate candidate: the adjugate kernel
    # builds only the constant g2's (zero) connection.
    paths = []
    for r in range(1, 6):
        paths.append(tmp_path / f"a{r}-pencil.json")
        paths[-1].write_text(dump_pencil(coxeter.coxeter_pencil(r)[0].pencil), encoding="utf-8")
    built = []
    build = geometry._build_connection

    def counting(g):
        built.append(g)
        return build(g)

    monkeypatch.setattr(geometry, "_build_connection", counting)
    for path in paths:
        built.clear()
        assert run(["bracket", command, path]) == 0
        assert [g.is_constant() for g in built] == [True], path.name


# CP1 in coordinates s1 = t1, s2 = t1 + t2, which puts exp on both axes.
CP1_MIXED_PENCIL = {
    "n": 2,
    "d": "1",
    "tau": "-t1 + t2",
    "expgens": [[1, "-1"], [2, "1"]],
    "g1": [
        ["2*exp(-1*t1)*exp(t2)", "t1 + 2*exp(-1*t1)*exp(t2)"],
        ["t1 + 2*exp(-1*t1)*exp(t2)", "2*t1 + 2 + 2*exp(-1*t1)*exp(t2)"],
    ],
    "g2": [["0", "1"], ["1", "2"]],
}

# CP1 in coordinates s = [[1, 2], [3, 7]] t: both old coordinates mix both new ones.
CP1_DENSE_PENCIL = {
    "n": 2,
    "d": "1",
    "tau": "-3*t1 + t2",
    "expgens": [[1, "-3"], [2, "1"]],
    "g1": [
        ["28*t1 - 8*t2 + 8 + 2*exp(-3*t1)*exp(t2)", "91*t1 - 26*t2 + 28 + 6*exp(-3*t1)*exp(t2)"],
        ["91*t1 - 26*t2 + 28 + 6*exp(-3*t1)*exp(t2)", "294*t1 - 84*t2 + 98 + 18*exp(-3*t1)*exp(t2)"],
    ],
    "g2": [["4", "13"], ["13", "42"]],
}

# CP1 under the unity-preserving change s = [[1, 2], [0, 1]] t.
CP1_SHEARED_FROBENIUS = {
    "n": 2,
    "d": "1",
    "eta": [["0", "1"], ["1", "-4"]],
    "potential": "1/2*t1^2*t2 - 2*t1*t2^2 + 2*t2^3 + exp(t2)",
    "euler": {"linear": [["1", "-2"], ["0", "0"]], "constant": ["4", "2"]},
    "unity_index": 1,
    "expgens": [[2, "1"]],
}


@pytest.mark.parametrize(
    "command, data",
    [
        ("pencil check", CP1_MIXED_PENCIL),
        ("frobenius pencil", CP1_SHEARED_FROBENIUS),
        ("pencil reconstruct", CP1_MIXED_PENCIL),
        ("pencil reconstruct", CP1_DENSE_PENCIL),
    ],
    ids=["pencil-check-mixed", "frobenius-pencil-sheared", "pencil-reconstruct-mixed", "pencil-reconstruct-dense"],
)
def test_cp1_exp_on_changed_coordinates_decides(tmp_path, capsys, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run([*command.split(), path]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_recurse_builds_first_connection_once(tmp_path, monkeypatch, a3):
    # CP1's resonant spectrum makes the flat-coordinate candidate decline,
    # once, and the kernel builds g1's connection once; the a3 orbit pencil
    # takes the candidate once and never reaches the kernel.
    a3_path = tmp_path / "a3-pencil.json"
    a3_path.write_text(dump_pencil(a3[0].pencil), encoding="utf-8")
    build, candidate = geometry._build_connection, geometry.flat_candidate
    built, tried = [], []

    def counting(g):
        built.append(g)
        return build(g)

    def counting_candidate(p):
        tried.append(candidate(p))
        return tried[-1]

    monkeypatch.setattr(geometry, "_build_connection", counting)
    monkeypatch.setattr(geometry, "flat_candidate", counting_candidate)
    assert run(["bracket", "recurse", SOURCES / "cp1-pencil.json", "--steps", "10"]) == 0
    assert len(built) == 1 and not built[0].is_constant()
    assert tried == [None]
    built.clear()
    tried.clear()
    assert run(["bracket", "recurse", a3_path, "--steps", "10"]) == 0
    assert built == [] and len(tried) == 1 and tried[0] is not None


# `pencil check` on a pencil whose g1 connection keeps det in every entry.
NON_POLYNOMIAL_PENCIL = {
    "schema": 1,
    "n": 2,
    "expgens": [],
    "g1": [["t1^2+t2+3/2*t1*t2", "2*t1+t2^2"], ["2*t1+t2^2", "t1*t2+1"]],
    "g2": [["1", "0"], ["0", "1"]],
    "tau": "t2",
    "d": "1/2",
}
NON_POLYNOMIAL_PENCIL_CHECK = (
    "[   PASS] pencil-determinant\n"
    "[   FAIL] pencil-connection-symmetry  -- entry (1,2,1), lam^1: nonzero normal form: "
    "3/4*t1^4*t2 + 3/8*t1^3*t2^2 - 3/2*t1^2*t2^3 - 3/4*t1*t2^4 - 5/2*t1^3*t2 - 3*t1^2*t2^"
    "2 + t2^4 - 17/4*t1^3 - 3/8*t1^2*t2 + 9/2*t1*t2^2 + 5/4*t2^3 + 9/2*t1^2 + 3*t1*t2 - 3"
    "/4*t1 + 1/2*t2 - 1/2\n"
    "[   PASS] pencil-connection-metricity\n"
    "[   FAIL] pencil-curvature  -- entry (1,1,1,2), lam^0: nonzero normal form: -1/8*t1^"
    "6*t2^4 - 3/8*t1^5*t2^5 + 45/16*t1^4*t2^6 + 67/16*t1^3*t2^7 + 3/8*t1^2*t2^8 + 9/8*t1*"
    "t2^9 + t2^10 - 1/4*t1^7*t2^2 + 1/4*t1^6*t2^3 + 111/8*t1^5*t2^4 + 139/8*t1^4*t2^5 - 7"
    "/2*t1^3*t2^6 + 93/16*t1^2*t2^7 + 13/2*t1*t2^8 - 1/8*t2^9 + 2*t1^7*t2 + 39/2*t1^6*t2^"
    "2 + 135/4*t1^5*t2^3 - 127/16*t1^4*t2^4 - 93/8*t1^3*t2^5 - 279/32*t1^2*t2^6 - 5/2*t1*"
    "t2^7 + 27/16*t2^8 + 6*t1^7 + 63/2*t1^6*t2 + 57/8*t1^5*t2^2 - 141/2*t1^4*t2^3 - 1351/"
    "16*t1^3*t2^4 - 3*t1^2*t2^5 + 129/8*t1*t2^6 + 7/4*t2^7 + 12*t1^6 - 66*t1^5*t2 - 703/8"
    "*t1^4*t2^2 + 29*t1^3*t2^3 + 153/4*t1^2*t2^4 + 127/8*t1*t2^5 + 71/8*t2^6 + 81/4*t1^5 "
    "+ 52*t1^4*t2 + 45/4*t1^3*t2^2 + 81/2*t1^2*t2^3 + 161/4*t1*t2^4 - 3/4*t2^5 - 57/2*t1^"
    "4 + 63/2*t1^3*t2 + 555/16*t1^2*t2^2 - 12*t1*t2^3 + 4*t2^4 - 165/8*t1^3 - 21*t1^2*t2 "
    "+ 41/4*t1*t2^2 - 2*t2^3 + 9/2*t1^2 - 4*t1*t2 + 3/4*t2^2 + 3/2*t1\n"
    "[   FAIL] unity-commutator  -- entry (1): nonzero normal form: 2*t2\n"
    "[   FAIL] euler-scaling-first-metric  -- entry (1,1): nonzero normal form: 3/2*t1^2*"
    "t2 + 2*t1*t2^2 - 5/2*t2^3 + 1/2*t1^2 - 37/4*t1*t2 + 3/2*t1 - 7/2*t2 + 1\n"
    "[   FAIL] unity-flow-first-metric  -- entry (1,1): nonzero normal form: 3/2*t1\n"
    "[   PASS] unity-flow-second-metric\n"
    "degree-d: 1/2\n"
)


def test_pencil_check_over_shared_denominator_output_pinned(tmp_path, capsys):
    path = tmp_path / "non-polynomial.json"
    path.write_text(json.dumps(NON_POLYNOMIAL_PENCIL), encoding="utf-8")
    assert run(["pencil", "check", path]) == 1
    assert capsys.readouterr().out == NON_POLYNOMIAL_PENCIL_CHECK


def _fresh_process(argv):
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(SRC)}
    code = "import sys; from flatpencil.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_process_prints_what_fresh_processes_print(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    # Plain lines, which the table reads, come between them.
    sequence = (
        ["coxeter", "--rank", "9"],
        ["coxeter", "--rank", "2"],
        ["pencil", "--help"],
        ["pencil", "check", PENCIL1],
        ["bogus"],
        ["bracket", "recurse", PENCIL1, "--steps", "2"],
        ["--help"],
        ["frobenius", "pencil", CUBIC],
        ["bracket", "--help"],
        ["bracket", "recurse", PENCIL1, "--steps", "0"],
        ["coxeter", "--help"],
        ["coxeter", "--type", "B", "--rank", "1"],
        ["frobenius", "bogus"],
        ["bracket", "compat", PENCIL1],
        ["bracket", "recurse", PENCIL1, "--step=2"],
        ["coxeter", "--rank", "1"],
        ["bracket", "central-charge", CUBIC, "--coxeter-rank", "2"],
        ["frobenius", "check", CUBIC],
    )
    for argv in sequence:
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh_process(argv), argv


def _run_with_stdout(argv, stdout):
    """Exit code and stderr of a fresh process whose stdout is ``stdout``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import sys; from flatpencil.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env
    )
    return proc.returncode, proc.stderr


def test_closed_pipe_is_output_error_exit_2():
    # As in `flatpencil frobenius check a3-frobenius.json | head -1`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _run_with_stdout(["frobenius", "check", SOURCES / "a3-frobenius.json"], write_end)
    finally:
        os.close(write_end)
    assert result == (2, "output error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_full_device_is_output_error_exit_2():
    with open("/dev/full", "w") as full:
        result = _run_with_stdout(["frobenius", "check", SOURCES / "a3-frobenius.json"], full)
    assert result == (2, "output error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("subcommand", ["check", "pencil"])
def test_out_naming_a_file_is_output_error_exit_2(tmp_path, subcommand):
    # `frobenius pencil` writes an artifact before the report, `check` only the report.
    target = tmp_path / "taken"
    target.write_text("", encoding="utf-8")
    argv = ["frobenius", subcommand, SOURCES / "a3-frobenius.json", "--out", target]
    code, err = _run_with_stdout(argv, subprocess.DEVNULL)
    assert (code, err) == (2, f"output error: [Errno 17] File exists: '{target}'\n")
    assert target.read_text(encoding="utf-8") == ""


def candidate_fallback_input(tmp_path, case):
    """A pencil file on which the flat-coordinate candidate declines."""
    data = json.loads((SOURCES / "a2-pencil.json").read_text())
    if case == "no-tau":
        del data["tau"], data["d"]
    elif case == "g2-not-constant":
        # The a2 pencil in y1 = t1 + t2^2, y2 = t2, where g2 is not constant.
        p, _gens = load_pencil(json.dumps(data))
        t1, t2 = QPoly.var(2, 0), QPoly.var(2, 1)
        new, old = [t1 + t2 * t2, t2], [t1 - t2 * t2, t2]
        moved = geometry.PencilData(
            geometry.push_metric(p.g1, new, old), geometry.push_metric(p.g2, new, old), p.tau.substitute(old), p.d
        )
        data = json.loads(dump_pencil(moved))
    elif case == "euler-not-diagonal":
        data = DENSE_A2
    elif case == "degree-not-inferable":
        # E = g1 grad(t2) = (1, t2) is diagonal, but L_E g1 is no multiple of g1.
        data = {"schema": 1, "n": 2, "expgens": [], "g1": [["t1", "1"], ["1", "t2"]], "g2": [["1", "0"], ["0", "1"]]}
        data["tau"] = "t2"
    elif case == "resonant":
        return SOURCES / "cp1-pencil.json"
    return write_json(tmp_path / f"{case}.json", data)


@pytest.mark.parametrize(
    "case",
    ["no-tau", "g2-not-constant", "euler-not-diagonal", "degree-not-inferable", "resonant", "wrong-ratio"],
)
def test_candidate_fallback_prints_kernel_bytes(tmp_path, monkeypatch, capsys, case):
    # Where the flat-coordinate candidate declines, the kernel builds g1's
    # connection, and every printed byte equals a run with no candidate.
    if case == "wrong-ratio":
        # rho_ba in place of rho_ab keeps metricity but breaks symmetry.
        ratio = geometry._flat_ratio
        monkeypatch.setattr(geometry, "_flat_ratio", lambda wa, wb, shift: 1 - ratio(wa, wb, shift))
    path = candidate_fallback_input(tmp_path, case)
    build, candidate = geometry._build_connection, geometry.flat_candidate
    built, tried = [], []

    def counting(g):
        built.append(g)
        return build(g)

    def counting_candidate(p):
        tried.append((p, candidate(p)))
        return tried[-1][1]

    monkeypatch.setattr(geometry, "_build_connection", counting)
    monkeypatch.setattr(geometry, "flat_candidate", counting_candidate)
    outputs = {}
    for command in ("check", "reconstruct"):
        outputs[command] = run(["pencil", command, path]), capsys.readouterr()
        assert tried and all(conn is None for _p, conn in tried)
        assert all(any(g is p.g1 for g in built) for p, _conn in tried)
        tried.clear()
        with monkeypatch.context() as m:
            m.setattr(geometry, "flat_candidate", lambda p: None)
            assert (run(["pencil", command, path]), capsys.readouterr()) == outputs[command]
    if case == "degree-not-inferable":
        assert outputs["check"][1].err.startswith("certification error: DegreeInferenceError")


def test_plain_lines_import_no_argparse(tmp_path):
    # A plain command line is read by the table; argparse, and the gettext
    # it imports, load only for help, usage and errors.  Neither the import
    # nor a run without --out loads hashlib (OpenSSL's libcrypto) or
    # dataclasses and the inspect, ast, dis and tokenize it pulls in; the
    # digest of an --out report loads hashlib.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from flatpencil import cli\n"
        "watched = {'hashlib', '_hashlib', 'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'argparse', 'gettext'}\n"
        "def loaded(): print(sorted(watched & (set(sys.modules) - before)), file=sys.stderr)\n"
        "loaded()\n"
        "for argv in sys.argv[1:]:\n"
        "    try:\n"
        "        cli.main(argv.split('|'))\n"
        "    except SystemExit:\n"
        "        pass\n"
        "    loaded()\n"
    )
    recurse = f"bracket|recurse|{PENCIL1}|--steps|1"
    argv = ["coxeter|--rank|1", recurse, f"{recurse}|--out|{tmp_path}", "--help"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    assert proc.stderr.splitlines() == [
        "[]",
        "[]",
        "[]",
        "['_hashlib', 'hashlib']",
        "['_hashlib', 'argparse', 'gettext', 'hashlib']",
    ]
    report = json.loads((tmp_path / "bracket-recurse-report.json").read_text(encoding="utf-8"))
    assert report["inputs"][0]["sha256"] == hashlib.sha256(PENCIL1.read_bytes()).hexdigest()


def test_report_digests_the_certified_text(tmp_path, monkeypatch):
    # The input is read once, and the report's digest is that of the text
    # the certificates were computed on, even if the file changes after.
    path = tmp_path / "n1.json"
    text = PENCIL1.read_text(encoding="utf-8")
    path.write_text(text, encoding="utf-8")
    opened = Counter()
    open_path = Path.open

    def counting(self, mode="r", *args, **kwargs):
        opened[self, mode] += 1
        return open_path(self, mode, *args, **kwargs)

    dispatch = cli.dispatch

    def rewriting(*args):
        result = dispatch(*args)
        path.write_text(text.replace('"t1"', '"t1 + 1"'), encoding="utf-8")
        return result

    monkeypatch.setattr(Path, "open", counting)
    monkeypatch.setattr(cli, "dispatch", rewriting)
    assert run(["pencil", "check", path, "--out", tmp_path / "out"]) == 0
    report = json.loads((tmp_path / "out" / "pencil-check-report.json").read_text(encoding="utf-8"))
    assert report["inputs"] == [{"path": str(path), "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}]
    assert opened[path, "r"] == 1


def test_recursion_evaluates_one_sample_point(monkeypatch):
    # g1's determinant is proved nonzero at the sample point; the constant
    # g2 takes the determinant of its entries.
    samples = []
    sample = geometry.sym_sample_values

    def counting(m):
        samples.append(m)
        return sample(m)

    monkeypatch.setattr(geometry, "sym_sample_values", counting)
    assert run(["bracket", "recurse", SOURCES / "a3-pencil.json", "--steps", "10"]) == 0
    assert len(samples) == 1
