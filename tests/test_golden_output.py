"""Byte-identity of CLI output, pinned by sha256 digest.

Each case runs one command with ``--out`` and pins its exit code, the
digest of its stdout and the digest of every file it writes; a case that
prints to stderr pins that text's digest under the name ``<stderr>``.  The
working directory and the repository root are replaced by fixed tokens
before hashing, so the digests do not depend on where the tests run.  A
change to the arithmetic that moves one byte of a report, a witness or an
emitted file fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from flatpencil.cli import main

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "perfbench" / "sources"


def perturbed_a2(tmp_path):
    """The A2 orbit pencil with t1 added to g1^{11}: not flat, and its
    connection keeps det as denominator, so the witnesses are numerators of
    fractions."""
    data = json.loads((SOURCES / "a2-pencil.json").read_text(encoding="utf-8"))
    data["g1"][0][0] += " + t1"
    path = tmp_path / "a2-perturbed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def nonflat_over_identity(tmp_path):
    """g1 = [[1,0],[0,t1^2]] over g2 = I: g1 is curved and its connection
    has det as denominator, so the pencil-curvature witness is a numerator
    over det."""
    data = {"n": 2, "g1": [["1", "0"], ["0", "t1^2"]], "g2": [["1", "0"], ["0", "1"]]}
    path = tmp_path / "nonflat.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def nonflat3_over_identity(tmp_path):
    """A curved 3-dim g1 over g2 = I whose connection keeps det, with all
    three (i, j) pairs of its antisymmetric part nonzero: the witnesses are
    numerators over det."""
    g1 = [
        ["-t1*t2-3*t2*t3+3*t3", "-t1*t3-2*t2", "0"],
        ["-t1*t3-2*t2", "-5*t3", "t1*t2*t3-3"],
        ["0", "t1*t2*t3-3", "0"],
    ]
    data = {"n": 3, "g1": g1, "g2": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    path = tmp_path / "nonflat3.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def cp1_over_identity(tmp_path):
    """The CP1 pencil's g1 over g2 = I: both metrics are flat in the exp
    ring, but their connections do not combine into the pencil's."""
    data = json.loads((SOURCES / "cp1-pencil.json").read_text(encoding="utf-8"))
    data["g2"] = [["1", "0"], ["0", "1"]]
    path = tmp_path / "cp1-identity.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


# The first a2-dense input that ``perfbench/inputs.py`` ``build_batch("7.0")``
# writes: the A2 orbit pencil under a dense rational change of coordinates, so
# the inverse construction normalizes through a non-identity matrix.
DENSE_A2 = {
    "d": "1/3",
    "expgens": [],
    "g1": [
        [
            "1944/25*t1^2 - 5184/25*t1*t2 + 3456/25*t2^2 - 26/45*t1 - 16/135*t2",
            "1458/25*t1^2 - 3888/25*t1*t2 + 2592/25*t2^2 + 11/15*t1 + 1/45*t2",
        ],
        [
            "1458/25*t1^2 - 3888/25*t1*t2 + 2592/25*t2^2 + 11/15*t1 + 1/45*t2",
            "2187/50*t1^2 - 2916/25*t1*t2 + 1944/25*t2^2 + 4/5*t1 + 14/15*t2",
        ],
    ],
    "g2": [["-4/3", "3/2"], ["3/2", "3"]],
    "n": 2,
    "tau": "-3/5*t1 + 4/5*t2",
}


def dense_a2(tmp_path):
    path = tmp_path / "a2-dense.json"
    path.write_text(json.dumps(DENSE_A2, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


# The first a3-shear input that ``perfbench/inputs.py`` ``build_batch("7.0")``
# writes: the A3 orbit pencil under the shear s1 = t1 + 2 t2.  There dE is not
# symmetric, so the lower index of L_E Delta must differentiate E^s along t^k.
SHEAR_A3 = {
    "d": "1/2",
    "expgens": [],
    "g1": [
        [
            "128*t3^3 + 4/3*t2^2 + 80*t2*t3 + 288*t3^2 + 36*t1 - 72*t2",
            "20*t2*t3 + 144*t3^2 + 18*t1 - 36*t2",
            "t1 - 1/2*t2",
        ],
        ["20*t2*t3 + 144*t3^2 + 18*t1 - 36*t2", "72*t3^2 + 9*t1 - 18*t2", "3/4*t2"],
        ["t1 - 1/2*t2", "3/4*t2", "1/2*t3"],
    ],
    "g2": [["36", "18", "1"], ["18", "9", "0"], ["1", "0", "0"]],
    "n": 3,
    "tau": "t3",
}


def shear_a3(tmp_path):
    path = tmp_path / "a3-shear.json"
    path.write_text(json.dumps(SHEAR_A3, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


# The first cp1-scale input of ``build_batch("7.0")`` whose reconstruction
# moves the unity presentation off the identity: the CP1 pencil under
# t -> diag(-3, 2) t, so the exp ring reaches the moved potential and E.
SCALED_CP1 = {
    "d": "1",
    "expgens": [[2, "1/2"]],
    "g1": [["18*exp(1/2*t2)", "2*t1"], ["2*t1", "8"]],
    "g2": [["0", "-6"], ["-6", "0"]],
    "n": 2,
    "tau": "1/2*t2",
}


def scaled_cp1(tmp_path):
    path = tmp_path / "cp1-scale.json"
    path.write_text(json.dumps(SCALED_CP1, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def a3_copy(tmp_path, d):
    """The A3 orbit pencil with its declared degree replaced by ``d``, or
    removed when ``d`` is None, so the degree comes from L_E g1."""
    data = json.loads((SOURCES / "a3-pencil.json").read_text(encoding="utf-8"))
    if d is None:
        del data["d"]
    else:
        data["d"] = d
    path = tmp_path / f"a3-d-{'inferred' if d is None else 'declared'}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


CASES = {
    **{f"coxeter-a{r}": lambda _t, r=r: ["coxeter", "--type", "A", "--rank", str(r)] for r in range(1, 6)},
    **{
        f"{src}-{name}": lambda _t, src=src, argv=argv: [*argv[:2], SOURCES / f"{src}-pencil.json", *argv[2:]]
        for src in ("a2", "cp1")
        for name, argv in (
            ("check", ["pencil", "check"]),
            ("reconstruct", ["pencil", "reconstruct"]),
            ("recurse", ["bracket", "recurse", "--steps", "3"]),
        )
    },
    "a3-frobenius-pencil": lambda _t: ["frobenius", "pencil", SOURCES / "a3-frobenius.json"],
    "a2-perturbed-check": lambda t: ["pencil", "check", perturbed_a2(t)],
    "a2-perturbed-reconstruct": lambda t: ["pencil", "reconstruct", perturbed_a2(t)],
    "a3-inferred-check": lambda t: ["pencil", "check", a3_copy(t, None)],
    "a3-inferred-reconstruct": lambda t: ["pencil", "reconstruct", a3_copy(t, None)],
    "a3-inferred-recurse": lambda t: ["bracket", "recurse", a3_copy(t, None), "--steps", "3"],
    "a3-wrong-d-check": lambda t: ["pencil", "check", a3_copy(t, "1/3")],
    "a3-recurse-10": lambda _t: ["bracket", "recurse", SOURCES / "a3-pencil.json", "--steps", "10"],
    "a3-shear-reconstruct": lambda t: ["pencil", "reconstruct", shear_a3(t)],
    "cp1-scale-reconstruct": lambda t: ["pencil", "reconstruct", scaled_cp1(t)],
    **{
        f"{src}-virasoro": lambda _t, src=src: ["bracket", "virasoro", SOURCES / f"{src}-frobenius.json"]
        for src in ("a2", "a3", "cubic")
    },
    "a2-emit": lambda _t: ["bracket", "emit", SOURCES / "a2-pencil.json"],
    "a2-perturbed-emit": lambda t: ["bracket", "emit", perturbed_a2(t)],
    "a2-perturbed-compat": lambda t: ["bracket", "compat", perturbed_a2(t)],
    "nonflat-check": lambda t: ["pencil", "check", nonflat_over_identity(t)],
    "nonflat3-check": lambda t: ["pencil", "check", nonflat3_over_identity(t)],
    "cp1-identity-compat": lambda t: ["bracket", "compat", cp1_over_identity(t)],
    "a1-emit": lambda _t: ["bracket", "emit", SOURCES / "a1-pencil.json"],
    "cubic-frobenius-pencil": lambda _t: ["frobenius", "pencil", SOURCES / "cubic-frobenius.json"],
    **{
        f"a2-dense-{name}": lambda t, argv=argv: [*argv, dense_a2(t)]
        for name, argv in (
            ("reconstruct", ["pencil", "reconstruct"]),
            ("emit", ["bracket", "emit"]),
            ("compat", ["bracket", "compat"]),
        )
    },
}

# case: (exit code, stdout digest, {file name: digest}); sha256 prefixes.
GOLDEN = {
    "a1-emit": (
        0,
        "938d617c6f972779211d369b",
        {"a1-pencil-brackets.json": "5b68553e2d2d99e0401ca002", "bracket-emit-report.json": "a0f15a63a79cbeb5476112bf"},
    ),
    "a2-check": (0, "f09e14b529f6198c04a749bc", {"pencil-check-report.json": "86c876cf5fcb216625f82cef"}),
    "a2-dense-compat": (0, "bc980ae55ab43f919f0df2aa", {"bracket-compat-report.json": "1febf2a5baabb0ac56ed17e9"}),
    "a2-dense-emit": (
        0,
        "60482ae16078714b950af1d8",
        {"a2-dense-brackets.json": "ad0ba99617f8904925fe37ee", "bracket-emit-report.json": "496768023e7a8bd0993aa5c7"},
    ),
    "a2-dense-reconstruct": (
        0,
        "c990f0366002e5e2d3242e3f",
        {"a2-dense-frobenius.json": "6e9d0e5dd5433810c223182c", "pencil-reconstruct-report.json": "bb3f800f282174dac07e8c86"},
    ),
    "a2-emit": (
        0,
        "7f2a68950212a6a16b46a1dc",
        {"a2-pencil-brackets.json": "4eda20e47e6fb91fdce03823", "bracket-emit-report.json": "01d7e362c2513b2d01fba5f4"},
    ),
    "a2-perturbed-check": (1, "12deeef0178566ad74deebb2", {"pencil-check-report.json": "51db386d4408ca825a761719"}),
    "a2-perturbed-compat": (1, "e3b0c44298fc1c149afbf4c8", {"<stderr>": "3ce3c1869dfec8bd69084710"}),
    "a2-perturbed-emit": (1, "e3b0c44298fc1c149afbf4c8", {"<stderr>": "3ce3c1869dfec8bd69084710"}),
    # the flat-pencil guard of `pencil reconstruct`: exit 3, nothing written
    "a2-perturbed-reconstruct": (3, "e3b0c44298fc1c149afbf4c8", {"<stderr>": "c210ba73d3f608e162c8c69b"}),
    "a2-reconstruct": (
        0,
        "b025a5188801ff75edcf2d9e",
        {"a2-pencil-frobenius.json": "874dfa7f139206b78737721e", "pencil-reconstruct-report.json": "33f1d5e0ac8339aa3708f18c"},
    ),
    "a2-recurse": (
        0,
        "b2794e58ee3947dda49c278b",
        {"a2-pencil-densities.json": "32ab9011b7d8b14174cb29ba", "bracket-recurse-report.json": "7d65e002fc0e1f38a6465b25"},
    ),
    "a2-virasoro": (0, "3d862955031cc5f9cdee3c4d", {"bracket-virasoro-report.json": "50c02a26fac25f55fedd0894"}),
    "a3-frobenius-pencil": (
        0,
        "3cceeec879e38520f38c2f8b",
        {"a3-frobenius-pencil.json": "2698ae4a87014d62ebf6d9d9", "frobenius-pencil-report.json": "78f9a5e09679cecd6e8f23fe"},
    ),
    "a3-inferred-check": (0, "6be9ddd0f4164a3f9d24eb30", {"pencil-check-report.json": "1950de3d5a4fce9effc57f52"}),
    "a3-inferred-reconstruct": (
        0,
        "93507c9a2057b2ed68d68212",
        {"a3-d-inferred-frobenius.json": "8b1c4867cb0fe41a6a73bdc6", "pencil-reconstruct-report.json": "129749a78d55225d9bc79f5b"},
    ),
    "a3-inferred-recurse": (
        0,
        "9afaa4484c84cf0b608b0823",
        {"a3-d-inferred-densities.json": "0de860ab77b3e76b66eeb4a1", "bracket-recurse-report.json": "11c20cd17247c81ab1efd509"},
    ),
    "a3-recurse-10": (
        0,
        "a3475911430df6cbf544d680",
        {"a3-pencil-densities.json": "1b32502daf900dd2a80a81c9", "bracket-recurse-report.json": "23b669c2d125c5a3206970a7"},
    ),
    "a3-shear-reconstruct": (
        0,
        "f7a47a1e9bdbdba476ffcf5a",
        {"a3-shear-frobenius.json": "8d3452ff0dce349c3b8cd2df", "pencil-reconstruct-report.json": "26509f3e86d1b49ca3a887af"},
    ),
    "a3-virasoro": (0, "8b8e767075dbd0d22346fe46", {"bracket-virasoro-report.json": "a07b9300f0dc5afb9c15cf2d"}),
    "a3-wrong-d-check": (1, "5c3660849648482ddc3d349b", {"pencil-check-report.json": "9e8b73f630add5e972fa136d"}),
    "coxeter-a1": (
        0,
        "038d056c573c0d4632361696",
        {
            "a1-frobenius.json": "789b61f0b725e0aefbabe27d",
            "a1-pencil.json": "69aefddc1133d1387f770732",
            "coxeter-report.json": "6db532b47913159ec94aeac0",
        },
    ),
    "coxeter-a2": (
        0,
        "97110152b50f0bb445ac39a8",
        {
            "a2-frobenius.json": "874dfa7f139206b78737721e",
            "a2-pencil.json": "f1b7473870783276998fb346",
            "coxeter-report.json": "6668a482c8480d39e70965d5",
        },
    ),
    "coxeter-a3": (
        0,
        "4f52cb14789dc244748349cf",
        {
            "a3-frobenius.json": "8b1c4867cb0fe41a6a73bdc6",
            "a3-pencil.json": "2698ae4a87014d62ebf6d9d9",
            "coxeter-report.json": "82cb5ed132b0afe1d52e1cd6",
        },
    ),
    "coxeter-a4": (
        0,
        "8f8c8af0c21dcd41d594f8c8",
        {
            "a4-frobenius.json": "0c4cc87605f20172d329a239",
            "a4-pencil.json": "d1e3c9652ace3889dbdfd3ac",
            "coxeter-report.json": "0361bd0abb4d9ac7fa2d89f0",
        },
    ),
    "coxeter-a5": (
        0,
        "6fc226e8d28f7cd861903189",
        {
            "a5-frobenius.json": "56fc5fa218c35974214a3336",
            "a5-pencil.json": "c60cba5b5e618f9b3cd1773e",
            "coxeter-report.json": "a535e27d4d8be5701a595d8e",
        },
    ),
    "cp1-check": (0, "7b8bb8e14cfd7323cec00405", {"pencil-check-report.json": "bd394332170a573071645077"}),
    "cp1-identity-compat": (1, "d335d51b11fb62be5befa491", {"bracket-compat-report.json": "d7cd0300ac7e8a22f5d0ffaa"}),
    "cp1-reconstruct": (
        0,
        "dc7aefde7630d29ced6d0118",
        {"cp1-pencil-frobenius.json": "1c807497aee7528e3e2a955e", "pencil-reconstruct-report.json": "daa5874d6449a550efd0e9ed"},
    ),
    "cp1-scale-reconstruct": (
        0,
        "cf9104a3d10f92b2f5db3189",
        {"cp1-scale-frobenius.json": "1c807497aee7528e3e2a955e", "pencil-reconstruct-report.json": "479eb389d1e1cda07c655218"},
    ),
    "cp1-recurse": (
        0,
        "8bedd9ee616b247f47c45cb5",
        {"bracket-recurse-report.json": "f34c687d944d027721469676", "cp1-pencil-densities.json": "1cd195ec83fd9d6e54137287"},
    ),
    "cubic-frobenius-pencil": (
        0,
        "a79852bc43c577c720c11444",
        {"cubic-frobenius-pencil.json": "69aefddc1133d1387f770732", "frobenius-pencil-report.json": "8d1769899f4600651dbf40eb"},
    ),
    "cubic-virasoro": (0, "0b9e62090f9f16261c8eb138", {"bracket-virasoro-report.json": "181e24fe540d1c760ef363ed"}),
    "nonflat-check": (1, "badb8f6983c684c11d51dce0", {"pencil-check-report.json": "d018474f241ff17d1d2f600f"}),
    "nonflat3-check": (1, "fc43307036259de8f08c37a4", {"pencil-check-report.json": "0fd4a51f5b038d5bf3ec07ef"}),
}


def digest(text, tmp_path):
    text = text.replace(str(tmp_path), "<tmp>").replace(str(ROOT), "<repo>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def run_case(case, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([str(a) for a in CASES[case](tmp_path)] + ["--out", str(out)])
    captured = capsys.readouterr()
    files = {f.name: digest(f.read_text(encoding="utf-8"), tmp_path) for f in sorted(out.glob("*"))}
    if captured.err:
        files["<stderr>"] = digest(captured.err, tmp_path)
    return code, digest(captured.out, tmp_path), files


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digest_pinned(case, tmp_path, capsys):
    assert run_case(case, tmp_path, capsys) == GOLDEN[case]
