"""Seeded inputs for the certify-batch workload, and their manifest.

Every input is an exact rational invertible linear change s = M t of the flat
coordinates of a known pencil or Frobenius manifold (files in ``sources/``),
computed with ``polys`` and never with the package under test.  Flatness,
compatibility and quasihomogeneity are coordinate invariant, so each op's
expected exit code follows from its source alone (README exit-code contract):

* a valid pencil or Frobenius manifold: 0 for every subcommand;
* a mutated, non-flat pair: 1 for ``pencil check`` and ``bracket compat``,
  and 3 for ``pencil reconstruct`` (its input is not a flat pencil).

Family counts are fixed; the seed draws only the matrix entries.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as Q
from pathlib import Path

import polys

SOURCES = Path(__file__).resolve().parent / "sources"

PENCIL_CMDS = {
    "check": ["pencil", "check"],
    "reconstruct": ["pencil", "reconstruct"],
    "emit": ["bracket", "emit"],
    "compat": ["bracket", "compat"],
    "recurse": ["bracket", "recurse"],
}
FROBENIUS_CMDS = {
    "fcheck": ["frobenius", "check"],
    "fpencil": ["frobenius", "pencil"],
    "virasoro": ["bracket", "virasoro"],
    "charge": ["bracket", "central-charge"],
}

VALID = "valid pencil: certificates are coordinate invariant, so all pass (exit 0)"
VALID_FROB = "valid Frobenius manifold under a unity-preserving change (exit 0)"
COXETER = "type-A orbit-space round trip at a supported rank (exit 0)"
MUTATED_FAIL = "mutated pair is not a flat pencil: a certificate fails (exit 1)"
MUTATED_INPUT = "mutated pair is not a flat pencil: reconstruct refuses the input (exit 3)"

# Per-op deadline: over 3x the slowest op that finishes at any seed tried.
DEADLINE_S = 10.0

# (family, source, change, {subcommand: count}); the counts never depend on the
# seed.  They are set so that the median op falls inside the a2-dense check
# cell and the 90th percentile inside the a2-dense recurse cell, not
# in a gap between cells, where a change of seed would move it most.
PENCIL_FAMILIES = [
    ("a1-scale", "a1", "diag", {"check": 1, "reconstruct": 1, "emit": 1, "compat": 1, "recurse": 1}),
    ("a2-dense", "a2", "dense", {"check": 20, "reconstruct": 8, "emit": 8, "compat": 6, "recurse": 16}),
    ("a3-shear", "a3", "shear", {"reconstruct": 2}),
    ("cp1-scale", "cp1", "diag", {"check": 7, "reconstruct": 7, "emit": 7, "compat": 7, "recurse": 7}),
    ("cp1-mix", "cp1", "mix", {"check": 1}),
]
MUTATED_FAMILIES = [
    ("mut-perturbed-entry", "perturbed-entry", "dense"),
    ("mut-broken-linearity", "broken-linearity", "diag"),
    ("mut-non-flat-member", "non-flat-member", "dense"),
]
MUTATED_CMDS = {"check": (1, MUTATED_FAIL), "compat": (1, MUTATED_FAIL), "reconstruct": (3, MUTATED_INPUT)}
# (family, source, change, Coxeter rank or None, {subcommand: count}).  The
# virasoro and central-charge commands need d != 1, so CP1 (d = 1) has neither.
FROBENIUS_FAMILIES = [
    ("frob-cubic", "cubic", "dense", 1, {"fcheck": 2, "fpencil": 2, "virasoro": 2, "charge": 2}),
    ("frob-cp1", "cp1", "diag", None, {"fcheck": 3, "fpencil": 3}),
    ("frob-a2", "a2", "dense", 2, {"fcheck": 3, "fpencil": 3, "virasoro": 3, "charge": 3}),
    ("frob-a3", "a3", "diag", 3, {"fcheck": 2, "fpencil": 1, "virasoro": 1, "charge": 2}),
]
COXETER_RANKS = (1, 2)
BATCH_RECURSE_STEPS = 2
# Shears cycle through these (row, column) slots; the seed draws only the entry.
SHEAR_SLOTS = ((0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2))


def load_source(name: str) -> dict:
    return json.loads((SOURCES / name).read_text(encoding="utf-8"))


def _entry(rng: random.Random) -> Q:
    return Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _invertible(m) -> bool:
    try:
        polys.inverse(m)
    except ZeroDivisionError:
        return False
    return True


def change_matrix(kind: str, n: int, rng: random.Random, unity: int | None = None, slot: int = 0) -> list[list[Q]]:
    """A seeded invertible rational matrix M of the given kind (s = M t).

    ``dense``: every entry nonzero.  ``diag``: a scaling of each axis.
    ``shear``: the identity plus one off-diagonal entry, in the ``slot``-th
    admissible position of SHEAR_SLOTS.  ``mix``: the fixed change
    s2 = t1 + t2, which puts exp on both axes (no seed involved).  With
    ``unity`` set, column ``unity`` is the unit vector, so d/dt_unity stays a
    coordinate field.
    """
    while True:
        if kind == "dense":
            m = [[_entry(rng) for _ in range(n)] for _ in range(n)]
        elif kind == "diag":
            m = [[_entry(rng) if i == j else Q(0) for j in range(n)] for i in range(n)]
        elif kind == "shear":
            m = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
            slots = [(i, j) for i, j in SHEAR_SLOTS if max(i, j) < n and j != unity]
            i, j = slots[slot % len(slots)]
            m[i][j] = _entry(rng)
        elif kind == "mix":
            m = [[Q(int(i == j or (i, j) == (1, 0))) for j in range(n)] for i in range(n)]
        else:
            raise ValueError(f"unknown change kind {kind!r}")
        if unity is not None:
            for i in range(n):
                m[i][unity] = Q(int(i == unity))
        if _invertible(m):
            return m


def _parse_matrix(rows, n):
    return [[polys.parse(x, n) for x in row] for row in rows]


def _congruence(g, m, n):
    """M g M^T for a matrix of polynomials g and a rational matrix M."""
    out = []
    for a in range(n):
        row = []
        for b in range(n):
            acc: dict = {}
            for i in range(n):
                for j in range(n):
                    if m[a][i] and m[b][j]:
                        acc = polys.add(acc, g[i][j], m[a][i] * m[b][j])
            row.append(acc)
        out.append(row)
    return out


def _expgens(exprs, n):
    """Declare every exponential rate used, per axis."""
    out = []
    for axis in range(n):
        rates = set().union(*(polys.exp_rates(p, axis) for p in exprs))
        out += [[axis + 1, str(rate)] for rate in sorted(rates)]
    return out


def change_pencil(src: dict, m) -> dict:
    """The pencil in coordinates s = M t: g'(s) = M g(M^{-1} s) M^T, tau'(s) = tau(M^{-1} s)."""
    n = src["n"]
    a = polys.inverse(m)
    out = {"n": n}
    exprs = []
    for key in ("g1", "g2"):
        g = [[polys.substitute(p, a) for p in row] for row in _parse_matrix(src[key], n)]
        g = _congruence(g, m, n)
        exprs += [p for row in g for p in row]
        out[key] = [[polys.fmt(p) for p in row] for row in g]
    if "tau" in src:
        tau = polys.substitute(polys.parse(src["tau"], n), a)
        exprs.append(tau)
        out["tau"] = polys.fmt(tau)
    if "d" in src:
        out["d"] = src["d"]
    out["expgens"] = _expgens(exprs, n)
    return out


def change_frobenius(src: dict, m, c: Q) -> dict:
    """The Frobenius manifold in coordinates s = M t, with its pairing scaled by c.

    F'(s) = c F(M^{-1} s), eta' = c A^T eta A with A = M^{-1}, and the Euler
    field E = (L t + k).d/dt becomes (M L A s + M k).d/ds.  M must fix the
    unity column, so the unity index is unchanged.  Scaling F and eta by the
    same constant keeps the multiplication, so the axioms still hold; for
    n = 1 it is the only change, as M = (1) is forced.
    """
    n = src["n"]
    a = polys.inverse(m)
    potential = polys.scale(polys.substitute(polys.parse(src["potential"], n), a), c)
    eta = [[Q(x) for x in row] for row in src["eta"]]
    lin = [[Q(x) for x in row] for row in src["euler"]["linear"]]
    k = [Q(x) for x in src["euler"]["constant"]]
    return {
        "n": n,
        "eta": [[str(c * x) for x in row] for row in polys.matmul(polys.transpose(a), polys.matmul(eta, a))],
        "potential": polys.fmt(potential),
        "euler": {
            "linear": [[str(x) for x in row] for row in polys.matmul(m, polys.matmul(lin, a))],
            "constant": [str(sum((m[i][j] * k[j] for j in range(n)), Q(0))) for i in range(n)],
        },
        "unity_index": src["unity_index"],
        "d": src["d"],
        "expgens": _expgens([potential], n),
    }


def mutated_pair(tag: str) -> dict:
    """The three known non-flat pairs of the acceptance suite, as pencil files."""
    ident = [["1", "0"], ["0", "1"]]
    if tag == "perturbed-entry":
        a2 = load_source("a2-pencil.json")
        g1 = [row[:] for row in a2["g1"]]
        g1[0][0] = f"{g1[0][0]} + t1"
        return {"n": 2, "g1": g1, "g2": a2["g2"]}
    if tag == "broken-linearity":
        cp1 = load_source("cp1-pencil.json")
        return {"n": 2, "g1": cp1["g1"], "g2": ident}
    if tag == "non-flat-member":
        return {"n": 2, "g1": [["1", "0"], ["0", "t1^2"]], "g2": ident}
    raise ValueError(f"unknown mutated pair {tag!r}")


def build_batch(stream: str, workdir: Path) -> list[dict]:
    """Write every certify-batch input under ``workdir``; return the op list.

    ``stream`` seeds the matrix entries (the workload seed, plus the pass
    number).  Each op holds its id, family, argv, expected exit code and the
    reason for it, and for a generated input the change M (and pairing
    scale c) that made it.  The ops of each (family, subcommand) cell are
    spaced evenly through the list.  Every written file is the input of
    exactly one op, and each op writes its artifacts and report to its own
    ``--out`` directory.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    ops: list[dict] = []
    seen: set[str] = set()

    def distinct(make):
        """Draw from ``make`` until its input differs from every earlier one."""
        for _ in range(1000):
            data, *change = make()
            text = json.dumps(data, sort_keys=True)
            if text not in seen:
                seen.add(text)
                return (data, *change)
        raise RuntimeError("could not draw a distinct input")

    def add_op(family, argv, expected, reason, data=None, tail=(), change=None, scale=None, place=0.5):
        op_id = f"{len(ops):03d}-{family}-{argv[-1]}"
        op = {"id": op_id, "family": family, "expected": expected, "reason": reason, "place": place}
        if data is not None:
            path = workdir / f"{op_id}.json"
            path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            argv = [*argv, str(path)]
            op["change"] = [[str(x) for x in row] for row in change]
        if scale is not None:
            op["scale"] = str(scale)
        op["argv"] = [*argv, *tail, "--out", str(workdir / op_id)]
        ops.append(op)

    for family, source, kind, cmds in PENCIL_FAMILIES:
        src = load_source(f"{source}-pencil.json")
        rng = random.Random(f"certify-batch:{stream}:{family}")
        for cmd, count in cmds.items():
            tail = ("--steps", str(BATCH_RECURSE_STEPS)) if cmd == "recurse" else ()
            for k in range(count):
                def make():
                    m = change_matrix(kind, src["n"], rng, slot=k)
                    return change_pencil(src, m), m
                data, m = distinct(make)
                add_op(family, PENCIL_CMDS[cmd], 0, VALID, data, tail, m, place=(k + 0.5) / count)

    for family, tag, kind in MUTATED_FAMILIES:
        src = mutated_pair(tag)
        rng = random.Random(f"certify-batch:{stream}:{family}")
        for cmd, (expected, reason) in MUTATED_CMDS.items():
            def make():
                m = change_matrix(kind, src["n"], rng)
                return change_pencil(src, m), m
            data, m = distinct(make)
            add_op(family, PENCIL_CMDS[cmd], expected, reason, data, change=m)

    for family, source, kind, rank, cmds in FROBENIUS_FAMILIES:
        src = load_source(f"{source}-frobenius.json")
        rng = random.Random(f"certify-batch:{stream}:{family}")
        for cmd, count in cmds.items():
            tail = ("--coxeter-rank", str(rank)) if cmd == "charge" else ()
            for k in range(count):
                def make():
                    m = change_matrix(kind, src["n"], rng, unity=src["unity_index"] - 1, slot=k)
                    c = _entry(rng)
                    return change_frobenius(src, m, c), m, c
                data, m, c = distinct(make)
                add_op(family, FROBENIUS_CMDS[cmd], 0, VALID_FROB, data, tail, m, c, (k + 0.5) / count)

    for k, rank in enumerate(COXETER_RANKS):
        argv = ["coxeter", "--type", "A", "--rank", str(rank)]
        add_op("coxeter", argv, 0, COXETER, place=(k + 0.5) / len(COXETER_RANKS))
    # Spread each (family, subcommand) cell evenly over the pass, so a slow or
    # fast spell of the host does not shift one cell's times together.
    ops.sort(key=lambda op: op.pop("place"))
    return ops
