"""JSON file formats for pencils and Frobenius data.

Pencil file:
    { "schema": 1, "n": int, "expgens": [[i, "k"], ...],
      "g1": [[expr, ...], ...], "g2": [[expr, ...], ...],
      "tau": expr?, "d": "p/q"? }

Frobenius file:
    { "schema": 1, "n": int, "eta": [["p/q", ...], ...], "potential": expr,
      "euler": {"linear": [[..]], "constant": [..]},
      "unity_index": int, "d": "p/q", "expgens": [[i, "k"], ...] }

Coordinates and the unity index are 1-based in files; eta is the covariant
matrix of the flat pairing.  Rationals are strings (or bare ints); every
expression uses the t1..tn mini-grammar, and a JSON integer has the same
length bound as a number in an expression.  Unknown fields are rejected, and
every exponential rate appearing in an expression must be an integer
multiple of a declared generator rate for that coordinate.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InputFormatError, ParseError
from .exprparse import MAX_TOKEN_LENGTH, parse_expr, parse_rational
from .frobenius import FrobeniusData
from .geometry import ContraMetric, PencilData
from .linalg import rank, rational_gcd
from .qpoly import QPoly

Q = Fraction

SCHEMA = 1


def _json_int(digits: str) -> int:
    if len(digits.lstrip("-")) > MAX_TOKEN_LENGTH:
        raise InputFormatError(f"JSON integer longer than the bound of {MAX_TOKEN_LENGTH} digits")
    return int(digits)


def _json_object(text: str):
    try:
        return json.loads(text, parse_int=_json_int)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputFormatError(f"invalid JSON: {exc}") from exc


def _check_fields(obj: dict, required: set[str], optional: set[str], kind: str) -> None:
    if not isinstance(obj, dict):
        raise InputFormatError(f"{kind}: expected a JSON object")
    unknown = set(obj) - required - optional
    if unknown:
        raise InputFormatError(f"{kind}: unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise InputFormatError(f"{kind}: missing fields {sorted(missing)}")
    if "schema" in obj and obj["schema"] != SCHEMA:
        raise InputFormatError(f"{kind}: unsupported schema {obj['schema']!r}")


def _is_integer(value) -> bool:
    """A JSON integer; true and false are not, although bool subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _rational(value, where: str) -> Q:
    if isinstance(value, bool):
        raise InputFormatError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ParseError as exc:
            raise InputFormatError(f"{where}: {exc}") from exc
    raise InputFormatError(f"{where}: expected a rational string or integer")


def _expgens(raw, n: int) -> list[tuple[int, Q]]:
    if not isinstance(raw, list):
        raise InputFormatError("expgens must be a list of [coordinate, rate] pairs")
    out = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise InputFormatError("expgens entries must be [coordinate, rate] pairs")
        axis = item[0]
        if not _is_integer(axis) or not 1 <= axis <= n:
            raise InputFormatError(f"expgens coordinate {axis!r} out of range 1..{n}")
        rate = _rational(item[1], "expgens rate")
        if rate == 0:
            raise InputFormatError("expgens rate must be nonzero")
        out.append((axis - 1, rate))
    return out


def _validate_rates(polys: list[QPoly], gens: list[tuple[int, Q]], n: int) -> None:
    declared: dict[int, set[Q]] = {}
    for axis, rate in gens:
        declared.setdefault(axis, set()).add(rate)
    for p in polys:
        for axis in range(n):
            used = p.exp_rates_on(axis)
            if not used:
                continue
            if axis not in declared:
                raise InputFormatError(
                    f"expression uses exp on t{axis + 1} with no declared generator"
                )
            base = rational_gcd(declared[axis])
            for rate in used:
                if (rate / base).denominator != 1:
                    raise InputFormatError(
                        f"exp rate {rate} on t{axis + 1} is not an integer multiple "
                        f"of the declared base rate {base}"
                    )


def _require_square(raw, n: int, message: str) -> None:
    if not isinstance(raw, list) or len(raw) != n or any(not isinstance(row, list) or len(row) != n for row in raw):
        raise InputFormatError(message)


def _matrix(raw, n: int, nvars: int, kind: str) -> list[list[QPoly]]:
    _require_square(raw, n, f"{kind}: expected an {n}x{n} matrix")
    out = []
    for i, row in enumerate(raw):
        entries = []
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise InputFormatError(f"{kind}[{i + 1}][{j + 1}]: expected an expression string")
            entries.append(parse_expr(cell, nvars))
        out.append(entries)
    return out


def load_pencil(text: str) -> tuple[PencilData, list[tuple[int, Q]]]:
    obj = _json_object(text)
    _check_fields(obj, {"n", "g1", "g2"}, {"schema", "expgens", "tau", "d"}, "pencil file")
    n = obj["n"]
    if not _is_integer(n) or n < 1:
        raise InputFormatError("n must be a positive integer")
    gens = _expgens(obj.get("expgens", []), n)
    g1 = _matrix(obj["g1"], n, n, "g1")
    g2 = _matrix(obj["g2"], n, n, "g2")
    tau = None
    if "tau" in obj:
        if not isinstance(obj["tau"], str):
            raise InputFormatError("tau must be an expression string")
        tau = parse_expr(obj["tau"], n)
    d = _rational(obj["d"], "d") if "d" in obj else None
    polys = [x for row in g1 + g2 for x in row] + ([tau] if tau is not None else [])
    _validate_rates(polys, gens, n)
    try:
        pencil = PencilData(g1=ContraMetric(g1), g2=ContraMetric(g2), tau=tau, d=d)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    return pencil, gens


def canonical_json(obj) -> str:
    """``obj`` as canonical JSON: keys sorted, two-space indent, and a final
    newline, so equal objects give byte-identical files."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump_pencil(p: PencilData) -> str:
    polys = [x for row in p.g1.g + p.g2.g for x in row] + ([p.tau] if p.tau is not None else [])
    obj: dict = {
        "schema": SCHEMA,
        "n": p.n,
        "expgens": [[axis + 1, str(rate)] for axis, rate in _gens_of(polys, p.n)],
        "g1": [[str(x) for x in row] for row in p.g1.g],
        "g2": [[str(x) for x in row] for row in p.g2.g],
    }
    if p.tau is not None:
        obj["tau"] = str(p.tau)
    if p.d is not None:
        obj["d"] = str(p.d)
    return canonical_json(obj)


def _gens_of(polys: list[QPoly], n: int) -> list[tuple[int, Q]]:
    out = []
    for axis in range(n):
        rates = set()
        for p in polys:
            rates.update(p.exp_rates_on(axis))
        if rates:
            out.append((axis, rational_gcd(rates)))
    return out


def load_frobenius(text: str) -> FrobeniusData:
    obj = _json_object(text)
    _check_fields(
        obj,
        {"n", "eta", "potential", "euler", "unity_index", "d"},
        {"schema", "expgens"},
        "frobenius file",
    )
    n = obj["n"]
    if not _is_integer(n) or n < 1:
        raise InputFormatError("n must be a positive integer")
    gens = _expgens(obj.get("expgens", []), n)
    eta_raw = obj["eta"]
    _require_square(eta_raw, n, "eta must be an n x n matrix of rationals")
    eta = [[_rational(x, f"eta[{i + 1}][{j + 1}]") for j, x in enumerate(row)] for i, row in enumerate(eta_raw)]
    if rank(eta) < n:
        raise InputFormatError("eta is singular; the flat pairing must be nondegenerate")
    if not isinstance(obj["potential"], str):
        raise InputFormatError("potential must be an expression string")
    potential = parse_expr(obj["potential"], n)
    euler = obj["euler"]
    _check_fields(euler, {"linear", "constant"}, set(), "euler")
    lin_raw, const_raw = euler["linear"], euler["constant"]
    _require_square(lin_raw, n, "euler.linear must be an n x n matrix of rationals")
    if not isinstance(const_raw, list) or len(const_raw) != n:
        raise InputFormatError("euler.constant must be a length-n vector of rationals")
    lin = [[_rational(x, "euler.linear") for x in row] for row in lin_raw]
    const = [_rational(x, "euler.constant") for x in const_raw]
    unity = obj["unity_index"]
    if not _is_integer(unity) or not 1 <= unity <= n:
        raise InputFormatError(f"unity_index {unity!r} out of range 1..{n}")
    d = _rational(obj["d"], "d")
    _validate_rates([potential], gens, n)
    try:
        return FrobeniusData(
            n=n,
            eta=eta,
            potential=potential,
            euler_linear=lin,
            euler_const=const,
            unity=unity - 1,
            d=d,
        )
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def dump_frobenius(m: FrobeniusData) -> str:
    obj = {
        "schema": SCHEMA,
        "n": m.n,
        "eta": [[str(x) for x in row] for row in m.eta],
        "potential": str(m.potential),
        "euler": {
            "linear": [[str(x) for x in row] for row in m.euler_linear],
            "constant": [str(x) for x in m.euler_const],
        },
        "unity_index": m.unity + 1,
        "d": str(m.d),
        "expgens": [[axis + 1, str(rate)] for axis, rate in _gens_of([m.potential], m.n)],
    }
    return canonical_json(obj)


def sha256_digest(text: str) -> str:
    """The sha256 of ``text`` in UTF-8, as hex.  hashlib loads OpenSSL's
    libcrypto, a few MB of memory, so it is imported here: only a report
    written under --out digests its input."""
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()
