"""Command-line entry point.

Subcommands
    frobenius check INPUT       certify WDVV + quasihomogeneity + unity axiom
    frobenius pencil INPUT      emit the certified pencil (g, eta)
    pencil check INPUT          flat-pencil + quasihomogeneity certificates
    pencil reconstruct INPUT    inverse construction, emits Frobenius JSON
    coxeter --type A --rank N   orbit-space pencil + Frobenius JSON (N = 1..8)
    bracket emit INPUT          first-order brackets of both pencil metrics
    bracket compat INPUT        bracket compatibility certificate
    bracket virasoro INPUT      Virasoro form of the stress field
    bracket recurse INPUT       bihamiltonian recursion from the Casimirs
    bracket central-charge INPUT [--coxeter-rank K]   (K must equal n)

Exit codes: 0 all certificates pass, 1 certificate failure, 2 usage error
or output that cannot be written (a report or artifact write failed), 3
malformed input (an unreadable or non-UTF-8 file, or an expression error,
which carries line/column) or an input too large for the ring (a
coordinate power or exponential rate bound crossed during the run), 4
internal error (a redundant self-check failed: a toolkit bug, not a
verdict on the input).
Reports are printed as text and, with --out DIR, written as canonical JSON;
identical inputs produce byte-identical report files.

A plain command line (a command, at most one input path, and that
command's own options, each at most once, as separate tokens, with values
that do not start with '-') is read by a table, :func:`plain_args`, into
the namespace argparse would give it.  Every other command line goes to
argparse, which is imported and built, whole, only then: it is the one
source of help, usage and error text, and no state of it outlives a call.

Usage rules are checked before the input is read where they can be:
argparse's own (option types, --rank's choices, required arguments) as it
parses, and --steps >= 1 right after.  --coxeter-rank must equal the
input's dimension n, so it is checked once the input is loaded.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from types import SimpleNamespace

from . import pencilio, reports
from .coxeter import coxeter_pencil
from .errors import FlatPencilError, InputFormatError, InternalCheckError, ParseError, RingBoundError
from .frobenius import to_flat_pencil, unity_scaling_certificate
from .geometry import check_flat_pencil, check_quasihomogeneous
from .loopspace import Density, bracket_from_metric, central_charge, recursion_step, virasoro_check
from .qpoly import QPoly
from .reconstruction import reconstruct_frobenius
from .reports import Certificate, Report

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


# Each command group's help text and its subcommands; ``coxeter`` takes
# its arguments itself.
GROUPS = {
    "frobenius": ("potential-based certificates", ("check", "pencil")),
    "pencil": ("pencil certificates and reconstruction", ("check", "reconstruct")),
    "coxeter": ("type-A orbit space pencil", ()),
    "bracket": ("loop-space brackets", ("emit", "compat", "virasoro", "recurse", "central-charge")),
}

# The options of each command, in help order, as argparse keywords; a
# command not listed takes COMMON.  argparse and plain_args both read them;
# "action" marks a switch, which names its default.
COMMON = {
    "--out": {"type": Path, "default": None, "help": "directory for JSON artifacts"},
    "--timings": {"action": "store_true", "default": False, "help": "include wall-clock timing in the report"},
}
OPTIONS = {
    "coxeter": {
        "--type": {"dest": "group_type", "default": "A", "help": "Coxeter type (only A)"},
        "--rank": {"type": int, "required": True, "choices": range(1, 9)},
        **COMMON,
    },
    "recurse": {"--steps": {"type": int, "default": 1}, **COMMON},
    "central-charge": {"--coxeter-rank": {"type": int, "default": None}, **COMMON},
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command group, built from GROUPS and
    OPTIONS; only help, usage and error lines need it."""
    import argparse

    parser = argparse.ArgumentParser(prog="flatpencil", description=__doc__.split("\n")[0])
    groups = parser.add_subparsers(dest="command", required=True)
    for name, (text, commands) in GROUPS.items():
        group = groups.add_parser(name, help=text)
        if not commands:
            for flag, keywords in OPTIONS[name].items():
                group.add_argument(flag, **keywords)
            continue
        sub = group.add_subparsers(dest="subcommand", required=True)
        for command in commands:
            p = sub.add_parser(command)
            p.add_argument("input", type=Path)
            for flag, keywords in OPTIONS.get(command, COMMON).items():
                p.add_argument(flag, **keywords)
    return parser


def plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plain command line, or None for any
    other.  Plain is: a group and one of its subcommands, or ``coxeter``;
    one input path after a subcommand, none after ``coxeter``; and the
    command's own OPTIONS, each at most once, spelled out in full, with its
    value as the next token.  No path or value may start with '-', and a
    value must pass the option's type and choices.  Everything else, help
    and usage errors included, is left to argparse."""
    if not argv or argv[0] not in GROUPS:
        return None
    if argv[0] == "coxeter":
        values, command, rest = {"command": "coxeter"}, "coxeter", argv[1:]
    elif len(argv) > 1 and argv[1] in GROUPS[argv[0]][1]:
        values, command, rest = {"command": argv[0], "subcommand": argv[1]}, argv[1], argv[2:]
    else:
        return None
    options = OPTIONS.get(command, COMMON)
    given: dict[str, object] = {}
    paths = []
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            paths.append(Path(token))
            continue
        keywords = options.get(token)
        if keywords is None or token in given:
            return None
        if "action" in keywords:
            given[token] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[token] = value
    if len(paths) != (command != "coxeter"):
        return None
    if paths:
        values["input"] = paths[0]
    for flag, keywords in options.items():
        if flag not in given and keywords.get("required"):
            return None
        values[keywords.get("dest", flag[2:].replace("-", "_"))] = given.get(flag, keywords.get("default"))
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    # Exact results may print integers past Python's int/str conversion limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: list[str] | None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if getattr(args, "steps", 1) < 1:
        print("error: --steps must be >= 1", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    started = time.monotonic()
    try:
        # The one read of the input: the certified text is the digested one.
        text = read_input(args.input) if hasattr(args, "input") else None
        report, extra, outputs = dispatch(args, text)
        elapsed_ms = int((time.monotonic() - started) * 1000) if args.timings else None
        print(report.summary())
        for key, value in extra.items():
            print(f"{key}: {value}")
        for path in outputs:
            print(f"wrote {path}")
        if args.out is not None:
            payload = run_report_json(args, text, report, extra, outputs, elapsed_ms)
            report_path = write_artifact(args.out, f"{command_slug(args)}-report.json", payload)
            print(f"wrote {report_path}")
        # A failed flush at interpreter shutdown would end the process with 120.
        sys.stdout.flush()
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InputFormatError, RingBoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except FlatPencilError as exc:
        print(f"certification error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CERT_FAIL
    except OSError as exc:
        # Reads are mapped to InputFormatError, so this is an artifact or
        # the report that could not be written.
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if report.passed else EXIT_CERT_FAIL


def command_slug(args) -> str:
    parts = [args.command]
    if getattr(args, "subcommand", None):
        parts.append(args.subcommand)
    return "-".join(parts)


def run_report_json(args, text: str | None, report: Report, extra: dict, outputs: list[str], elapsed_ms) -> str:
    payload = {
        "schema": pencilio.SCHEMA,
        "command": command_slug(args),
        "inputs": input_digests(args, text),
        "mode": "exact",
        "seed": None,
        "certificates": [
            {
                "name": c.name,
                "status": c.status,
                "witness": c.witness,
                "timing_ms": None,
            }
            for c in sorted(report.certificates, key=lambda c: c.name)
        ],
        "outputs": [str(p) for p in outputs],
        "extra": {k: str(v) for k, v in sorted(extra.items())},
        "elapsed_ms": elapsed_ms,
    }
    return pencilio.canonical_json(payload)


def input_digests(args, text: str | None) -> list[dict]:
    """The input's path and the sha256 of ``text``, the input as it was read
    and certified; none for a command without input."""
    if text is None:
        return []
    return [{"path": str(args.input), "sha256": pencilio.sha256_digest(text)}]


def write_artifact(out: Path, name: str, text: str) -> str:
    """Write one file under the --out directory; returns its path."""
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_input(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def dispatch(args, text: str | None):
    handler = {
        ("frobenius", "check"): cmd_frobenius_check,
        ("frobenius", "pencil"): cmd_frobenius_pencil,
        ("pencil", "check"): cmd_pencil_check,
        ("pencil", "reconstruct"): cmd_pencil_reconstruct,
        ("coxeter", None): cmd_coxeter,
        ("bracket", "emit"): cmd_bracket_emit,
        ("bracket", "compat"): cmd_bracket_compat,
        ("bracket", "virasoro"): cmd_bracket_virasoro,
        ("bracket", "recurse"): cmd_bracket_recurse,
        ("bracket", "central-charge"): cmd_bracket_central_charge,
    }[(args.command, getattr(args, "subcommand", None))]
    return handler(args, text)


def frobenius_report(m) -> tuple[Report, dict]:
    report = Report()
    report.add(m.wdvv)
    extra = {}
    try:
        a_mat, b_vec, c_val = m.scaling
        report.add(Certificate("potential-scaling", reports.PASS))
        extra["scaling-quadratic-A"] = [[str(x) for x in row] for row in a_mat]
        extra["scaling-linear-B"] = [str(x) for x in b_vec]
        extra["scaling-constant-C"] = str(c_val)
    except InternalCheckError:
        raise
    except FlatPencilError as exc:
        report.add(Certificate("potential-scaling", reports.FAIL, witness=str(exc)))
    report.add(unity_scaling_certificate(m))
    if report.passed:
        # The unity axiom c(e, ., .) = eta; a violation raises UnityViolationError.
        m.unity_axiom
    return report, extra


def cmd_frobenius_check(args, text):
    m = pencilio.load_frobenius(text)
    report, extra = frobenius_report(m)
    return report, extra, []


def cmd_frobenius_pencil(args, text):
    m = pencilio.load_frobenius(text)
    report, extra = frobenius_report(m)
    outputs = []
    if report.passed:
        pencil = to_flat_pencil(m)
        report.extend(check_flat_pencil(pencil).certificates)
        report.extend(check_quasihomogeneous(pencil).certificates)
        extra["degree-d"] = pencil.degree
        # both unity conventions: the coordinate index of e and the scaling
        # potential tau it pairs into
        extra["unity-index"] = m.unity + 1
        extra["tau"] = pencil.tau
        if args.out is not None:
            outputs.append(write_artifact(args.out, args.input.stem + "-pencil.json", pencilio.dump_pencil(pencil)))
    return report, extra, outputs


def cmd_pencil_check(args, text):
    pencil, _gens = pencilio.load_pencil(text)
    report = check_flat_pencil(pencil)
    extra = {}
    if pencil.tau is not None:
        report.extend(check_quasihomogeneous(pencil).certificates)
        extra["degree-d"] = pencil.degree
    return report, extra, []


def cmd_pencil_reconstruct(args, text):
    pencil, _gens = pencilio.load_pencil(text)
    for cert in check_flat_pencil(pencil).certificates:
        if cert.status == reports.FAIL:
            raise InputFormatError(f"input is not a flat pencil: {cert.name}: {cert.witness}")
    if pencil.tau is None:
        raise InputFormatError("pencil file has no tau; the inverse construction needs the scaling potential")
    result = reconstruct_frobenius(pencil)
    extra = {
        "mode": result.mode,
        "degree-d": result.frobenius.d,
        "unity-index": result.frobenius.unity + 1,
    }
    outputs = []
    if args.out is not None:
        outputs.append(
            write_artifact(args.out, args.input.stem + "-frobenius.json", pencilio.dump_frobenius(result.frobenius))
        )
    return result.report, extra, outputs


def cmd_coxeter(args, _text):
    if args.group_type != "A":
        print(f"error: unsupported Coxeter type {args.group_type!r} (only A)", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    bundle, recon = coxeter_pencil(args.rank)
    extra = {
        "degree-d": bundle.pencil.d,
        "coxeter-number": bundle.chart.h,
        "unity-scale": bundle.unity_scale,
        "mode": recon.mode,
    }
    outputs = []
    if args.out is not None:
        stem = f"a{args.rank}"
        outputs.append(write_artifact(args.out, f"{stem}-pencil.json", pencilio.dump_pencil(bundle.pencil)))
        outputs.append(write_artifact(args.out, f"{stem}-frobenius.json", pencilio.dump_frobenius(recon.frobenius)))
    return bundle.report, extra, outputs


def cmd_bracket_emit(args, text):
    pencil, gens = pencilio.load_pencil(text)
    report = Report()
    extra = {}
    outputs = []
    brackets = {}
    # The connection of g1 is read through the pencil, which tries its
    # flat-coordinate candidate before the adjugate kernel.
    pencil.g1_connection
    for tag, metric in (("bracket1", pencil.g1), ("bracket2", pencil.g2)):
        conn = bracket_from_metric(metric)
        report.add(Certificate(f"{tag}-flatness", reports.PASS))
        # Both coefficients are functions of the n fields alone (the parser
        # reads every entry in n variables) and the delta coefficient is
        # linear in xdot by the form of the bracket: degree one holds.
        report.add(Certificate(f"{tag}-degree-one", reports.PASS))
        brackets[tag] = {
            "metric": [[str(x) for x in row] for row in metric.g],
            "connection": [[[str(x) for x in row] for row in k] for k in conn.gamma],
        }
    if args.out is not None:
        payload = {
            "schema": pencilio.SCHEMA,
            "n": pencil.n,
            "expgens": [[a + 1, str(r)] for a, r in gens],
            **brackets,
        }
        outputs.append(write_artifact(args.out, args.input.stem + "-brackets.json", pencilio.canonical_json(payload)))
    return report, extra, outputs


def cmd_bracket_compat(args, text):
    pencil, _gens = pencilio.load_pencil(text)
    # Each bracket needs a flat metric; compatibility of the two brackets is
    # the flat-pencil certificate of their metrics (the lam-combination of
    # the brackets has coefficients g1 - lam g2 and G1 - lam G2).  g1's
    # connection is read through the pencil, as in cmd_bracket_emit.
    pencil.g1_connection
    bracket_from_metric(pencil.g1)
    bracket_from_metric(pencil.g2)
    return check_flat_pencil(pencil), {}, []


def cmd_bracket_virasoro(args, text):
    m = pencilio.load_frobenius(text)
    pencil = to_flat_pencil(m)
    report = virasoro_check(m, pencil)
    return report, {"degree-d": m.d}, []


def cmd_bracket_recurse(args, text):
    pencil, _gens = pencilio.load_pencil(text)
    report = Report()
    densities = {}
    for alpha in range(pencil.n):
        h = Density(QPoly.var(pencil.n, alpha))
        densities[f"{alpha + 1},0"] = h.h
        for step in range(1, args.steps + 1):
            h = recursion_step(pencil, h)
            densities[f"{alpha + 1},{step}"] = h.h
    report.add(Certificate("recursion-integrable", reports.PASS))
    outputs = []
    if args.out is not None:
        # Only the artifact reads the densities, so they are printed here.
        printed = {key: str(h) for key, h in densities.items()}
        payload = {"schema": pencilio.SCHEMA, "n": pencil.n, "densities": printed}
        outputs.append(write_artifact(args.out, args.input.stem + "-densities.json", pencilio.canonical_json(payload)))
    return report, {"steps": args.steps}, outputs


def cmd_bracket_central_charge(args, text):
    m = pencilio.load_frobenius(text)
    if args.coxeter_rank is not None and args.coxeter_rank != m.n:
        rule = f"--coxeter-rank must equal the dimension n = {m.n} (A_K has a K-dimensional orbit space)"
        print(f"error: {rule}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    result = central_charge(m, coxeter_rank=args.coxeter_rank)
    report = Report()
    extra = {"central-charge": result.c_formula}
    if result.c_lie is None:
        report.add(reports.skipped("central-charge-match", "no Coxeter tag supplied"))
    else:
        extra["central-charge-lie"] = result.c_lie
        equal = result.c_formula == result.c_lie
        report.add(reports.verdict("central-charge-match", equal, f"{result.c_formula} != {result.c_lie}"))
    return report, extra, []


if __name__ == "__main__":
    sys.exit(main())
