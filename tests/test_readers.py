"""The two one-pass readers against the parsers they stand in front of.

`cli.plain_args` reads a plain command line; on every drawn argv it
accepts, its namespace must equal the one argparse gives, and it must
accept none that argparse refuses.  The argv grammar mixes plain lines
with abbreviations, `--opt=value` forms, repeated options, help flags,
`--`, negative, out-of-range, zero-padded and non-ASCII numbers, and
empty and dash-led paths.

`exprparse._read_sum` reads the printed sum-of-monomials form; whatever
it accepts must be what the recursive-descent parser gives, and it must
accept nothing that parser refuses.  `parse_expr` must give the same
value or the same `ParseError` (message, line and column) as that parser
alone.  The texts are printed random quasi-polynomials, with exp factors
and coefficients of up to 100 digits, and the same texts with one edit
each, drawn from the near misses the reader must hand on.
"""

import contextlib
import io
from fractions import Fraction as Q

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from flatpencil import cli, exprparse  # noqa: E402
from flatpencil.errors import ParseError  # noqa: E402
from flatpencil.exprparse import MAX_POWER_DEGREE, MAX_TOKEN_LENGTH, parse_expr  # noqa: E402
from flatpencil.qpoly import EXP_RATE_LIMIT, QPoly  # noqa: E402

# -- command lines ------------------------------------------------------------

GROUP_WORDS = [*cli.GROUPS, "brack", "bogus", ""]
SUB_WORDS = [sub for _text, subs in cli.GROUPS.values() for sub in subs] + ["rec", "central", "bogus"]
OPTION_WORDS = sorted({flag for options in cli.OPTIONS.values() for flag in options}) + [
    "--step", "--ou", "--time", "-h", "--help", "--", "--out=o", "--steps=2", "--rank=3", "-x",
]
# Values and paths of a well-formed line, then their near misses.
VALUES = ["1", "3", "8", "04", "٣", " 2", "1_0", "A", "out"]
PATHS = ["in.json", "", "a b", "out"]
VALUE_WORDS = VALUES + ["9", "0", "-1", "3.0", "", "x", "B", "-", "-in"]
PATH_WORDS = PATHS + ["-in.json", "-"]


@st.composite
def command_lines(draw):
    """A line of a known command with its input and any of its options, in
    any order, each with a drawn value: mostly plain."""
    group = draw(st.sampled_from(sorted(cli.GROUPS)))
    argv, command, items = [group], group, []
    if group != "coxeter":
        command = draw(st.sampled_from(cli.GROUPS[group][1]))
        argv.append(command)
        items.append([draw(st.sampled_from(PATHS))])
    for flag, keywords in cli.OPTIONS.get(command, cli.COMMON).items():
        if keywords.get("required") or draw(st.booleans()):
            items.append([flag] if "action" in keywords else [flag, draw(st.sampled_from(VALUES))])
    return argv + [token for item in draw(st.permutations(items)) for token in item]


@st.composite
def word_lines(draw):
    """Words of the argv grammar in any order: mostly not plain."""
    argv = [draw(st.sampled_from(GROUP_WORDS))]
    if argv[0] != "coxeter" and draw(st.integers(0, 3)):
        argv.append(draw(st.sampled_from(SUB_WORDS)))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            argv.append(draw(st.sampled_from(PATH_WORDS)))
        elif kind == 1:
            argv.append(draw(st.sampled_from(OPTION_WORDS)))
        else:
            argv += [draw(st.sampled_from(OPTION_WORDS)), draw(st.sampled_from(VALUE_WORDS))]
    return argv


@given(argv=command_lines() | word_lines())
@example(argv=["coxeter", "--type", "A", "--rank", "4"])
@example(argv=["coxeter", "--rank", "٣", "--timings", "--out", "out"])
@example(argv=["coxeter", "--rank", "9"])
@example(argv=["coxeter", "--rank", "04"])
@example(argv=["coxeter", "--ra", "4"])
@example(argv=["coxeter", "--rank=4"])
@example(argv=["bracket", "recurse", "in.json", "--steps", "10"])
@example(argv=["bracket", "recurse", "--steps", "-1", "in.json"])
@example(argv=["bracket", "recurse", "in.json", "--steps", "2", "--steps", "3"])
@example(argv=["bracket", "central-charge", "--coxeter-rank", "3", "in.json", "--timings"])
@example(argv=["pencil", "check", "", "--out", ""])
@example(argv=["pencil", "check", "-in.json"])
@example(argv=["pencil", "check", "--", "in.json"])
@example(argv=["frobenius", "pencil", "in.json", "-h"])
def test_plain_args_agree_with_argparse(argv):
    plain = cli.plain_args(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed = cli.build_parser().parse_args(argv)
    except SystemExit:
        assert plain is None
        return
    if plain is not None:
        assert vars(plain) == vars(parsed)


# -- printed sums -------------------------------------------------------------

RATES = [Q(1), Q(-1), Q(2), Q(-3, 2), Q(1, 7), EXP_RATE_LIMIT, -EXP_RATE_LIMIT, Q(10**9 - 1, 2)]
BIG = 10**100


@st.composite
def printed_polys(draw):
    """A QPoly in 1-3 variables, printed, and its variable count."""
    nvars = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        pows = tuple(draw(st.lists(st.integers(0, 5), min_size=nvars, max_size=nvars)))
        axes = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars))
        efac = tuple((axis, draw(st.sampled_from(RATES))) for axis in sorted(axes))
        num = draw(st.integers(-BIG, BIG) | st.integers(-5, 5))
        den = draw(st.integers(1, BIG) | st.integers(1, 7))
        terms[(pows, efac)] = terms.get((pows, efac), Q(0)) + Q(num, den)
    return str(QPoly(nvars, terms)), nvars


def edits(nvars):
    return st.sampled_from([
        "²", "٣", "1" * (MAX_TOKEN_LENGTH + 1), "t0", f"t{nvars + 1}", f"^{MAX_POWER_DEGREE}",
        f"^{MAX_POWER_DEGREE + 1}", "^2^3", "+", " ", "2 ", "2*3*", "*", "-", "/0", "0*", "(", ")",
        "exp(0*t1)*", "exp(t1)*", "exp(1000000000*t1)*", "exp(-1000000001*t1)*", "exp(-t1)", " + t1",
        " - t1", " + 0*t1", "*t1^64", "t1^" + "9" * 40,
    ])


@st.composite
def edited_polys(draw):
    """A printed QPoly with one edit: a near miss inserted, or a span cut."""
    text, nvars = draw(printed_polys())
    start = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:start] + draw(edits(nvars)) + text[start:], nvars
    return text[:start] + text[draw(st.integers(start, len(text))):], nvars


def descent(text, nvars):
    """The value of the recursive-descent parser alone, or its ParseError."""
    try:
        parser = exprparse._Parser(text, nvars)
        return parser.parse(parser.expr)
    except ParseError as exc:
        return exc


def outcome(text, nvars):
    try:
        return parse_expr(text, nvars)
    except ParseError as exc:
        return exc


def check_reader(text, nvars):
    expected = descent(text, nvars)
    read = exprparse._read_sum(text, nvars)
    got = outcome(text, nvars)
    if isinstance(expected, ParseError):
        assert read is None
        assert isinstance(got, ParseError)
        assert (str(got), got.line, got.col) == (str(expected), expected.line, expected.col)
    else:
        assert read is None or (read == expected and str(read) == str(expected))
        assert got == expected


@given(case=printed_polys())
def test_reader_reads_every_printed_sum(case):
    text, nvars = case
    check_reader(text, nvars)
    assert exprparse._read_sum(text, nvars) is not None


@given(case=edited_polys())
@example(case=("t1^²", 1))
@example(case=("٣*t1", 1))
@example(case=("1" * 1001 + "*t1", 1))
@example(case=("7" * 1000 + "*t1", 1))
@example(case=("t" + "1" * 5000, 1))
@example(case=("t0 + 1", 2))
@example(case=("t3", 2))
@example(case=("t01", 2))
@example(case=("t1^64", 1))
@example(case=("t1^65", 1))
@example(case=("0*t1^65", 1))
@example(case=("t1^2^3", 1))
@example(case=("+t1", 1))
@example(case=("2 t1", 1))
@example(case=("2*3*t1", 1))
@example(case=("exp(0*t1)", 1))
@example(case=("exp(0*t3)", 2))
@example(case=("exp(t1)*exp(-1*t1)", 1))
@example(case=("exp(1000000000*t1)", 1))
@example(case=("exp(-1000000000*t1)", 1))
@example(case=("exp(1000000001*t1)", 1))
@example(case=("exp(1000000000*t1)*exp(t1)", 1))
@example(case=("exp(1/0*t1)", 1))
@example(case=("1/0*t1", 1))
@example(case=("t1 + t1 - 3*t1 + 1/2*t2*t1 + 1/2*t1*t2", 2))
@example(case=("0*t1 + 0", 1))
@example(case=("t1 - t1", 1))
@example(case=("2/4*t1 + 3/6", 1))
@example(case=("t1^64*" * 512 + "t1^64", 1))
@example(case=("", 1))
@example(case=(" ", 1))
def test_reader_agrees_with_recursive_descent(case):
    check_reader(*case)
