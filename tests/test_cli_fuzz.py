"""Property test of the CLI boundary: whatever the polynomial text, target
document or dimension, ``main`` returns a documented exit code, ends
stderr with one message line and never lets a traceback out."""

import argparse
import contextlib
import functools
import io
import itertools
import json
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from utimage import cli, errors

# "--" as an '=' value reads as a missing value.
FIELDS = ["gf:2", "gf:3", "gf:5", "gf:7", "rational", "gf:4", "gf:0", "gf:", "q", "--"]
FIELD = st.one_of(st.sampled_from(FIELDS[:5]), st.sampled_from(FIELDS))

# Well-formed polynomials of degree 1..4 with small signed coefficients,
# so that generated inputs also reach the solver and the oracle.
MONOMIALS = [
    "*".join(f"x{v}" for v in perm)
    for m in range(1, 5)
    for perm in itertools.permutations(range(1, m + 1))
]


@st.composite
def well_formed_poly(draw):
    m = draw(st.integers(1, 4))
    monomials = [mono for mono in MONOMIALS if mono.count("x") == m]
    terms = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4))
    pieces = []
    for mono in terms:
        coeff = draw(st.sampled_from(["", "", "", "2*", "3*", "1/2*", "0*"]))
        sign = draw(st.sampled_from(["+", "-"]))
        pieces.append(f"{sign} {coeff}{mono}")
    return " ".join(pieces)


POLY = st.one_of(
    well_formed_poly(),
    st.text(alphabet="x0123456789*+-/ ", max_size=40),
    st.text(max_size=30),
)

JSON_VALUE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=10),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

SCALAR_JSON = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["1/2", "-2/3", "3/0", "", "x", "99999999999"]),
    JSON_VALUE,
)


@st.composite
def target_document(draw, n, field):
    """Matrix documents of dimension ``n`` over ``field`` with small
    entries, the same with fuzzed fields and entries, or any JSON value."""
    size = max(n, 1)
    valid = st.fixed_dictionaries(
        {
            "n": st.just(n),
            "field": st.just(field),
            "entries": st.lists(
                st.builds(
                    lambda row, gap, value: {
                        "row": row, "col": row + gap, "value": str(value)
                    },
                    st.integers(1, size),
                    st.integers(1, size),
                    st.integers(0, 1),
                ),
                max_size=6,
                unique_by=lambda entry: (entry["row"], entry["col"]),
            ),
        }
    )
    entry = st.fixed_dictionaries(
        {
            "row": st.one_of(st.integers(-1, 13), JSON_VALUE),
            "col": st.one_of(st.integers(-1, 13), JSON_VALUE),
            "value": SCALAR_JSON,
        }
    )
    shaped = st.fixed_dictionaries(
        {
            "n": st.one_of(st.just(n), JSON_VALUE),
            "field": st.one_of(FIELD, JSON_VALUE),
            "entries": st.one_of(st.lists(entry, max_size=5), JSON_VALUE),
        }
    )
    return draw(st.one_of(valid, shaped, JSON_VALUE))


LARGE_N = st.one_of(
    st.integers(-1, 6),
    st.sampled_from([121, 300, 10**6, 10**2200]),
    st.integers(-(10**6), 10**6),
    st.just("--"),
)

FUZZ = settings(
    max_examples=120,
    deadline=5000,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_documented(code, err):
    assert code in {0, 1, 2, 4}, err
    assert "Traceback" not in err
    if code in (1, 2):
        lines = err.splitlines()
        messages = [
            line
            for line in lines
            if line.startswith("error:") or line.startswith("not in image:")
        ]
        assert lines and messages == [lines[-1]], err


@FUZZ
@given(poly=POLY, n=LARGE_N, field=FIELD, as_json=st.booleans())
@example(poly="x1", n="--", field="rational", as_json=False)
def test_image_any_input(poly, n, field, as_json):
    argv = ["image", f"--poly={poly}", f"--n={n}", f"--field={field}"]
    code, _out, err = run(argv + (["--json"] if as_json else []))
    assert_documented(code, err)


@FUZZ
@given(poly=POLY, n=LARGE_N, field=FIELD, reduce=st.booleans())
@example(poly="x1", n=3, field="--", reduce=False)
def test_verify_any_input(poly, n, field, reduce):
    argv = ["verify", f"--poly={poly}", f"--n={n}", f"--field={field}", "--cap=5000"]
    code, out, err = run(argv + (["--reduce"] if reduce else []))
    assert_documented(code, err)
    if code in (0, 4):
        assert json.loads(out)["matches"] is (code == 0)


@FUZZ
@given(
    data=st.data(),
    poly=st.one_of(well_formed_poly(), POLY),
    n=st.integers(-2, 12),
    field=FIELD,
)
def test_solve_any_input(tmp_path_factory, data, poly, n, field):
    doc = data.draw(target_document(n, field))
    target = tmp_path_factory.mktemp("fuzz") / "target.json"
    target.write_text(json.dumps(doc))
    argv = [
        "solve",
        f"--poly={poly}",
        f"--n={n}",
        f"--field={field}",
        f"--target={target}",
    ]
    code, out, err = run(argv)
    assert_documented(code, err)
    if code == 0:
        assert json.loads(out)["verified"] is True


# The reference model of the command line: argparse, built from
# cli.COMMANDS, behind a rewrite of "--poly -x1*x2" as "--poly=-x1*x2"
# (argparse would read a value starting with '-' as an option), and with
# "--name=--" (for which argparse stores []) read as a missing value.
class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise errors.ParseError(f"{self.prog}: {message}")


def _reference_int(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid integer value ({len(text)} characters)"
        ) from None


@functools.cache
def reference_parsers():
    parser = _ReferenceParser(prog="utimage", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, options) in cli.COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for dest, keywords in options.items():
            if "flag" in keywords:
                command_parser.add_argument(f"--{dest}", action="store_true")
            else:
                command_parser.add_argument(
                    f"--{dest}",
                    required="required" in keywords,
                    default=keywords.get("default"),
                    type=_reference_int if "int" in keywords else None,
                )
        command_parser.set_defaults(func=func)
    return parser, sub.choices


def reference_read(argv):
    """vars() of the reference model's namespace for ``argv``; raises
    ParseError, or SystemExit for help."""
    joined = []
    for arg in argv:
        if joined and joined[-1] == "--poly" and re.match(r"-[0-9x]", arg):
            joined[-1] = f"--poly={arg}"
        else:
            joined.append(arg)
    parser, commands = reference_parsers()
    if joined and joined[0] in commands:
        command = joined[0]
        args = commands[command].parse_args(joined[1:])
    else:
        args = parser.parse_args(joined)
        command = args.command
    for name, value in vars(args).items():
        if isinstance(value, list):
            raise errors.ParseError(f"utimage {command}: argument --{name}: expected one argument")
    return vars(args)


# Tokens for the parser: every command, every option bare and joined to a
# value by '=', help, and values argparse reads, refuses or mistakes for
# options.
OPTIONS = sorted({f"--{dest}" for _h, _f, options in cli.COMMANDS.values() for dest in options})
VALUES = ["", "5", " 7", "-3", "-x1*x2", "abc", "--", "1" * 5000, "a=b", "-", "-2/3*x1*x2", "- x1"]
TOKEN = st.one_of(
    st.sampled_from(list(cli.COMMANDS) + OPTIONS + ["-h", "--help"] + VALUES),
    st.builds("{}={}".format, st.sampled_from(OPTIONS), st.sampled_from(VALUES)),
)


@st.composite
def argv_tokens(draw):
    """A command, or any token, then most often each of that command's
    required options and sometimes each other one, with a value in either
    form, and sometimes other tokens, in any order, or '-- x' at the end."""
    command = draw(st.one_of(st.sampled_from(list(cli.COMMANDS)), TOKEN))
    _help, _func, options = cli.COMMANDS.get(command, ("", None, {}))
    pieces = []
    for dest, keywords in options.items():
        if not draw(st.sampled_from([True] * 7 + [False] if "required" in keywords else [False, True])):
            continue
        # An int half the time, so that many argvs are well-formed.
        value = draw(st.one_of(st.sampled_from(VALUES[1:3]), st.sampled_from(VALUES)))
        forms = [[f"--{dest}", value], [f"--{dest}={value}"]]
        if "flag" in keywords:
            forms = [[f"--{dest}"]] * 2 + forms
        pieces.append(draw(st.sampled_from(forms)))
    if draw(st.sampled_from([False, False, True])):
        pieces.append(draw(st.lists(TOKEN, min_size=1, max_size=2)))
    argv = [command] + [token for piece in draw(st.permutations(pieces)) for token in piece]
    return argv + (["--", "x"] if draw(st.sampled_from([False] * 5 + [True])) else [])


IMAGE = ["image", "--poly", "x1", "--n", "5"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=argv_tokens())
@example(argv=IMAGE + ["--field", "-x1*x2"])  # an option, so no value
@example(argv=IMAGE + ["--field", "--"])
@example(argv=IMAGE + ["--field=--"])  # argparse drops the '--' and stores []
@example(argv=IMAGE + ["--json=5"])  # a flag takes no value
@example(argv=IMAGE + ["-h"])
@example(argv=IMAGE[:3])  # --n is required
@example(argv=IMAGE + ["--", "--poly", "-x1"])  # reported as --poly=-x1
@example(argv=["--poly", "-3", "image"])  # one unknown top-level option
@example(argv=["--", "image"])  # '--' is no command
@example(argv=["-hh"])  # -h twice
@example(argv=IMAGE + ["-h=hx"])
@example(argv=["--help="])
def test_reader_agrees_with_argparse(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = reference_read(argv)
    except errors.ParseError as exc:
        with pytest.raises(errors.ParseError) as raised:
            cli.read_argv(argv)
        assert str(raised.value) == str(exc)
    except SystemExit as exc:
        assert exc.code == 0
        code, out, err = run(argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: utimage")
    else:
        assert vars(cli.read_argv(argv)) == expected
