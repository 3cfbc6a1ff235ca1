"""Command-line front end.

Commands: solve (construct a preimage witness for a target matrix), image
(classify the image), verify (brute-force check over a prime field), and
selftest (seeded round trips plus the fixed grid).

Exit codes are a stable contract: 0 success, 1 usage or I/O or parse
problems (including work-cap overruns), 2 target not in the image, 3
internal invariant failure (a bug, please report), 4 verification
mismatch or self-test failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import errors, selfcheck
from .fields import FieldSpec, value_text
from .freealg import parse_poly
from .solver import image_description, preimage
from .triangular import StrictUT


class _Parser(argparse.ArgumentParser):
    """Turns argparse usage errors into exit code 1.

    argparse exits 2 on a bad command line, but 2 means "not in image"
    here, so a usage error is raised as a ParseError for ``main`` instead.
    """

    def error(self, message):
        raise errors.ParseError(f"{self.prog}: {message}")


def _int_value(text: str) -> int:
    """argparse type for the int options.

    argparse would echo a rejected value whole, so an unreadable one is
    reported by its length; argparse prefixes the option's name.
    """
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid integer value ({len(text)} characters)"
        ) from None


def check_theorem(f, n, q, cap=None, reduce_bands=False):
    """``oracle.check_theorem``, importing the oracle on the first call so
    that only ``verify`` loads it; a cap of None is the oracle's default."""
    from . import oracle

    cap = oracle.DEFAULT_CAP if cap is None else cap
    return oracle.check_theorem(f, n, q, cap=cap, reduce_bands=reduce_bands)


def cmd_solve(args) -> int:
    spec = FieldSpec.from_text(args.field)
    poly = parse_poly(args.poly, spec)
    with open(args.target, "rb", buffering=0) as handle:  # cheaper than text
        data = handle.readall()
    try:
        doc = json.loads(data.decode())
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, bad UTF-8, an over-long integer, deep nesting
        raise errors.ParseError(f"{args.target}: {exc}") from exc
    target = StrictUT.from_json_dict(doc)
    trace: dict | None = {} if args.debug else None
    witness = preimage(poly, args.n, target, trace=trace)
    text = selfcheck.witness_json(args.poly, args.n, spec, target, witness)
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(text.encode())
    else:
        sys.stdout.write(text)
    if args.debug and trace is not None:
        dump = {}
        if "cells" in trace:
            cells = trace["cells"]
            dump["assignment"] = [
                {"k": slot, "l": var, "value": str(cells[var][slot])}
                for slot in range(2, args.n)
                for var in range(2, len(cells))
            ]
            # Row k of a system holds the coefficients of unknowns k..k+m-1.
            dump["systems"] = [
                {"diagonal": i, "rows": [[value_text(v) for v in row] for row in rows],
                 "rhs": [value_text(v) for v in rhs]}
                for i, rows, rhs in trace["systems"]
            ]
        print(json.dumps(dump, sort_keys=True), file=sys.stderr)
    return 0


def cmd_image(args) -> int:
    spec = FieldSpec.from_text(args.field)
    poly = parse_poly(args.poly, spec)
    described = image_description(poly, args.n)
    line = described.describe()  # refuses a dimension too long to write
    if args.json:
        doc = {"class": described.kind}
        if not described.is_zero:
            doc["level"] = described.level
            doc["dimension"] = described.dimension
        line = json.dumps(doc, sort_keys=True)
    print(line)
    return 0


def cmd_verify(args) -> int:
    spec = FieldSpec.from_text(args.field)
    if spec.p is None:
        print("error: verify needs a prime field like gf:2", file=sys.stderr)
        return 1
    poly = parse_poly(args.poly, spec)
    report = check_theorem(
        poly, args.n, spec.p, cap=args.cap, reduce_bands=args.reduce
    )
    text = selfcheck.canonical_json(report.json_dict(args.poly, args.n, spec.p))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.matches else 4


def cmd_selftest(args) -> int:
    from . import sampling

    if args.trials < 0:
        raise errors.ParseError(f"--trials must be at least 0, got {args.trials}")
    if args.field:
        # Refuse a bad --field before the grid runs; the trials still get
        # the text as given, which seeds them.
        FieldSpec.from_text(args.field)
    failures = []
    fields = [args.field] if args.field else sampling.TRIAL_FIELDS
    if args.trials * len(fields) > sampling.ROUND_TRIP_CAP:
        raise errors.CapExceeded(
            f"{args.trials} trials on {len(fields)} field(s) exceed the cap "
            f"{sampling.ROUND_TRIP_CAP} round trips"
        )

    grid_rows = sampling.run_grid()
    grid_rows += sampling.run_grid(grid=sampling.IDENTITY_GRID)
    for poly_text, n, q, report in grid_rows:
        status = "pass" if report.matches else "FAIL"
        print(
            f"grid {status}: {poly_text} n={n} q={q} image={report.image_size} "
            f"expected={report.expected_size} ({report.evaluations} evaluations)"
        )
        if not report.matches:
            failures.append(f"grid poly={poly_text!r} n={n} q={q}")

    for field_text in fields:
        passed, failed = sampling.run_round_trips(args.seed, field_text, args.trials)
        print(f"round-trip {field_text}: {passed}/{args.trials} pass")
        for _index, reproduction in failed:
            line = f"seed={args.seed} {reproduction}"
            print(f"  FAIL {line}")
            failures.append(line)

    if failures:
        print(f"selftest: {len(failures)} failure(s)")
        return 4
    print("selftest: all checks passed")
    return 0


# Each command's help, function and options, declared once: ``build_parser``
# hands every option's keywords to ``add_argument`` as they are, and
# ``read_argv`` models exactly these keywords: required, type, default,
# action="store_true" and help.
COMMANDS = {
    "solve": ("construct a witness for a target matrix", cmd_solve, {
        "poly": {"required": True, "help": "polynomial text, e.g. 'x1*x2-x2*x1'"},
        "n": {"type": _int_value, "required": True, "help": "matrix dimension"},
        "field": {"required": True, "help": "'rational' or 'gf:<p>'"},
        "target": {"required": True, "help": "path to the target matrix JSON"},
        "out": {"help": "path for the witness JSON (default stdout)"},
        "debug": {"action": "store_true", "help": "dump the chosen 0/1 cells and band systems to stderr"},
    }),
    "image": ("classify the image", cmd_image, {
        "poly": {"required": True},
        "n": {"type": _int_value, "required": True},
        "field": {"default": "rational"},
        "json": {"action": "store_true"},
    }),
    "verify": ("brute-force check over a prime field", cmd_verify, {
        "poly": {"required": True},
        "n": {"type": _int_value, "required": True},
        "field": {"required": True, "help": "prime field, e.g. gf:2"},
        "cap": {"type": _int_value, "help": "max tail tuples X_2..X_m to scan, counted as q^(max(m-1,1)*c) for c scanned entries per matrix"},
        "reduce": {"action": "store_true", "help": "scan only entries that can occur in a degree-m product"},
        "out": {"help": "path for the report JSON (default stdout)"},
    }),
    "selftest": ("fixed grid plus seeded round trips", cmd_selftest, {
        "trials": {"type": _int_value, "default": 100},
        "seed": {"type": _int_value, "default": 0},
        "field": {"help": "restrict trials to one field"},
    }),
}


def read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the command's parser would return for a well-formed
    ``argv``, or None for anything else.

    Well-formed is a known command followed only by that command's
    ``--name value`` or ``--name=value`` options, each flag bare, and
    every required option given.  Help, a value that starts with '-'
    or that the option's type refuses, and every other token make
    ``main`` hand the argv to argparse, so its messages and exit codes
    stay its own.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _help, func, options = COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, joined, value = token.partition("=")
        dest = name[2:]
        keywords = options.get(dest) if name.startswith("--") else None
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            if joined:
                return None
            value = True
        else:
            if not joined:
                value = next(tokens, "-")  # a missing value reads as "-"
                if value.startswith("-"):
                    return None
            elif value == "--":  # argparse drops it and stores []
                return None
            if "type" in keywords:
                try:
                    value = keywords["type"](value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
        given[dest] = value
    args = argparse.Namespace(func=func)
    for dest, keywords in options.items():
        if dest in given:
            setattr(args, dest, given[dest])
        elif keywords.get("required"):
            return None
        else:
            flag = keywords.get("action") == "store_true"
            setattr(args, dest, keywords.get("default", False if flag else None))
    return args


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built from ``COMMANDS`` on first use and
    shared by every ``main`` call in the process: parsing leaves it
    unchanged.  ``main`` needs it only for help and usage errors."""
    # No parser takes abbreviations, so _join_poly_values sees every --poly.
    parser = _Parser(
        prog="utimage",
        allow_abbrev=False,
        description=(
            "Images and preimage witnesses of multilinear polynomials on "
            "strictly upper triangular matrices, in exact arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, options) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for dest, keywords in options.items():
            command_parser.add_argument(f"--{dest}", **keywords)
        command_parser.set_defaults(func=func)
    parser.commands = sub.choices  # name -> subcommand parser, for main
    return parser


# No option starts like a number or a variable, so a token that does is
# the value of a preceding --poly, such as -x1*x2 or -2/3*x1*x2.
_POLY_VALUE = re.compile(r"-[0-9x]")


def _join_poly_values(argv: list[str]) -> list[str]:
    """Rewrite ``--poly TEXT`` as ``--poly=TEXT`` when TEXT starts with '-',
    which argparse would otherwise read as an option."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] == "--poly" and _POLY_VALUE.match(arg):
            joined[-1] = f"--poly={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    try:
        argv = _join_poly_values(sys.argv[1:] if argv is None else list(argv))
        args = read_argv(argv)
        if args is None:  # not well-formed: argparse reads it or reports why
            parser = build_parser()
            if argv and argv[0] in parser.commands:  # skip the top-level pass
                command = argv[0]
                args = parser.commands[command].parse_args(argv[1:])
            else:  # no or an unknown command, or a top-level -h
                args = parser.parse_args(argv)
                command = args.command
            for name, value in vars(args).items():
                if isinstance(value, list):  # argparse stores [] for '--name=--'
                    raise errors.ParseError(
                        f"utimage {command}: argument --{name}: expected one argument"
                    )
        return args.func(args)
    except errors.TargetNotInImage as exc:
        print(f"not in image: {exc}", file=sys.stderr)
        return 2
    except errors.InternalInvariantViolation as exc:
        print(f"internal error (bug): {exc}", file=sys.stderr)
        return 3
    except errors.Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
