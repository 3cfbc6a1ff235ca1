"""Command-line front end.

Commands: solve (construct a preimage witness for a target matrix), image
(classify the image), verify (brute-force check over a prime field), and
selftest (seeded round trips plus the fixed grid).

Exit codes are a stable contract: 0 success, 1 usage or I/O or parse
problems (including work-cap overruns), 2 target not in the image, 3
internal invariant failure (a bug, please report), 4 verification
mismatch or self-test failure.
"""

import json
import re
import sys
from types import SimpleNamespace

from . import errors, selfcheck
from .fields import FieldSpec, value_text
from .freealg import parse_poly


def check_theorem(f, n, q, cap=None, reduce_bands=False):
    """``oracle.check_theorem``, importing the oracle on the first call so
    that only ``verify`` loads it; a cap of None is the oracle's default."""
    from . import oracle

    cap = oracle.DEFAULT_CAP if cap is None else cap
    return oracle.check_theorem(f, n, q, cap=cap, reduce_bands=reduce_bands)


def preimage(f, n, target, trace=None):
    """``solver.preimage``.  This and ``image_description`` import the
    solver on the first call, so that ``verify`` never loads it."""
    from . import solver

    return solver.preimage(f, n, target, trace=trace)


def image_description(f, n):
    from . import solver

    return solver.image_description(f, n)


def cmd_solve(args) -> int:
    from .triangular import StrictUT

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
        raise errors.ParseError("verify needs a prime field like gf:2")
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


# Each command's help, function and options, declared once, for read_argv
# and _write_help.  An option not given is an error when required, else its
# default or None; a flag not given is False; "int" values are converted.
COMMANDS = {
    "solve": ("construct a witness for a target matrix", cmd_solve, {
        "poly": {"required": True, "help": "polynomial text, e.g. 'x1*x2-x2*x1'"},
        "n": {"int": True, "required": True, "help": "matrix dimension"},
        "field": {"required": True, "help": "'rational' or 'gf:<p>'"},
        "target": {"required": True, "help": "path to the target matrix JSON"},
        "out": {"help": "path for the witness JSON (default stdout)"},
        "debug": {"flag": True, "help": "dump the chosen 0/1 cells and band systems to stderr"},
    }),
    "image": ("classify the image", cmd_image, {
        "poly": {"required": True, "help": "polynomial text, e.g. 'x1*x2-x2*x1'"},
        "n": {"int": True, "required": True, "help": "matrix dimension"},
        "field": {"default": "rational", "help": "'rational' (default) or 'gf:<p>'"},
        "json": {"flag": True, "help": "print the class as JSON"},
    }),
    "verify": ("brute-force check over a prime field", cmd_verify, {
        "poly": {"required": True, "help": "polynomial text, e.g. 'x1*x2-x2*x1'"},
        "n": {"int": True, "required": True, "help": "matrix dimension"},
        "field": {"required": True, "help": "prime field, e.g. gf:2"},
        "cap": {"int": True, "help": "max tail tuples X_2..X_m to scan, counted as q^(max(m-1,1)*c) for c scanned entries per matrix"},
        "reduce": {"flag": True, "help": "scan only entries that can occur in a degree-m product"},
        "out": {"help": "path for the report JSON (default stdout)"},
    }),
    "selftest": ("fixed grid plus seeded round trips", cmd_selftest, {
        "trials": {"int": True, "default": 100, "help": "round trips per field (default 100)"},
        "seed": {"int": True, "default": 0, "help": "seed of the round trips (default 0)"},
        "field": {"help": "restrict trials to one field"},
    }),
}

# Tokens that read as negative numbers are values, not options.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
# No option starts like a number or a variable, so a token that does is
# the value of a preceding --poly, such as -x1*x2 or -2/3*x1*x2.
_POLY_STARTS = {f"-{char}" for char in "0123456789x"}
_NO_VALUE = object()  # given as --name=--, which reads as no value


def _is_value(token: str, options: dict) -> bool:
    """Whether ``token`` is a value rather than an option, where
    ``options`` are the command's (none before the command)."""
    if token[:1] != "-" or token == "-":
        return True
    name = token.partition("=")[0]
    if name[:2] == "--" and name[2:] in options or name == "--help" or token[:2] == "-h":
        return False
    return " " in token or _NEGATIVE_NUMBER.match(token) is not None


def read_argv(argv: list[str]) -> SimpleNamespace:
    """The command's options by name, and ``func``, which runs it.

    ``argv`` is a command, then its ``--name value`` or ``--name=value``
    options; a flag takes no value and the last of a repeated option wins.
    Anything else raises a ParseError, a missing or unknown option only
    once all of ``argv`` is read.  -h or --help gives a ``func`` that
    writes help, unless an error comes first.
    """
    command, prog = None, "utimage"
    options, given, extras = {}, {}, []
    dashes = False  # every token after a '--' is a value
    i, end = 0, len(argv)
    while i < end:
        token = argv[i]
        i += 1
        if token == "--poly" and i < end and argv[i][:2] in _POLY_STARTS:
            token = f"--poly={argv[i]}"
            i += 1
        name, joined, text = token.partition("=")
        keywords = None if dashes or name[:2] != "--" else options.get(name[2:])
        if keywords is None:
            # The command or a stray value, as is a '--' before the command that tokens follow.
            if dashes or _is_value(token, options) or token == "--" and command is None and i < end:
                if command is not None:
                    extras.append(token)
                elif token in COMMANDS:
                    command, prog = token, f"utimage {token}"
                    _help, func, options = COMMANDS[command]
                else:
                    choices = ", ".join(map(repr, COMMANDS))
                    raise errors.ParseError(
                        f"utimage: argument command: invalid choice: {token!r} (choose from {choices})"
                    )
            elif name == "--help" or token[:2] == "-h":
                # -h is the only one-letter flag, so -hh, like -h=hh, is help twice.
                if name == "--help":
                    ignored = text if joined else None
                elif token == "-h=":
                    ignored = ""
                else:
                    ignored = (token[3:] if token[2:3] == "=" else token[2:]).lstrip("h") or None
                if ignored is not None:
                    raise errors.ParseError(
                        f"{prog}: argument -h/--help: ignored explicit argument {ignored!r}"
                    )
                return SimpleNamespace(func=_write_help, command=command)
            else:  # an unknown option, or '--'
                dashes = token == "--"
                extras.append(token)
            continue
        dest = name[2:]
        if "flag" in keywords:
            if joined:
                raise errors.ParseError(f"{prog}: argument --{dest}: ignored explicit argument {text!r}")
            given[dest] = True
            continue
        if not joined:
            if i == end or argv[i][:1] == "-" and not _is_value(argv[i], options):
                raise errors.ParseError(f"{prog}: argument --{dest}: expected one argument")
            text = argv[i]
            i += 1
        elif text == "--":
            given[dest] = _NO_VALUE
            continue
        if "int" in keywords:
            try:
                text = int(text)
            except ValueError:  # reported by length, not echoed whole
                raise errors.ParseError(
                    f"{prog}: argument --{dest}: invalid integer value ({len(text)} characters)"
                ) from None
        given[dest] = text
    if command is None:
        raise errors.ParseError("utimage: the following arguments are required: command")
    missing = [f"--{dest}" for dest in options if dest not in given and "required" in options[dest]]
    if missing:
        raise errors.ParseError(f"{prog}: the following arguments are required: {', '.join(missing)}")
    if extras:  # reported by the top level when it read tokens before the command
        prog = prog if argv[0] == command else "utimage"
        raise errors.ParseError(f"{prog}: unrecognized arguments: {' '.join(extras)}")
    for dest, keywords in options.items():
        if dest not in given:
            given[dest] = False if "flag" in keywords else keywords.get("default")
        elif given[dest] is _NO_VALUE:
            raise errors.ParseError(f"{prog}: argument --{dest}: expected one argument")
    return SimpleNamespace(func=func, **given)


def _write_help(args) -> int:
    """Print the usage and options of ``args.command``, or the commands."""
    if args.command is None:
        print(f"usage: utimage {{{','.join(COMMANDS)}}} ... [-h]\n\ncommands:")
        for name, (text, _func, _options) in COMMANDS.items():
            print(f"  {name:10}{text}")
        return 0
    text, _func, options = COMMANDS[args.command]
    specs = [(f"--{dest}" if "flag" in keywords else f"--{dest} {dest.upper()}", keywords)
             for dest, keywords in options.items()]
    usage = " ".join(spec if "required" in keywords else f"[{spec}]" for spec, keywords in specs)
    print(f"usage: utimage {args.command} {usage} [-h]\n\n{text}\n\noptions:")
    for spec, keywords in specs:
        print(f"  {spec:17}{keywords['help']}")
    return 0


def main(argv=None) -> int:
    try:
        args = read_argv(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except errors.TargetNotInImage as exc:
        print(f"not in image: {exc}", file=sys.stderr)
        return 2
    except errors.InternalInvariantViolation as exc:
        print(f"internal error (bug): {exc}", file=sys.stderr)
        return 3
    except (errors.Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
