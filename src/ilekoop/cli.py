"""Command-line front end.

Every subcommand writes either CSV/PGM files or JSON to stdout.  All numeric
output uses 17 significant digits and identical invocations produce
byte-identical output; grid subcommands accept --threads (at least 1) and the
result does not depend on the thread count.

Exit codes: 0 success, 1 usage error (bad flags, unparsable expressions or
files, non-finite numbers), 2 domain or numeric error (overflow included).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import warnings

# Only errors and expr load on import.  Each subcommand imports the modules it
# runs (numpy only for ile and ftle) and calls them as module.name,
# so a patched module attribute takes effect.
from .errors import DomainError, NumericalError, UsageError
from .expr import ParseError, format_float, parse_polynomial


def main() -> None:
    # Results are checked for finiteness; numpy's overflow warnings are noise.
    warnings.simplefilter("ignore", RuntimeWarning)
    sys.exit(run_command(sys.argv[1:]))


def run_command(argv) -> int:
    try:
        argv = list(argv)
        args = _read(argv)
        if args is None:
            args = _parser().parse_args(argv)
        args.handler(args)
        return 0
    except (UsageError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, NumericalError, ArithmeticError, MemoryError) as exc:
        # A bare MemoryError carries no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


#: argparse's negative-number test, widened: values like "-1:1:5,-0.5:0.5:5"
#: or "-1,0" start with a dash and must read as option values, not flags.
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Deterministic output helpers
# ---------------------------------------------------------------------------

class _RawJSON(str):
    """Text that ``_json_text`` emits verbatim (already rendered JSON)."""


def _json_text(obj) -> str:
    """JSON with floats rendered at 17 significant digits."""
    if isinstance(obj, _RawJSON):
        return obj
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_text(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    return json.dumps(obj)


def _emit(obj) -> None:
    sys.stdout.write(_json_text(obj) + "\n")


# ---------------------------------------------------------------------------
# Shared argument handling
# ---------------------------------------------------------------------------

def _load_field(source: str):
    """The ``VectorField2D`` that ``--field`` names."""
    from . import vectorfield
    if source == "saddle":
        return vectorfield.VectorField2D.saddle()
    if source.startswith("expr:"):
        parts = source[len("expr:"):].split(";")
        if len(parts) != 2:
            raise UsageError("inline field must be expr:P;Q")
        return vectorfield.VectorField2D(parse_polynomial(parts[0]), parse_polynomial(parts[1]))
    try:
        obj = json.loads(_read_text(source))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise UsageError(f"field JSON is invalid: {exc}") from exc
    return vectorfield.field_from_json(obj)


def _read_text(source: str) -> str:
    """The text of the file ``source``, or of stdin when it is '-'."""
    if source == "-":
        return sys.stdin.read()
    with open(source, "r", encoding="ascii") as fh:
        return fh.read()


def _finite(text: str) -> float:
    """The one finiteness check for every number the CLI reads (a flag ``type``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """An integer >= 1 (a flag ``type``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _floats(text: str, what: str, count: int | None = None) -> tuple[float, ...]:
    """Comma-separated finite numbers, ``count`` of them when given."""
    parts = text.split(",")
    if count is not None and len(parts) != count:
        raise UsageError(f"{what} must be {count} comma-separated numbers")
    try:
        return tuple(_finite(part) for part in parts)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{what}: {exc}") from None


def _parse_grid(text: str):
    """The ``strain.Grid2D`` that ``--grid`` describes."""
    from . import strain
    try:
        xpart, ypart = text.split(",")
        xmin, xmax, nx = xpart.split(":")
        ymin, ymax, ny = ypart.split(":")
        return strain.Grid2D(_finite(xmin), _finite(xmax), int(nx),
                             _finite(ymin), _finite(ymax), int(ny))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"--grid must be xmin:xmax:nx,ymin:ymax:ny ({exc})") from exc


def _sample_box(n: int, box: tuple[float, float, float, float]) -> list:
    """Deterministic near-square lattice of n points inside the box."""
    xmin, xmax, ymin, ymax = box
    side = max(2, int(math.ceil(math.sqrt(n))))
    return [(xmin + (ix + 0.5) / side * (xmax - xmin), ymin + (iy + 0.5) / side * (ymax - ymin))
            for iy in range(side) for ix in range(side)][:n]


def _write_field_outputs(sf, out_path: str, pgm_path: str | None) -> None:
    from . import strain
    with open(out_path, "w", encoding="ascii", newline="\n") as fh:
        strain.write_csv(sf, fh)
    if pgm_path:
        with open(pgm_path, "w", encoding="ascii", newline="\n") as fh:
            strain.write_pgm(sf, fh)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_ile(args) -> None:
    from . import strain
    f = _load_field(args.field)
    grid = _parse_grid(args.grid)
    sf = strain.rate_field(f, grid, which=args.rate, threads=args.threads)
    # The extraction and its JSON come first, so a failure there leaves no file.
    report = ""
    if args.extract:
        grad_tol = args.grad_tol if args.grad_tol is not None else strain.default_grad_tol(sf)
        hits = strain.extract_extremal_set(sf, args.extract, grad_tol, args.curv_tol)
        xt, yt = strain.axis_text(grid)
        points = ", ".join(
            [f'{{"ix": {ix}, "iy": {iy}, "x": {xt[ix]}, "y": {yt[iy]}}}' for ix, iy in hits]
        )
        report = _json_text({"mode": args.extract, "grad_tol": grad_tol, "curv_tol": args.curv_tol,
                             "points": _RawJSON(f"[{points}]")}) + "\n"
    _write_field_outputs(sf, args.out, args.pgm)
    sys.stdout.write(report)


def _cmd_ftle(args) -> None:
    from . import flowmap
    f = _load_field(args.field)
    grid = _parse_grid(args.grid)
    cfg = flowmap.IntegratorConfig(step=args.step)
    sf = flowmap.ftle_field(f, grid, args.time, args.delta, cfg, threads=args.threads)
    _write_field_outputs(sf, args.out, args.pgm)


#: Largest ``keig-check --samples`` and ``oned --n``: every sample is held in
#: memory at once, and 10^6 of them take about 1.3 s and 2.2 s.
_MAX_SAMPLES = 10**6


def _cmd_keig_check(args) -> None:
    from . import koopman
    f = _load_field(args.field)
    g = parse_polynomial(args.g)
    cand = koopman.KeigCandidate(g, args.lam)
    if args.exact:
        residual = koopman.keig_residual(f, cand)
        coeffs = [c for _, c in residual.items_sorted()]
        _emit({"lambda": args.lam, "max_abs_residual": residual.max_abs_coeff(),
               "rms_residual": koopman.rms(coeffs), "samples": len(coeffs), "exact": True})
        return
    if args.samples > _MAX_SAMPLES:
        raise UsageError(f"--samples must be at most {_MAX_SAMPLES}, got {args.samples}")
    pts = _sample_box(args.samples, _parse_box(args.box))
    _emit(koopman.residual_report(f, cand, pts))


def _parse_box(text: str) -> tuple[float, float, float, float]:
    try:
        xpart, ypart = text.split(",")
        xmin, xmax = xpart.split(":")
        ymin, ymax = ypart.split(":")
        box = (_finite(xmin), _finite(xmax), _finite(ymin), _finite(ymax))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"--box must be xmin:xmax,ymin:ymax ({exc})") from exc
    if not (box[0] < box[1] and box[2] < box[3]):
        raise UsageError("--box must satisfy xmin < xmax and ymin < ymax")
    if not (math.isfinite(box[1] - box[0]) and math.isfinite(box[3] - box[2])):
        raise NumericalError("--box width or height overflows a double")
    return box


def _cmd_pullback(args) -> None:
    from . import koopman, vectorfield
    f = _load_field(args.field)
    x0, y0, dx, dy = _floats(args.line, "--line", 4)
    try:
        float(args.h)
    except ValueError:
        hp = parse_polynomial(args.h, variables=("s",))
        h = lambda s, p=hp: p.evaluate(s)  # noqa: E731
    else:
        (const,) = _floats(args.h, "--h")
        h = lambda s, c=const: c  # noqa: E731
    surf = koopman.DataSurface((x0, y0), (dx, dy), h)
    cfg = vectorfield.IntegratorConfig(step=args.step)
    lines = _read_text(args.points).splitlines()
    points = [_floats(line.strip(), "--points", 2) for line in lines if line.strip()]
    # Every row is computed and formatted (format_float refuses non-finite
    # values) before --out is opened, so a failure leaves no partial table.
    rows = []
    for x, y in points:
        val = koopman.pullback_eigenfunction(f, surf, args.lam, (x, y), cfg, t_max=args.tmax)
        rows.append(f"{format_float(x)},{format_float(y)},{format_float(val)}\n")
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("x,y,value\n" + "".join(rows))


def _cmd_family(args) -> None:
    from . import families, vectorfield
    if args.family == "quadratic":
        f = families.make_quadratic_family(families.QuadraticParams(args.lam, args.a20))
    elif args.family == "cubic":
        params = families.CubicParams.from_rate_eigenvalue(args.lam, args.c, args.k, args.a00)
        f = families.make_cubic_family(params)
    else:
        coeffs = _floats(args.coeffs, "--coeffs")
        f = families.make_transformed_family(args.lam, coeffs)
    _emit(vectorfield.field_to_json(f))


def _cmd_carleman(args) -> None:
    from . import families
    x0 = _floats(args.x0, "--x0", 2)
    x1t, x2t = families.carleman_solve(args.lam, args.c, x0, args.time)
    try:
        err = families.s1_evolution_check(args.lam, args.c, x0, args.time)
    except ValueError:  # the rate vanishes at the start point
        err = None
    _emit({"x1": x1t, "x2": x2t, "s1_evolution_relative_error": err})


#: Largest ``series --N``.  The greedy coefficients lose digits as N grows
#: (relative error 7.6e-9 at N = 20, 1.9e-5 at N = 28, 17 at N = 40).
_MAX_SERIES_N = 64


def _cmd_series(args) -> None:
    from . import series
    if not 1 <= args.n <= _MAX_SERIES_N:
        raise UsageError(f"--N must be between 1 and {_MAX_SERIES_N}, got {args.n}")
    # The coefficients do not depend on N: one pass gives every partial sum.
    if args.target in ("3y2", "s1"):
        out = {"coefficients": list(series.attraction_series_coefficients(args.n))}
        offset = -1.0 if args.target == "s1" else 0.0
        reference = offset + 3.0 * args.y * args.y
        sums = [offset + v for v in series._attraction_partial_sums(args.n, args.y)]
    else:
        # target y: decomposition over the closed-form family with x-power 0
        if not abs(args.y) < 0.5 + 1e-12:
            raise DomainError("the y decomposition is evaluated on |y| <= 0.5")
        terms = series.decompose_monomial(0, 1, args.n)
        out = {"coefficients": [c for _, c in terms], "eigenvalues": [lam for lam, _ in terms]}
        reference, sums = args.y, series._monomial_partial_sums(0, terms, 1.0, args.y)
    rows = [{"N": n, "y": args.y, "value": v, "error": abs(v - reference)}
            for n, v in enumerate(sums[1:], start=1)]
    _emit({"target": args.target, **out, "partial_sums": rows})


def _cmd_oned(args) -> None:
    from . import families
    fpoly = parse_polynomial(args.f, variables=("x",))
    if not 2 <= args.n <= _MAX_SAMPLES:
        raise UsageError(f"--n must be between 2 and {_MAX_SAMPLES}, got {args.n}")
    if not args.xmin < args.xmax:
        raise UsageError("--xmin must be less than --xmax")
    step = (args.xmax - args.xmin) / (args.n - 1)
    samples = [args.xmin + i * step for i in range(args.n)]
    _, lam_star = families.one_d_residual(fpoly, 0.0, samples)
    resnorm, _ = families.one_d_residual(fpoly, lam_star, samples)
    _emit(
        {
            "lambda_star": lam_star,
            "resnorm": resnorm,
            "lambda_trivial": bool(abs(lam_star) < 1e-12 and resnorm < 1e-12),
        }
    )


# ---------------------------------------------------------------------------
# The command table: every subcommand and flag, declared once
# ---------------------------------------------------------------------------

_FIELD = ("--field", dict(required=True,
                          help="'saddle', 'expr:P;Q', a field JSON path, or '-' for stdin"))
_LAMBDA = ("--lambda", dict(dest="lam", type=_finite, required=True))
_NUMBER = dict(type=_finite, required=True)
_OUT = ("--out", dict(required=True))
_PGM = ("--pgm", {})
_STEP = ("--step", dict(type=_finite, default=1e-3))
_THREADS = ("--threads", dict(type=_positive_int, default=1))

#: Every subcommand, in the parser's order: its name (a family's as
#: "family NAME") -> (handler, help, options).  A None handler marks a group,
#: whose subcommands follow it.  Each option is ``add_argument``'s flag and
#: keywords, which both ``_parser`` and ``_read`` read.
_COMMANDS = {
    "ile": (_cmd_ile, "sample an instantaneous rate field", [
        _FIELD, ("--grid", dict(required=True, help="xmin:xmax:nx,ymin:ymax:ny")),
        ("--rate", dict(choices=["s1", "s2"], default="s1")), _OUT, _PGM,
        ("--extract", dict(choices=["ridge", "trench"])),
        ("--grad-tol", dict(type=_finite, default=None)),
        ("--curv-tol", dict(type=_finite, default=1e-6)), _THREADS]),
    "ftle": (_cmd_ftle, "sample a finite-time stretching field", [
        _FIELD, ("--time", dict(type=float, required=True)), _STEP,
        ("--delta", dict(type=_finite, default=1e-5,
                         help="no effect: accepted for old command lines, removed soon")),
        ("--grid", dict(required=True)), _OUT, _PGM, _THREADS]),
    "keig-check": (_cmd_keig_check, "residual report for a trial eigenpair", [
        _FIELD, ("--g", dict(required=True, help="observable expression in x, y")), _LAMBDA,
        ("--samples", dict(type=_positive_int, default=100)),
        ("--exact", dict(action="store_true", help="report residual coefficients")),
        ("--box", dict(default="-1:1,-1:1", help="sample box xmin:xmax,ymin:ymax"))]),
    "pullback": (_cmd_pullback, "evaluate a pullback eigenfunction at points", [
        _FIELD, ("--line", dict(required=True, help="x0,y0,dx,dy")),
        ("--h", dict(required=True, help="data function: constant or expression in s")), _LAMBDA,
        ("--points", dict(required=True, help="file of x,y lines")), _OUT, _STEP,
        ("--tmax", dict(type=float, default=50.0))]),
    "family": (None, "emit a family field as JSON", []),
    "family quadratic": (_cmd_family, None, [_LAMBDA, ("--a20", _NUMBER)]),
    "family cubic": (_cmd_family, None,
                     [_LAMBDA, ("--c", _NUMBER), ("--k", _NUMBER), ("--a00", _NUMBER)]),
    "family transformed": (_cmd_family, None,
                           [_LAMBDA, ("--coeffs", dict(required=True, help="c3[,c4,...]"))]),
    "carleman": (_cmd_carleman, "exact normal-form endpoint and rate evolution", [
        _LAMBDA, ("--c", _NUMBER), ("--x0", dict(required=True, help="x1,x2")),
        ("--time", _NUMBER)]),
    "series": (_cmd_series, "eigenfunction series coefficients and partial sums", [
        ("--target", dict(choices=["s1", "3y2", "y"], required=True)),
        ("--N", dict(dest="n", type=int, required=True)), ("--y", _NUMBER)]),
    "oned": (_cmd_oned, "one-dimensional rate/eigenfunction obstruction", [
        ("--f", dict(required=True, help="polynomial in x")), ("--xmin", _NUMBER),
        ("--xmax", _NUMBER), ("--n", dict(type=int, required=True))]),
}


@functools.cache
def _parser() -> _Parser:
    """The argument parser of ``_COMMANDS``, built on first use and reused:
    ``parse_args`` does not mutate it, and building it costs more than most
    requests.  It alone gives usage errors, ``--help`` and abbreviations."""
    top = _Parser(prog="ilekoop", description=__doc__)
    groups = {"": top.add_subparsers(dest="command", required=True)}
    for name, (handler, help_text, options) in _COMMANDS.items():
        group, _, word = name.rpartition(" ")
        p = groups[group].add_parser(word, **({"help": help_text} if help_text else {}))
        if handler is None:
            groups[name] = p.add_subparsers(dest=word, required=True)
            continue
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)
    return top


# ---------------------------------------------------------------------------
# The quick reader: well-formed command lines without argparse's generic walk
# ---------------------------------------------------------------------------

def _read(argv: list):
    """The Namespace ``_parser().parse_args(argv)`` returns, read straight
    from ``_COMMANDS``, or None: then argparse parses ``argv`` itself.

    After the subcommand names, the reader takes exact option strings and
    ``--opt=value``, each option's own ``type`` and ``choices``, flags,
    repeated options (the last wins), and a value that starts with '-' only
    where ``_NEGATIVE_NUMBER`` matches it.  Anything else, a missing
    required option included, returns None."""
    if {type(arg) for arg in argv} != {str}:
        return None
    name = " ".join(argv[:2])
    if name not in _COMMANDS:
        name = argv[0]
    if _COMMANDS.get(name, (None,))[0] is None:  # unknown, or a group
        return None
    words, defaults, options, required = _plan(name)
    i, n = len(words), len(argv)
    if argv[:i] != words:  # a name that holds a space
        return None
    values, seen = dict(defaults), set()
    while i < n:
        flag, eq, text = argv[i].partition("=")
        i += 1
        entry = options.get(flag)
        if entry is None:
            return None
        dest, convert, choices = entry
        if convert is None:  # store_true takes no value
            if eq:
                return None
            value = True
        else:
            if not eq:
                if i == n:
                    return None
                text = argv[i]
                i += 1
                if text[:1] == "-" and not _NEGATIVE_NUMBER.match(text):
                    return None
            if text == "--":
                return None
            try:  # the errors parse_args turns into usage errors
                value = convert(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if choices is not None and value not in choices:
                return None
        values[dest] = value
        seen.add(flag)
    if not required <= seen:
        return None
    return argparse.Namespace(**values)


@functools.cache
def _plan(name: str):
    """What ``_read`` needs of the subcommand ``name`` of ``_COMMANDS``:
    ``(words, defaults, options, required)``.  ``defaults`` is the namespace
    ``parse_args`` fills before it reads an option, in its order: each
    subcommand name under its parser's dest, each option's default (a
    string one converted by the option's type), then the handler.
    ``options`` maps each flag to ``(dest, convert, choices)``, convert
    None for a store_true flag; ``required`` holds the required flags."""
    handler, _, table = _COMMANDS[name]
    words = name.split(" ")
    defaults, options, required = dict(zip(["command", *words[:-1]], words)), {}, set()
    for flag, keywords in table:
        dest = keywords.get("dest", flag[2:].replace("-", "_"))
        flag_only = keywords.get("action") == "store_true"
        convert = None if flag_only else keywords.get("type", str)
        default = keywords.get("default", False if flag_only else None)
        if isinstance(default, str):
            default = convert(default)
        defaults.setdefault(dest, default)
        options[flag] = dest, convert, keywords.get("choices")
        if keywords.get("required"):
            required.add(flag)
    defaults["handler"] = handler
    return words, defaults, options, required


if __name__ == "__main__":
    main()
