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
# runs (numpy only for ile, ftle and carleman) and calls them as module.name,
# so a patched module attribute takes effect.
from .errors import DomainError, NumericalError, UsageError
from .expr import ParseError, format_float, parse_polynomial


def main() -> None:
    # Results are checked for finiteness; numpy's overflow warnings are noise.
    warnings.simplefilter("ignore", RuntimeWarning)
    sys.exit(run_command(sys.argv[1:]))


def run_command(argv) -> int:
    try:
        args = _parser().parse_args(list(argv))
        args.handler(args)
        return 0
    except (UsageError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, NumericalError, ArithmeticError, MemoryError) as exc:
        # A bare MemoryError carries no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Values like "-1:1:5,-0.5:0.5:5" or "-1,0" start with a dash; widen
        # the negative-number test so they read as option values, not flags.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

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
    if x0[0] == 0.0 or args.c == 0.0:
        err = None
    else:
        err = families.s1_evolution_check(args.lam, args.c, x0, args.time)
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
# Parser wiring
# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and reused: ``parse_args``
    does not mutate it, and building it costs more than most requests."""
    top = _Parser(prog="ilekoop", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ile", parents=[], help="sample an instantaneous rate field")
    _add_field(p)
    p.add_argument("--grid", required=True, help="xmin:xmax:nx,ymin:ymax:ny")
    p.add_argument("--rate", choices=["s1", "s2"], default="s1")
    p.add_argument("--out", required=True)
    p.add_argument("--pgm")
    p.add_argument("--extract", choices=["ridge", "trench"])
    p.add_argument("--grad-tol", type=_finite, default=None)
    p.add_argument("--curv-tol", type=_finite, default=1e-6)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.set_defaults(handler=_cmd_ile)

    p = sub.add_parser("ftle", help="sample a finite-time stretching field")
    _add_field(p)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--step", type=_finite, default=1e-3)
    p.add_argument("--delta", type=_finite, default=1e-5,
                   help="no effect: accepted for old command lines, removed soon")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm")
    p.add_argument("--threads", type=_positive_int, default=1)
    p.set_defaults(handler=_cmd_ftle)

    p = sub.add_parser("keig-check", help="residual report for a trial eigenpair")
    _add_field(p)
    p.add_argument("--g", required=True, help="observable expression in x, y")
    p.add_argument("--lambda", dest="lam", type=_finite, required=True)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--exact", action="store_true", help="report residual coefficients")
    p.add_argument("--box", default="-1:1,-1:1", help="sample box xmin:xmax,ymin:ymax")
    p.set_defaults(handler=_cmd_keig_check)

    p = sub.add_parser("pullback", help="evaluate a pullback eigenfunction at points")
    _add_field(p)
    p.add_argument("--line", required=True, help="x0,y0,dx,dy")
    p.add_argument("--h", required=True, help="data function: constant or expression in s")
    p.add_argument("--lambda", dest="lam", type=_finite, required=True)
    p.add_argument("--points", required=True, help="file of x,y lines")
    p.add_argument("--out", required=True)
    p.add_argument("--step", type=_finite, default=1e-3)
    p.add_argument("--tmax", type=float, default=50.0)
    p.set_defaults(handler=_cmd_pullback)

    p = sub.add_parser("family", help="emit a family field as JSON")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("quadratic")
    q.add_argument("--lambda", dest="lam", type=_finite, required=True)
    q.add_argument("--a20", type=_finite, required=True)
    q.set_defaults(handler=_cmd_family)
    cub = fam.add_parser("cubic")
    cub.add_argument("--lambda", dest="lam", type=_finite, required=True)
    cub.add_argument("--c", type=_finite, required=True)
    cub.add_argument("--k", type=_finite, required=True)
    cub.add_argument("--a00", type=_finite, required=True)
    cub.set_defaults(handler=_cmd_family)
    tr = fam.add_parser("transformed")
    tr.add_argument("--lambda", dest="lam", type=_finite, required=True)
    tr.add_argument("--coeffs", required=True, help="c3[,c4,...]")
    tr.set_defaults(handler=_cmd_family)

    p = sub.add_parser("carleman", help="exact normal-form endpoint and rate evolution")
    p.add_argument("--lambda", dest="lam", type=_finite, required=True)
    p.add_argument("--c", type=_finite, required=True)
    p.add_argument("--x0", required=True, help="x1,x2")
    p.add_argument("--time", type=_finite, required=True)
    p.set_defaults(handler=_cmd_carleman)

    p = sub.add_parser("series", help="eigenfunction series coefficients and partial sums")
    p.add_argument("--target", choices=["s1", "3y2", "y"], required=True)
    p.add_argument("--N", dest="n", type=int, required=True)
    p.add_argument("--y", type=_finite, required=True)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("oned", help="one-dimensional rate/eigenfunction obstruction")
    p.add_argument("--f", required=True, help="polynomial in x")
    p.add_argument("--xmin", type=_finite, required=True)
    p.add_argument("--xmax", type=_finite, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_oned)

    return top


def _add_field(p) -> None:
    p.add_argument(
        "--field",
        required=True,
        help="'saddle', 'expr:P;Q', a field JSON path, or '-' for stdin",
    )


if __name__ == "__main__":
    main()
