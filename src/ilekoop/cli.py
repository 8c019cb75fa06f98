"""Command-line front end.

Every subcommand writes either CSV/PGM files or JSON to stdout.  All numeric
output uses 17 significant digits and identical invocations produce
byte-identical output; grid subcommands accept --threads and the result does
not depend on the thread count.

Exit codes: 0 success, 1 usage error (bad flags, unparsable expressions or
files), 2 domain or numeric error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from . import families, flowmap, koopman, series, strain
from .errors import DomainError, NumericalError, UsageError
from .expr import ParseError, parse_polynomial
from .flowmap import IntegratorConfig
from .strain import Grid2D, format_float
from .vectorfield import VectorField2D, field_from_json, field_to_json


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


def run_command(argv) -> int:
    try:
        args = _parser().parse_args(list(argv))
        args.handler(args)
        return 0
    except (UsageError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
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

def _load_field(source: str) -> VectorField2D:
    if source == "saddle":
        return VectorField2D.saddle()
    if source.startswith("expr:"):
        parts = source[len("expr:"):].split(";")
        if len(parts) != 2:
            raise UsageError("inline field must be expr:P;Q")
        return VectorField2D.polynomial(parse_polynomial(parts[0]), parse_polynomial(parts[1]))
    try:
        obj = json.loads(_read_text(source))
    except json.JSONDecodeError as exc:
        raise UsageError(f"field JSON is invalid: {exc}") from exc
    return field_from_json(obj)


def _read_text(source: str) -> str:
    """The text of the file ``source``, or of stdin when it is '-'."""
    if source == "-":
        return sys.stdin.read()
    with open(source, "r", encoding="ascii") as fh:
        return fh.read()


def _parse_grid(text: str) -> Grid2D:
    try:
        xpart, ypart = text.split(",")
        xmin, xmax, nx = xpart.split(":")
        ymin, ymax, ny = ypart.split(":")
        return Grid2D(float(xmin), float(xmax), int(nx), float(ymin), float(ymax), int(ny))
    except ValueError as exc:
        raise UsageError(f"grid must be xmin:xmax:nx,ymin:ymax:ny ({exc})") from exc


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{what} must be two comma-separated numbers")
    return (float(parts[0]), float(parts[1]))


def _sample_box(n: int, box: tuple[float, float, float, float]) -> list:
    """Deterministic near-square lattice of n points inside the box."""
    xmin, xmax, ymin, ymax = box
    side = max(2, int(math.ceil(math.sqrt(n))))
    pts = []
    for iy in range(side):
        for ix in range(side):
            if len(pts) >= n:
                return pts
            fx = (ix + 0.5) / side
            fy = (iy + 0.5) / side
            pts.append((xmin + fx * (xmax - xmin), ymin + fy * (ymax - ymin)))
    return pts


def _write_field_outputs(sf, out_path: str, pgm_path: str | None) -> None:
    with open(out_path, "w", encoding="ascii", newline="\n") as fh:
        strain.write_csv(sf, fh)
    if pgm_path:
        with open(pgm_path, "w", encoding="ascii", newline="\n") as fh:
            strain.write_pgm(sf, fh)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_ile(args) -> None:
    for flag, tol in (("--grad-tol", args.grad_tol), ("--curv-tol", args.curv_tol)):
        if tol is not None and not math.isfinite(tol):
            raise UsageError(f"{flag} must be finite, got {tol!r}")
    f = _load_field(args.field)
    grid = _parse_grid(args.grid)
    sf = strain.rate_field(f, grid, which=args.rate, threads=args.threads)
    _write_field_outputs(sf, args.out, args.pgm)
    if args.extract:
        grad_tol = args.grad_tol if args.grad_tol is not None else strain.default_grad_tol(sf)
        hits = strain.extract_extremal_set(sf, args.extract, grad_tol, args.curv_tol)
        xt, yt = strain.axis_text(grid)
        points = ", ".join(
            [f'{{"ix": {ix}, "iy": {iy}, "x": {xt[ix]}, "y": {yt[iy]}}}' for ix, iy in hits]
        )
        _emit(
            {
                "mode": args.extract,
                "grad_tol": grad_tol,
                "curv_tol": args.curv_tol,
                "points": _RawJSON(f"[{points}]"),
            }
        )


def _cmd_ftle(args) -> None:
    f = _load_field(args.field)
    grid = _parse_grid(args.grid)
    cfg = IntegratorConfig(step=args.step)
    sf = flowmap.ftle_field(f, grid, args.time, args.delta, cfg, threads=args.threads)
    _write_field_outputs(sf, args.out, args.pgm)


def _cmd_keig_check(args) -> None:
    f = _load_field(args.field)
    g = parse_polynomial(args.g)
    cand = koopman.KeigCandidate(g, args.lam)
    if args.exact:
        residual = koopman.keig_residual(f, cand)
        coeffs = [c for _, c in residual.items_sorted()]
        sq = sum(c * c for c in coeffs)
        _emit(
            {
                "lambda": args.lam,
                "max_abs_residual": residual.max_abs_coeff(),
                "rms_residual": (sq / len(coeffs)) ** 0.5 if coeffs else 0.0,
                "samples": len(coeffs),
                "exact": True,
            }
        )
        return
    pts = _sample_box(args.samples, _parse_box(args.box))
    _emit(koopman.residual_report(f, cand, pts))


def _parse_box(text: str) -> tuple[float, float, float, float]:
    try:
        xpart, ypart = text.split(",")
        xmin, xmax = xpart.split(":")
        ymin, ymax = ypart.split(":")
        return (float(xmin), float(xmax), float(ymin), float(ymax))
    except ValueError as exc:
        raise UsageError(f"box must be xmin:xmax,ymin:ymax ({exc})") from exc


def _cmd_pullback(args) -> None:
    f = _load_field(args.field)
    x0, y0, dx, dy = (float(v) for v in args.line.split(","))
    try:
        const = float(args.h)
        h = lambda s, c=const: c  # noqa: E731
    except ValueError:
        hp = parse_polynomial(args.h, variables=("s",))
        h = lambda s, p=hp: p.evaluate(s)  # noqa: E731
    surf = koopman.DataSurface((x0, y0), (dx, dy), h)
    cfg = IntegratorConfig(step=args.step)
    lines = _read_text(args.points).splitlines()
    points = [_parse_pair(line.strip(), "point") for line in lines if line.strip()]
    # Every value is computed before --out is opened, so a failing point
    # leaves no partial table behind.
    values = [
        koopman.pullback_eigenfunction(f, surf, args.lam, pt, cfg, t_max=args.tmax)
        for pt in points
    ]
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("x,y,value\n")
        for (x, y), val in zip(points, values):
            fh.write(f"{format_float(x)},{format_float(y)},{format_float(val)}\n")


def _cmd_family(args) -> None:
    if args.family == "quadratic":
        f = families.make_quadratic_family(families.QuadraticParams(args.lam, args.a20))
    elif args.family == "cubic":
        params = families.CubicParams.from_rate_eigenvalue(args.lam, args.c, args.k, args.a00)
        f = families.make_cubic_family(params)
    else:
        coeffs = [float(v) for v in args.coeffs.split(",")]
        f = families.make_transformed_family(args.lam, coeffs)
    _emit(field_to_json(f))


def _cmd_carleman(args) -> None:
    x0 = _parse_pair(args.x0, "--x0")
    x1t, x2t = families.carleman_solve(args.lam, args.c, x0, args.time)
    if x0[0] == 0.0 or args.c == 0.0:
        err = None
    else:
        err = families.s1_evolution_check(args.lam, args.c, x0, args.time)
    _emit({"x1": x1t, "x2": x2t, "s1_evolution_relative_error": err})


def _cmd_series(args) -> None:
    if args.target in ("3y2", "s1"):
        coeffs = list(series.attraction_series_coefficients(args.n))
        offset = -1.0 if args.target == "s1" else 0.0
        reference = offset + 3.0 * args.y * args.y
        sums = []
        for n in range(1, args.n + 1):
            value = offset + series.partial_sum_check(n, args.y)[0]
            sums.append({"N": n, "y": args.y, "value": value, "error": abs(value - reference)})
        _emit({"target": args.target, "coefficients": coeffs, "partial_sums": sums})
        return
    # target y: decomposition over the closed-form family with x-power 0
    if not abs(args.y) < 0.5 + 1e-12:
        raise DomainError("the y decomposition is evaluated on |y| <= 0.5")
    terms = series.decompose_monomial(0, 1, args.n)
    sums = []
    for n in range(1, args.n + 1):
        value = series.monomial_partial_sum(0, terms[:n], 1.0, args.y)
        sums.append({"N": n, "y": args.y, "value": value, "error": abs(value - args.y)})
    _emit(
        {
            "target": "y",
            "coefficients": [c for _, c in terms],
            "eigenvalues": [lam for lam, _ in terms],
            "partial_sums": sums,
        }
    )


def _cmd_oned(args) -> None:
    fpoly = parse_polynomial(args.f, variables=("x",))
    if args.n < 2:
        raise UsageError("--n must be at least 2")
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
    p.add_argument("--grad-tol", type=float, default=None)
    p.add_argument("--curv-tol", type=float, default=1e-6)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(handler=_cmd_ile)

    p = sub.add_parser("ftle", help="sample a finite-time stretching field")
    _add_field(p)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--delta", type=float, default=1e-5)
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(handler=_cmd_ftle)

    p = sub.add_parser("keig-check", help="residual report for a trial eigenpair")
    _add_field(p)
    p.add_argument("--g", required=True, help="observable expression in x, y")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--exact", action="store_true", help="report residual coefficients")
    p.add_argument("--box", default="-1:1,-1:1", help="sample box xmin:xmax,ymin:ymax")
    p.set_defaults(handler=_cmd_keig_check)

    p = sub.add_parser("pullback", help="evaluate a pullback eigenfunction at points")
    _add_field(p)
    p.add_argument("--line", required=True, help="x0,y0,dx,dy")
    p.add_argument("--h", required=True, help="data function: constant or expression in s")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--points", required=True, help="file of x,y lines")
    p.add_argument("--out", required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--tmax", type=float, default=50.0)
    p.set_defaults(handler=_cmd_pullback)

    p = sub.add_parser("family", help="emit a family field as JSON")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("quadratic")
    q.add_argument("--lambda", dest="lam", type=float, required=True)
    q.add_argument("--a20", type=float, required=True)
    q.set_defaults(handler=_cmd_family)
    cub = fam.add_parser("cubic")
    cub.add_argument("--lambda", dest="lam", type=float, required=True)
    cub.add_argument("--c", type=float, required=True)
    cub.add_argument("--k", type=float, required=True)
    cub.add_argument("--a00", type=float, required=True)
    cub.set_defaults(handler=_cmd_family)
    tr = fam.add_parser("transformed")
    tr.add_argument("--lambda", dest="lam", type=float, required=True)
    tr.add_argument("--coeffs", required=True, help="c3[,c4,...]")
    tr.set_defaults(handler=_cmd_family)

    p = sub.add_parser("carleman", help="exact normal-form endpoint and rate evolution")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--x0", required=True, help="x1,x2")
    p.add_argument("--time", type=float, required=True)
    p.set_defaults(handler=_cmd_carleman)

    p = sub.add_parser("series", help="eigenfunction series coefficients and partial sums")
    p.add_argument("--target", choices=["s1", "3y2", "y"], required=True)
    p.add_argument("--N", dest="n", type=int, required=True)
    p.add_argument("--y", type=float, required=True)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("oned", help="one-dimensional rate/eigenfunction obstruction")
    p.add_argument("--f", required=True, help="polynomial in x")
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
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
