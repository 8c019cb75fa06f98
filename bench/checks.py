"""Output checks for benchmark requests.

Each check reads what one CLI request produced (exit code, stdout, stderr and
the files it wrote) and returns ``(ok, err, note)``.  ``err`` is the largest
absolute deviation from a closed form, or 0.0 for requests without one; the
benchmark reports the maximum as ``oracle_max_err``.  The closed forms are
evaluated here, independently of the package:

- saddle rates: s1 = min(1, -1 + 3y^2), s2 = max(1, -1 + 3y^2);
- shear-free family rates: min/max of P_x and Q_y (the cubic family's Q_y is
  its attraction rate, the quadratic family's P_x its repulsion rate);
- saddle FTLE from its explicit Cauchy-Green tensor;
- normal-form FTLE from the exact flow of the monomial lift;
- pullback eigenfunctions: x1^2 on the normal form (line x1 = 1, h = 1,
  lambda = -1), and 3y^2 / (1 - y^2) on the saddle (line y = 0.5, h = 1,
  lambda = -2), the closed-form eigenfunction normalised to 1 on the line;
- family coefficients, exact eigenpair residuals (identically zero), the
  lift's closed-form endpoint, and the series coefficients (-1/3)^(k-1)
  and binom(-1/2, j) / 3^(j + 1/2).
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

# Rates are sums of polynomial terms, so their tolerance is a multiple of
# the unit roundoff times the summed term magnitudes; the largest multiple
# seen is below 3.  The other tolerances are absolute.
RATE_TOL_ULPS = 8
FTLE_TOL = 1e-8
PULLBACK_TOL = 1e-8
COEFF_TOL = 1e-12
CARLEMAN_TOL = 1e-12


def check(req, code: int, stdout: str, stderr: str, files: dict) -> tuple[bool, float, str]:
    if code != req.expect:
        return False, 0.0, f"exit {code}, expected {req.expect}: {stderr.strip()[:200]}"
    try:
        return _CHECKS[req.oracle["check"]](req.oracle, stdout, stderr, files)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return False, 0.0, f"unreadable output: {exc!r}"


def _grid_axes(grid):
    x0, x1, nx, y0, y1, ny = grid
    return np.linspace(x0, x1, nx), np.linspace(y0, y1, ny)


def _read_field_csv(text: str, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (x, y, values) per node, checking the header and node layout."""
    if not text.startswith("x,y,value\n"):
        raise ValueError("missing CSV header")
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    xs, ys = _grid_axes(grid)
    yv, xv = np.meshgrid(ys, xs, indexing="ij")
    if data.shape != (xv.size, 3):
        raise ValueError(f"CSV has shape {data.shape}, grid has {xv.size} nodes")
    if not (np.array_equal(data[:, 0], xv.ravel()) and np.array_equal(data[:, 1], yv.ravel())):
        raise ValueError("CSV node coordinates do not match the grid")
    if not np.all(np.isfinite(data[:, 2])):
        raise ValueError("non-finite value in CSV")
    return data[:, 0], data[:, 1], data[:, 2]


def _check_pgm(text: str, nx: int, ny: int) -> None:
    lines = text.split("\n")
    if lines[0] != "P2" or lines[1] != f"{nx} {ny}" or lines[2] != "255":
        raise ValueError("bad PGM header")
    rows = [list(map(int, line.split())) for line in lines[3 : 3 + ny]]
    if len(rows) != ny or any(len(r) != nx for r in rows) or lines[3 + ny :] != [""]:
        raise ValueError("PGM raster does not match the grid")
    flat = [v for r in rows for v in r]
    if min(flat) < 0 or max(flat) > 255:
        raise ValueError("PGM value out of range")


def _check_ile(o, stdout, stderr, files):
    x, y, v = _read_field_csv(files[0], o["grid"])
    if o["field"] == "saddle":
        a, b = np.ones_like(y), -1.0 + 3.0 * y * y
        scale = 1.0 + 3.0 * y * y
    else:
        w, aw = x + y, np.abs(x) + np.abs(y)
        (p0, p1, p2), (q0, q1, q2) = o["rates"]["px"], o["rates"]["qy"]
        a = p0 + p1 * w + p2 * w * w
        b = q0 + q1 * w + q2 * w * w
        scale = np.maximum(abs(p0) + abs(p1) * aw + abs(p2) * aw * aw,
                           abs(q0) + abs(q1) * aw + abs(q2) * aw * aw)
    ref = np.minimum(a, b) if o["rate"] == "s1" else np.maximum(a, b)
    dev = np.abs(v - ref)
    err = float(np.max(dev))
    ok = bool(np.all(dev <= RATE_TOL_ULPS * np.finfo(float).eps * scale))
    _, _, nx, _, _, ny = o["grid"]
    _check_pgm(files[1], nx, ny)
    report = json.loads(stdout)
    xs, ys = _grid_axes(o["grid"])
    mode = "trench" if o["rate"] == "s1" else "ridge"
    keys = [(pt["iy"], pt["ix"]) for pt in report["points"]]
    ok = ok and report["mode"] == mode and keys == sorted(set(keys))
    for pt in report["points"]:
        ix, iy = pt["ix"], pt["iy"]
        ok = ok and 0 < ix < nx - 1 and 0 < iy < ny - 1
        ok = ok and pt["x"] == xs[ix] and pt["y"] == ys[iy]
    return ok, err, f"rate err {err:.3g}, {len(keys)} extremal nodes"


def _check_ftle(o, stdout, stderr, files):
    x, y, v = _read_field_csv(files[0], o["grid"])
    t = o["time"]
    if o["field"] == "saddle":
        denom = (1.0 - y * y) * math.exp(2.0 * t) + y * y
        lam2 = np.maximum(math.exp(2.0 * t), math.exp(4.0 * t) / denom**3)
    elif o["field"] == "normal_form":
        lam, c = o["lam"], o["c"]
        e1, e3 = math.exp(0.5 * lam * t), math.exp(1.5 * lam * t)
        f21 = -lam * t * e1 + 3.0 * (c / lam) * (e3 - e1) * x * x
        c11, c12, c22 = e1 * e1 + f21 * f21, f21 * e1, e1 * e1
        lam2 = 0.5 * (c11 + c22) + np.sqrt(0.25 * (c11 - c22) ** 2 + c12 * c12)
    else:
        return True, 0.0, "no closed form"
    ref = np.log(lam2) / (2.0 * abs(t))
    err = float(np.max(np.abs(v - ref)))
    return err <= FTLE_TOL, err, f"ftle err {err:.3g}"


def _check_pullback(o, stdout, stderr, files):
    lines = files[0].split("\n")
    pts = o["points"]
    if lines[0] != "x,y,value" or len(lines) != len(pts) + 2 or lines[-1]:
        raise ValueError("bad pullback CSV layout")
    err = 0.0
    for line, (px, py) in zip(lines[1:], pts):
        x, y, v = map(float, line.split(","))
        if (x, y) != (px, py):
            raise ValueError("pullback CSV point does not match the input")
        ref = px * px if o["field"] == "normal_form" else 3.0 * py * py / (1.0 - py * py)
        err = max(err, abs(v - ref))
    return err <= PULLBACK_TOL, err, f"pullback err {err:.3g}"


def _terms(items) -> dict:
    return {(t["i"], t["j"]): float(t["c"]) for t in items}


def _check_family(o, stdout, stderr, files):
    obj = json.loads(stdout)
    if obj["kind"] != "polynomial":
        raise ValueError("family output is not a polynomial field")
    err = 0.0
    for got, want in ((_terms(obj["p"]), o["p"]), (_terms(obj["q"]), o["q"])):
        for ij in set(got) | set(want):
            err = max(err, abs(got.get(ij, 0.0) - want.get(ij, 0.0)))
    return err <= COEFF_TOL, err, f"coefficient err {err:.3g}"


def _check_keig_zero(o, stdout, stderr, files):
    rep = json.loads(stdout)
    err = float(rep["max_abs_residual"])
    return err == 0.0 and rep["rms_residual"] == 0.0, err, "exact eigenpair"


def _check_keig_report(o, stdout, stderr, files):
    rep = json.loads(stdout)
    vals = (rep["lambda"], rep["max_abs_residual"], rep["rms_residual"])
    ok = all(math.isfinite(v) for v in vals) and isinstance(rep["samples"], int)
    return ok and 0.0 <= vals[2] <= vals[1], 0.0, "residual report"


def _check_carleman(o, stdout, stderr, files):
    rep = json.loads(stdout)
    lam, c, (x1, x2), t = o["lam"], o["c"], o["x0"], o["time"]
    e1, e3 = math.exp(0.5 * lam * t), math.exp(1.5 * lam * t)
    ref = (x1 * e1, e1 * (x2 - lam * t * x1) + (c / lam) * (e3 - e1) * x1**3)
    dev = [abs(rep["x1"] - ref[0]), abs(rep["x2"] - ref[1])]
    err = max(dev)
    ok = all(d <= CARLEMAN_TOL * max(1.0, abs(r)) for d, r in zip(dev, ref))
    ok = ok and 0.0 <= rep["s1_evolution_relative_error"] <= CARLEMAN_TOL
    return ok, err, f"lift err {err:.3g}"


def _check_series(o, stdout, stderr, files):
    rep = json.loads(stdout)
    n, y = o["n"], o["y"]
    coeffs = rep["coefficients"]
    if o["target"] == "y":
        ref = [math.comb(2 * j, j) * (-0.25) ** j / 3.0 ** (j + 0.5) for j in range(n)]
        ok = rep["eigenvalues"] == [-1.0 - 2.0 * j for j in range(n)]
    else:
        ref = [(-1.0 / 3.0) ** k for k in range(n)]
        u = y * y / (1.0 - y * y)
        ok = all(
            s["N"] == k and s["error"] <= 3.0 * u ** (k + 1) / (1.0 - u) * (1 + 1e-12) + 1e-15
            for k, s in enumerate(rep["partial_sums"], start=1)
        )
    if len(coeffs) != n or len(rep["partial_sums"]) != n:
        raise ValueError("series output has the wrong length")
    err = max(abs(a - b) for a, b in zip(coeffs, ref))
    return ok and err <= COEFF_TOL, err, f"series coefficient err {err:.3g}"


def _check_oned(o, stdout, stderr, files):
    rep = json.loads(stdout)
    ok = rep["lambda_trivial"] is o["trivial"]
    ok = ok and math.isfinite(rep["lambda_star"]) and rep["resnorm"] >= 0.0
    return ok, 0.0, "obstruction diagnostic"


def _check_error(o, stdout, stderr, files):
    return stdout == "" and stderr.startswith("error: "), 0.0, "expected error"


_CHECKS = {
    "ile": _check_ile,
    "ftle": _check_ftle,
    "pullback": _check_pullback,
    "family": _check_family,
    "keig_zero": _check_keig_zero,
    "keig_report": _check_keig_report,
    "carleman": _check_carleman,
    "series": _check_series,
    "oned": _check_oned,
    "error": _check_error,
}
