"""Rate-of-strain tensor, attraction/repulsion rates, and grid sampling.

The symmetric part of the velocity gradient has two real eigenvalues; the
smaller one (s1) is the attraction rate and the larger one (s2) the
repulsion rate.  Both come from closed forms, so no general eigensolver is
involved.  Grids are sampled into ScalarField values that can be written as
CSV or PGM; grid evaluation may be chunked across threads and is
bit-reproducible for any thread count because every node is computed by the
same elementwise operations.  Ridge/trench extraction is vectorized over the
whole grid with the same per-node operations, in the same order, as a
node-by-node loop, so it returns the same hit list.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .vectorfield import VectorField2D


@dataclass(frozen=True)
class SymTensor2:
    """Symmetric 2x2 tensor (sxx, sxy, syy)."""

    sxx: float
    sxy: float
    syy: float

    def eigenvalues(self):
        """(min, max) eigenvalue pair, via the closed-form quadratic.  The
        entries may be floats (floats come back) or arrays (elementwise)."""
        mean = 0.5 * (self.sxx + self.syy)
        d = self.sxx - self.syy
        rad = 0.5 * np.sqrt(d * d + 4.0 * self.sxy * self.sxy)
        if not isinstance(rad, np.ndarray):
            rad = float(rad)
        return (mean - rad, mean + rad)


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangular grid; node (ix, iy) sits at (xs()[ix], ys()[iy])."""

    xmin: float
    xmax: float
    nx: int
    ymin: float
    ymax: float
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("grid bounds must satisfy xmin < xmax and ymin < ymax")

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / (self.nx - 1)

    @property
    def dy(self) -> float:
        return (self.ymax - self.ymin) / (self.ny - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.ymin, self.ymax, self.ny)


@dataclass
class ScalarField:
    """Values sampled on a grid; ``values[iy, ix]`` matches node (ix, iy)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.ny, self.grid.nx):
            raise ValueError("value array shape does not match the grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scalar field contains non-finite values")

    def min(self) -> float:
        return float(np.min(self.values))

    def max(self) -> float:
        return float(np.max(self.values))


def strain_tensor(f: VectorField2D, x: float, y: float) -> SymTensor2:
    """Symmetric part of the velocity gradient at a point."""
    j = f.jacobian(x, y)
    return SymTensor2(j.a11, 0.5 * (j.a12 + j.a21), j.a22)


def strain_rates(f: VectorField2D, x: float, y: float) -> tuple[float, float]:
    """Attraction and repulsion rates (s1, s2) at a point; s1 <= s2 and
    s1 + s2 equals the divergence."""
    return strain_tensor(f, x, y).eigenvalues()


def _sample_grid(grid: Grid2D, fn, threads: int) -> np.ndarray:
    """``fn(xv, yv)`` over every node, as one ``(ny, nx)`` array.

    The rows are cut into one contiguous chunk per thread and ``fn`` gets
    each chunk's meshgrid.  ``fn`` must be elementwise, so that the result
    does not depend on the cut.
    """
    xs, ys = grid.xs(), grid.ys()
    out = np.empty((grid.ny, grid.nx))
    threads = max(1, int(threads))
    bounds = [round(grid.ny * i / threads) for i in range(threads + 1)]
    chunks = [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]

    def fill(chunk):
        r0, r1 = chunk
        yv, xv = np.meshgrid(ys[r0:r1], xs, indexing="ij")
        out[r0:r1] = fn(xv, yv)

    if len(chunks) == 1:
        fill(chunks[0])
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            list(pool.map(fill, chunks))
    return out


def rate_field(f: VectorField2D, grid: Grid2D, which: str = "s1", threads: int = 1) -> ScalarField:
    """Sample s1 or s2 on the grid.

    Per-node computation is pure, so the output is identical for any thread
    count (chunks only slice the row range; every elementwise operation is
    exactly rounded and position-independent).
    """
    if which not in ("s1", "s2"):
        raise ValueError("which must be 's1' or 's2'")
    k = 0 if which == "s1" else 1

    def rate(xv, yv):
        a11, a12, a21, a22 = f.jacobian_arrays(xv, yv)
        return SymTensor2(a11, 0.5 * (a12 + a21), a22).eigenvalues()[k]

    return ScalarField(grid, _sample_grid(grid, rate, threads))


def default_grad_tol(f: ScalarField) -> float:
    """Scale-aware gradient tolerance: 1e-2 * (value range) / (grid spacing)."""
    rng = f.max() - f.min()
    return 1e-2 * rng / min(f.grid.dx, f.grid.dy)


def extract_extremal_set(
    f: ScalarField,
    mode: str,
    grad_tol: float | None = None,
    curv_tol: float = 1e-6,
) -> list[tuple[int, int]]:
    """Grid-local ridge or trench nodes, row-major as (ix, iy) pairs.

    At each interior node the centered-difference Hessian is diagonalized;
    the eigenvector of the extreme eigenvalue is the transverse direction.
    A trench node needs transverse curvature above ``curv_tol`` and the
    gradient component along that direction below ``grad_tol``; a ridge is
    the mirrored test.  No sub-cell interpolation or curve linking is done.
    The eigenvector norm comes from ``math.hypot``: ``np.hypot`` may differ
    in the last bit and flip borderline nodes.
    """
    if mode not in ("ridge", "trench"):
        raise ValueError("mode must be 'ridge' or 'trench'")
    if f.grid.nx < 3 or f.grid.ny < 3:
        raise ValueError("extremal-set extraction needs at least a 3x3 grid")
    if grad_tol is None:
        grad_tol = default_grad_tol(f)
    v = f.values
    dx, dy = f.grid.dx, f.grid.dy
    c = v[1:-1, 1:-1]
    e, w = v[1:-1, 2:], v[1:-1, :-2]
    n, s = v[2:, 1:-1], v[:-2, 1:-1]
    with np.errstate(all="ignore"):
        hxx = (e - 2.0 * c + w) / (dx * dx)
        hyy = (n - 2.0 * c + s) / (dy * dy)
        hxy = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4.0 * dx * dy)
        trench = mode == "trench"
        lam = SymTensor2(hxx, hxy, hyy).eigenvalues()[1 if trench else 0]
        iy, ix = np.nonzero(lam > curv_tol if trench else lam < -curv_tol)
        lam, hxx, hyy, hxy = lam[iy, ix], hxx[iy, ix], hyy[iy, ix], hxy[iy, ix]
        gx = (e[iy, ix] - w[iy, ix]) / (2.0 * dx)
        gy = (n[iy, ix] - s[iy, ix]) / (2.0 * dy)
        off_diag = np.abs(hxy) > 1e-300
        along_x = np.abs(lam - hxx) <= np.abs(lam - hyy)
        vx = np.where(off_diag, hxy, np.where(along_x, 1.0, 0.0))
        vy = np.where(off_diag, lam - hxx, np.where(along_x, 0.0, 1.0))
        norm = np.fromiter(map(math.hypot, vx.tolist(), vy.tolist()), float, len(vx))
        hit = np.abs(gx * (vx / norm) + gy * (vy / norm)) < grad_tol
    return list(zip((ix[hit] + 1).tolist(), (iy[hit] + 1).tolist()))


# -- file formats ---------------------------------------------------------------

def format_float(v: float) -> str:
    """17 significant digits, enough to reproduce any double exactly."""
    if not math.isfinite(v):
        raise NumericalError(f"a result is not finite ({v!r})")
    return f"{v:.17g}"


def axis_text(grid: Grid2D) -> tuple[list[str], list[str]]:
    """``format_float`` of every x and every y node coordinate."""
    return ([format_float(v) for v in grid.xs().tolist()],
            [format_float(v) for v in grid.ys().tolist()])


def write_csv(f: ScalarField, stream) -> None:
    """Rows are emitted row-major: the y index varies slowest."""
    xt, yt = axis_text(f.grid)
    stream.write("x,y,value\n")
    for y, row in zip(yt, f.values.tolist()):
        # the value format is format_float's, inlined
        stream.write("".join([f"{x},{y},{v:.17g}\n" for x, v in zip(xt, row)]))


def write_pgm(f: ScalarField, stream) -> None:
    """Plain (P2) PGM; values mapped affinely min -> 0, max -> 255, top row
    at ymax so the image is in conventional orientation."""
    lo, hi, values = f.min(), f.max(), f.values
    if math.isinf(hi - lo):
        # The span overflows; halving every value keeps it finite.
        lo, hi, values = 0.5 * lo, 0.5 * hi, 0.5 * values
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pixels = ((values - lo) * scale).round().astype(int)
    stream.write(f"P2\n{f.grid.nx} {f.grid.ny}\n255\n")
    for row in pixels[::-1].tolist():
        stream.write(" ".join(map(str, row)) + "\n")
