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
import numpy as np

from .errors import NumericalError
from .expr import _Record, format_float
from .vectorfield import VectorField2D


class _ArrayRecord(_Record):
    """A record whose fields may hold arrays: such a field compares with
    ``np.array_equal``, so ``==`` gives one bool, and hashing a record that
    holds an array raises TypeError."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                   else a == b for a, b in zip(self._fields(), other._fields()))

    __hash__ = _Record.__hash__


class SymTensor2(_ArrayRecord):
    """Symmetric 2x2 tensor (sxx, sxy, syy): floats, or arrays (elementwise)."""

    __slots__ = ("sxx", "sxy", "syy")

    def __init__(self, sxx: float, sxy: float, syy: float):
        self.sxx = sxx
        self.sxy = sxy
        self.syy = syy

    def eigenvalues(self):
        """(min, max) eigenvalue pair, via the closed-form quadratic.  The
        entries may be floats (floats come back) or arrays (elementwise)."""
        mean = 0.5 * (self.sxx + self.syy)
        d = self.sxx - self.syy
        rad = 0.5 * np.sqrt(d * d + 4.0 * self.sxy * self.sxy)
        if not isinstance(rad, np.ndarray):
            rad = float(rad)
        return (mean - rad, mean + rad)


class Grid2D(_Record):
    """Uniform rectangular grid; node (ix, iy) sits at (xs()[ix], ys()[iy])."""

    __slots__ = ("xmin", "xmax", "nx", "ymin", "ymax", "ny")

    def __init__(self, xmin: float, xmax: float, nx: int, ymin: float, ymax: float, ny: int):
        if nx < 2 or ny < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        if not (xmin < xmax and ymin < ymax):
            raise ValueError("grid bounds must satisfy xmin < xmax and ymin < ymax")
        if not (math.isfinite(xmax - xmin) and math.isfinite(ymax - ymin)):
            # np.linspace would put a NaN node on such an axis
            raise NumericalError("grid width or height overflows a double")
        self.xmin = xmin
        self.xmax = xmax
        self.nx = nx
        self.ymin = ymin
        self.ymax = ymax
        self.ny = ny

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


class ScalarField(_ArrayRecord):
    """Values sampled on a grid; ``values[iy, ix]`` matches node (ix, iy)."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid2D, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.ny, grid.nx):
            raise ValueError("value array shape does not match the grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("scalar field contains non-finite values")
        self.grid = grid
        self.values = values

    def min(self) -> float:
        return float(np.min(self.values))

    def max(self) -> float:
        return float(np.max(self.values))


def _finite_field(grid: Grid2D, values: np.ndarray, what: str) -> ScalarField:
    """``ScalarField(grid, values)``, but a non-finite value (an overflow
    from finite inputs) is a :class:`NumericalError`."""
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"{what} is not finite at some grid node")
    return ScalarField(grid, values)


def strain_tensor(f: VectorField2D, x: float, y: float) -> SymTensor2:
    """Symmetric part of the velocity gradient at a point, or elementwise
    over equal-shape arrays (a constant entry comes back as a float)."""
    a11, a12, a21, a22 = f.jacobian(x, y)
    return SymTensor2(a11, 0.5 * (a12 + a21), a22)


def strain_rates(f: VectorField2D, x: float, y: float) -> tuple[float, float]:
    """Attraction and repulsion rates (s1, s2) at a point; s1 <= s2 and
    s1 + s2 equals the divergence."""
    return strain_tensor(f, x, y).eigenvalues()


# The fewest nodes per thread and serial block of every sampled grid
# (rate_field and flowmap.ftle_field).  On 2 vCPUs, rates: threads 2 over
# threads 1 took 2.0-2.7x the time at 81x81 nodes and 0.9-1.9x at 121x121 when
# split, 0.6-0.9x at 161x161; serial blocks took 0.97, 0.88 and 0.61 of one
# array's time at 161x161, 201x201 and 301x301.  FTLE (~50x dearer per node;
# each block is one compiled plan call, which releases the interpreter lock):
# two threads took about as long as one below about 40,000 nodes.  Cubic,
# t = -0.05, medians of 21 interleaved, threads 1 / 2 in ms, with 12,288
# against 4,096 here: 101x101 6.4 / 6.5 against 6.5 / 7.1, 121x121 8.9 / 8.8
# against 9.7 / 10.1, 161x161 15.1 / 15.9 against 15.5 / 16.0; two threads pay
# off at 201x201 (24.1 / 14.9) and 251x251 (37.6 / 23.8).
_CHUNK_NODES = 12288


def _sample_grid(grid: Grid2D, fn, threads: int) -> np.ndarray:
    """``fn(xv, yv)`` over every node, as one ``(ny, nx)`` array.

    Each thread gets at least ``_CHUNK_NODES`` nodes.  The rows of n
    threads are cut into a multiple of n chunks of about n times that (at
    most 1.5 times, plus a row): a serial chunk stays in cache, and threads
    hold the GIL for a short part of theirs.  Each chunk's meshgrid goes to
    ``fn``, which must be elementwise: no cut shows.  A float result (an
    affine field's constant rate) fills its chunk.
    """
    xs, ys = grid.xs(), grid.ys()
    out = np.empty((grid.ny, grid.nx))
    threads = max(1, min(int(threads), grid.nx * grid.ny // _CHUNK_NODES))
    count = threads * max(1, round(grid.nx * grid.ny / (threads * threads * _CHUNK_NODES)))
    bounds = [round(grid.ny * i / count) for i in range(count + 1)]
    chunks = [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]

    def fill(chunk):
        r0, r1 = chunk
        yv, xv = np.meshgrid(ys[r0:r1], xs, indexing="ij")
        out[r0:r1] = fn(xv, yv)

    if threads == 1:
        list(map(fill, chunks))
    else:
        from concurrent.futures import ThreadPoolExecutor  # ~10 ms to load; serial grids skip it
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, chunks))
    return out


def rate_field(f: VectorField2D, grid: Grid2D, which: str = "s1", threads: int = 1) -> ScalarField:
    """Sample s1 or s2 on the grid: ``strain_rates`` at every node, one
    array call per row chunk, so a point's rate equals its node bit for bit.

    Per-node computation is pure, so the output is identical for any thread
    count (chunks only slice the row range; every elementwise operation is
    exactly rounded and position-independent).
    """
    if which not in ("s1", "s2"):
        raise ValueError("which must be 's1' or 's2'")
    k = 0 if which == "s1" else 1
    vals = _sample_grid(grid, lambda xv, yv: strain_rates(f, xv, yv)[k], threads)
    return _finite_field(grid, vals, f"{which} rate")


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

def axis_text(grid: Grid2D) -> tuple[list[str], list[str]]:
    """``format_float`` of every x and every y node coordinate: from the
    compiled text library, or one f-string each where none loads."""
    from . import _native_arrays  # loads ctypes, so only commands that write a grid pay for it

    return tuple(_native_arrays.axis_texts(v) or [format_float(c) for c in v.tolist()]
                 for v in (grid.xs(), grid.ys()))


def write_csv(f: ScalarField, stream) -> None:
    """Rows are emitted row-major: the y index varies slowest.  Every number
    is its ``format_float`` text; the rows come in blocks of bounded size
    from the compiled text library, or from one ``%`` per row where none
    loads."""
    from . import _native_arrays

    stream.write("x,y,value\n")
    blocks = _native_arrays.csv_blocks(f.values, f.grid.xs(), f.grid.ys())
    if blocks is None:
        # one template per row: "%.17g" is format_float's format; the axis texts hold no "%"
        xt, yt = axis_text(f.grid)
        row_text = "".join([x + ",\0,%.17g\n" for x in xt])
        blocks = (row_text.replace("\0", y) % tuple(row) for y, row in zip(yt, f.values.tolist()))
    for text in blocks:
        stream.write(text)


#: The text of each gray level.
_PIXEL_TEXT = tuple(map(str, range(256)))


def write_pgm(f: ScalarField, stream) -> None:
    """Plain (P2) PGM; values mapped affinely min -> 0, max -> 255, top row
    at ymax so the image is in conventional orientation.  The pixel rows
    come in one call of the compiled text library, or one join per row
    where none loads."""
    from . import _native_arrays

    lo, hi, values = f.min(), f.max(), f.values
    if math.isinf(hi - lo):
        # The span overflows; halving every value keeps it finite.
        lo, hi, values = 0.5 * lo, 0.5 * hi, 0.5 * values
    elif hi > lo and math.isinf(255.0 / (hi - lo)):
        # 255 / span overflows, so every value is below about 1e-289; scaling by 2^600 is exact.
        lo, hi, values = lo * 2.0**600, hi * 2.0**600, values * 2.0**600
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pixels = ((values - lo) * scale).round().astype(int)
    stream.write(f"P2\n{f.grid.nx} {f.grid.ny}\n255\n")
    rows = _native_arrays.pgm_rows(pixels)
    if rows is not None:
        stream.write(rows)
        return
    text = _PIXEL_TEXT
    for row in pixels[::-1].tolist():
        stream.write(" ".join([text[p] for p in row]) + "\n")
