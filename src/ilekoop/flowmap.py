"""Trajectory integration, flow-map gradients, Cauchy-Green tensors, FTLE.

Integration is classical fixed-step RK4 (deterministic, bit-reproducible);
the final partial step is shortened to land exactly on the requested time.
Every driver (``integrate``, ``flow_endpoint``, ``cauchy_green`` and the
pullback bisection in :mod:`ilekoop.koopman`) runs the field's one generated
step ``VectorField2D._rk4()``: P, Q and all four stages as straight-line
code that accumulates in place, the same source for floats and arrays of
one shape.  The pullback's fixed-step march runs the same stages, chained,
in one generated loop (``VectorField2D._rk4_march()``).
Flow-map gradients come from centered differences of four auxiliary
trajectories.  ``cauchy_green`` and ``ftle`` take a point or equal-shape
arrays of points, and ``ftle_field`` is ``ftle`` at every grid node, so a
point's FTLE equals its node bit for bit.  For the built-in saddle the
analytic Cauchy-Green tensor and FTLE are provided as oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .strain import Grid2D, ScalarField, SymTensor2, _sample_grid, _finite_field
from .vectorfield import VectorField2D, _check_domain

MAX_STEP_COUNT = 1e8

# ftle_field's fewest nodes per thread and serial block (strain._sample_grid).
# Cubic, 2 vCPUs: serial blocks ran 201x201 in 0.47 of one array's time;
# threads 2 over 1 is about even to 101x101, then 0.70-0.83 in its 6,144-node
# blocks (3,072-node blocks: 1.2-1.4; halves: 1.2 at 201x201).
_FTLE_CHUNK_NODES = 3072


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed RK4 step magnitude; integration direction follows sign(t)."""

    step: float = 1e-3

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("integrator step must be positive")


@dataclass
class Trajectory:
    """Sampled orbit; times run from 0 to t, strictly monotone either way."""

    times: list[float]
    states: list[tuple[float, float]]


def _step_plan(t: float, step: float) -> tuple[int, float]:
    """Number of full steps and the remainder so that n*step + r == |t|."""
    n = int(abs(t) / step)
    while n * step > abs(t):
        n -= 1
    r = abs(t) - n * step
    return n, r


def _check_step_budget(t: float, step: float) -> None:
    """Refuse NaN times and those needing more than MAX_STEP_COUNT steps."""
    if not abs(t) / step <= MAX_STEP_COUNT:
        raise ValueError(f"integration time {t!r} is not a number or needs more than 1e8 steps")


def _steps(t: float, step: float):
    """The RK4 plan from time 0 to t as (time reached, signed step) pairs."""
    _check_step_budget(t, step)
    n, r = _step_plan(t, step)
    h = math.copysign(step, t)
    last = [(t, math.copysign(r, t))] if r > 0.0 else []
    return itertools.chain(((i * h, h) for i in range(1, n + 1)), last)


def _advance(rk4, x, y, t: float, step: float):
    """Time-t endpoint of floats or arrays ``x, y`` under a field's RK4 step
    ``rk4`` (``VectorField2D._rk4()``), keeping no history."""
    for _, h in _steps(t, step):
        x, y = rk4(x, y, h)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NumericalError("trajectory became non-finite")
    return x, y


def integrate(
    f: VectorField2D, x0: tuple[float, float], t: float, cfg: IntegratorConfig
) -> Trajectory:
    """RK4 trajectory from time 0 to time t (t may be negative or zero)."""
    x, y = float(x0[0]), float(x0[1])
    traj = Trajectory([0.0], [(x, y)])
    rk4 = f._rk4()
    for tk, h in _steps(t, cfg.step):
        x, y = rk4(x, y, h)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NumericalError(f"trajectory became non-finite near t={tk}")
        traj.times.append(tk)
        traj.states.append((x, y))
    return traj


def flow_endpoint(
    f: VectorField2D, x0: tuple[float, float], t: float, cfg: IntegratorConfig
) -> tuple[float, float]:
    """Endpoint of the time-t flow; same stepping as integrate, no storage."""
    return _advance(f._rk4(), float(x0[0]), float(x0[1]), t, cfg.step)


def cauchy_green(
    f: VectorField2D, x0: tuple, t: float, delta: float, cfg: IntegratorConfig
) -> SymTensor2:
    """Right Cauchy-Green tensor from centered differences of the flow map.

    ``x0`` is a pair of floats (float entries; each offset trajectory runs
    through ``flow_endpoint``) or of equal-shape arrays (elementwise entries;
    the four offset families advance as one concatenated array).  The
    endpoints of the +x, -x, +y and -y offset trajectories give the gradient.
    A ``delta`` that leaves any offset seed on its node raises ValueError.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    x, y = x0
    if np.any((x + delta == x) | (x - delta == x) | (y + delta == y) | (y - delta == y)):
        raise ValueError(f"delta {delta!r} is too small: an offset seed rounds to its node")
    if isinstance(x, np.ndarray):
        xs = np.concatenate([x + delta, x - delta, x, x])
        ys = np.concatenate([y, y, y + delta, y - delta])
        ex, ey = _advance(f._rk4(), xs, ys, t, cfg.step)
        xp, xm, yp, ym = zip(np.split(ex, 4), np.split(ey, 4))
    else:
        seeds = ((x + delta, y), (x - delta, y), (x, y + delta), (x, y - delta))
        xp, xm, yp, ym = (flow_endpoint(f, s, t, cfg) for s in seeds)
    f11 = (xp[0] - xm[0]) / (2.0 * delta)
    f21 = (xp[1] - xm[1]) / (2.0 * delta)
    f12 = (yp[0] - ym[0]) / (2.0 * delta)
    f22 = (yp[1] - ym[1]) / (2.0 * delta)
    return SymTensor2(f11 * f11 + f21 * f21, f11 * f12 + f21 * f22, f12 * f12 + f22 * f22)


def ftle(
    f: VectorField2D, x0: tuple, t: float, delta: float, cfg: IntegratorConfig
) -> float | np.ndarray:
    """Finite-time Lyapunov exponent log(max C eigenvalue) / (2|t|): a float
    for a pair of floats, elementwise for a pair of arrays.  ``np.log`` is
    elementwise and position-independent, so a point's FTLE equals its grid
    node bit for bit.  C = F^T F is positive semidefinite, so its largest
    eigenvalue is 0 only where the flow-map gradient F underflowed to zero;
    the FTLE there is -inf (and ``ftle_field`` raises NumericalError)."""
    if t == 0.0:
        raise ValueError("FTLE needs a nonzero integration time")
    lam2 = cauchy_green(f, x0, t, delta, cfg).eigenvalues()[1]
    sigma = np.log(lam2) / (2.0 * abs(t))
    return sigma if isinstance(sigma, np.ndarray) else float(sigma)


def ftle_field(
    f: VectorField2D,
    grid: Grid2D,
    t: float,
    delta: float,
    cfg: IntegratorConfig,
    threads: int = 1,
) -> ScalarField:
    """``ftle`` at every grid node, one array call per row chunk.  ``ftle``
    is elementwise, so output bytes are identical for every thread count."""
    vals = _sample_grid(grid, lambda xv, yv: ftle(f, (xv, yv), t, delta, cfg), threads,
                        _FTLE_CHUNK_NODES)
    return _finite_field(grid, vals, "FTLE")


# -- analytic saddle oracles ------------------------------------------------------

def saddle_cauchy_green(pt: tuple[float, float], t: float) -> SymTensor2:
    """Closed-form Cauchy-Green tensor of the nonlinear saddle."""
    _check_domain(pt[1])
    y = pt[1]
    denom = (1.0 - y * y) * math.exp(2.0 * t) + y * y
    return SymTensor2(math.exp(2.0 * t), 0.0, math.exp(4.0 * t) / denom**3)


def saddle_ftle(pt: tuple[float, float], t: float) -> float:
    """Closed-form saddle FTLE tracking the y-direction stretching (the
    dominant direction in backward time away from |y| near 1)."""
    if t == 0.0:
        raise ValueError("FTLE needs a nonzero integration time")
    return -math.log(saddle_cauchy_green(pt, t).syy) / (2.0 * t)
