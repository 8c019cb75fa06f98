"""Trajectory integration, flow-map gradients, Cauchy-Green tensors, FTLE.

Integration is classical fixed-step RK4 (deterministic, bit-reproducible);
the final partial step is shortened to land exactly on the requested time.
Every driver (``integrate`` and ``flow_endpoint``) runs the field's one
generated step ``VectorField2D._rk4()``: P, Q and all four stages as
chained straight-line code, the same source for floats and arrays.  The
pullback's fixed-step march and its bisection run the same stages in one
generated function (``VectorField2D._rk4("march")``, compiled where a
kernel loads), and ``cauchy_green`` runs the same statements with their
exact derivative between them (``VectorField2D._rk4("tangent")``), which
carries the four entries of the flow-map gradient beside each trajectory:
floats for a point, stepped by ``_advance``; for arrays of points, the
whole step plan runs in one compiled call with the same bits
(``VectorField2D._rk4("plan")``, see ``ilekoop._native_arrays``), and
``_advance`` steps them only where no kernel loads or the kernel stops at
an error, which ``_advance`` then raises.  ``cauchy_green`` and ``ftle``
take a point or equal-shape arrays of points, and ``ftle_field`` is
``ftle`` at every grid node, so a point's FTLE equals its node bit for bit.
For the built-in saddle the analytic Cauchy-Green tensor and FTLE are
provided as oracles.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import NumericalError
from .expr import _Record
from .strain import Grid2D, ScalarField, SymTensor2, _sample_grid, _finite_field
from .vectorfield import IntegratorConfig, VectorField2D, _check_domain, _check_step_budget

# _advance tests its state for non-finite values every this many steps, so an
# orbit that blows up stops within this many steps instead of running its plan.
_FINITE_CHECK_STEPS = 64

# ftle_field's fewest nodes per thread and serial block (strain._sample_grid).
# Each block is one compiled plan call, which releases the interpreter lock
# for the whole plan; yet on 2 vCPUs two threads took about as long as one
# below about 40,000 nodes.  Cubic, t = -0.05, medians of 21 interleaved,
# threads 1 / 2 in ms, with 12,288 against 4,096 here: 101x101 6.4 / 6.5
# against 6.5 / 7.1, 121x121 8.9 / 8.8 against 9.7 / 10.1, 161x161
# 15.1 / 15.9 against 15.5 / 16.0; two threads pay off at 201x201
# (24.1 / 14.9) and 251x251 (37.6 / 23.8).
_FTLE_CHUNK_NODES = 12288


class Trajectory(_Record):
    """Sampled orbit; times run from 0 to t, strictly monotone either way."""

    __slots__ = ("times", "states")

    def __init__(self, times: list[float], states: list[tuple[float, float]]):
        self.times = times
        self.states = states


def _step_plan(t: float, step: float) -> tuple[int, float]:
    """Number of full steps and the remainder so that n*step + r == |t|."""
    n = int(abs(t) / step)
    while n * step > abs(t):
        n -= 1
    r = abs(t) - n * step
    return n, r


def _signed_plan(t: float, step: float) -> tuple[int, float, float]:
    """``_step_plan`` toward t: n full steps of h = +-step, then one of r
    (0.0: none); refuses the times ``_check_step_budget`` refuses."""
    _check_step_budget(t, step)
    n, r = _step_plan(t, step)
    return n, math.copysign(step, t), math.copysign(r, t) if r > 0.0 else 0.0


def _steps(t: float, step: float):
    """The RK4 plan from time 0 to t as (time reached, signed step) pairs."""
    n, h, r = _signed_plan(t, step)
    last = [(t, r)] if r else []
    return itertools.chain(((i * h, h) for i in range(1, n + 1)), last)


def _advance(rk4, t: float, step: float, *state) -> tuple:
    """Time-t ``state`` (floats or arrays) under a generated step
    ``rk4(*state, h)`` (``VectorField2D._rk4()`` or ``_rk4("tangent")``),
    keeping no history; one that is not finite raises NumericalError."""
    for k, (_, h) in enumerate(_steps(t, step), 1):
        state = rk4(*state, h)
        if k % _FINITE_CHECK_STEPS == 0:
            _check_finite(state)
    _check_finite(state)
    return state


def _check_finite(state: tuple) -> None:
    if not all(np.isfinite(v).all() for v in state):
        raise NumericalError("trajectory became non-finite")


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
    return _advance(f._rk4(), t, cfg.step, float(x0[0]), float(x0[1]))


def cauchy_green(f: VectorField2D, x0: tuple, t: float, cfg: IntegratorConfig) -> SymTensor2:
    """Right Cauchy-Green tensor C = F^T F, where F, from the identity
    through the field's tangent step, is the exact gradient of the discrete
    RK4 flow map.  ``x0`` is a pair of floats (float entries) or of
    equal-shape arrays (elementwise entries).  Arrays run the whole plan in
    one compiled call (``VectorField2D._rk4("plan")``); floats, and every
    call the kernel does not take or stops in, run ``_advance``, which
    raises the errors."""
    x, y = x0
    arrays = isinstance(x, np.ndarray)
    grad = f._rk4("plan")(x, y, *_signed_plan(t, cfg.step)) if arrays else None
    if grad is None:
        one, zero = (np.ones(x.shape), np.zeros(x.shape)) if arrays else (1.0, 0.0)
        grad = _advance(f._rk4("tangent"), t, cfg.step, x, y, one, zero, zero, one)[2:]
    f11, f12, f21, f22 = grad
    return SymTensor2(f11 * f11 + f21 * f21, f11 * f12 + f21 * f22, f12 * f12 + f22 * f22)


def ftle(f: VectorField2D, x0: tuple, t: float, cfg: IntegratorConfig) -> float | np.ndarray:
    """Finite-time Lyapunov exponent log(max C eigenvalue) / (2|t|): a float
    for a pair of floats, elementwise for a pair of arrays.  ``np.log`` is
    elementwise and position-independent, so a point's FTLE equals its grid
    node bit for bit.  C = F^T F is positive semidefinite, so its largest
    eigenvalue is 0 only where the flow-map gradient F underflowed to zero;
    the FTLE there is -inf (and ``ftle_field`` raises NumericalError)."""
    if t == 0.0:
        raise ValueError("FTLE needs a nonzero integration time")
    lam2 = cauchy_green(f, x0, t, cfg).eigenvalues()[1]
    with np.errstate(divide="ignore"):
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
    """``ftle`` at every grid node, one array call per row chunk, each of
    which runs its whole RK4 plan in one compiled call where a kernel loads.
    ``ftle`` is elementwise, so output bytes are identical for every thread
    count.  ``delta`` is ignored, kept only for callers that still pass it."""
    vals = _sample_grid(grid, lambda xv, yv: ftle(f, (xv, yv), t, cfg), threads,
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
    """Closed-form saddle FTLE: log of the larger eigenvalue of the diagonal
    ``saddle_cauchy_green``, over 2|t|.  The y-direction dominates in
    backward time away from |y| near 1; in forward time the x-direction can."""
    if t == 0.0:
        raise ValueError("FTLE needs a nonzero integration time")
    c = saddle_cauchy_green(pt, t)
    return math.log(max(c.sxx, c.syy)) / (2.0 * abs(t))
