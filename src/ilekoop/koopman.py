"""Composition-operator machinery: generator, eigenfunction tests, pullback.

An eigenpair (lam, g) of the composition operator of a flow satisfies
v . grad(g) = lam * g.  For polynomial observables on polynomial fields the
residual of that identity is an exact polynomial; for closed-form
observables it is evaluated pointwise with analytic gradients.  New
eigenfunctions are constructed by pulling a data function back along the
flow to a line and scaling by exp(lam * time-of-flight).  The saddle's
closed-form eigenfunctions live in :mod:`ilekoop.series`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, NoCrossingError
from .expr import Poly2
from .flowmap import IntegratorConfig, _check_step_budget, flow_endpoint
from .vectorfield import VectorField2D, shear_free_defect

#: Step used by the fourth-order finite-difference gradient fallback.
_FD_STEP = 1e-4


class TangentialCrossingWarning(UserWarning):
    """The orbit met the data surface nearly tangentially; the located
    crossing time is low-confidence."""


@dataclass(frozen=True)
class KeigCandidate:
    """An observable paired with a trial eigenvalue.

    ``g`` may be a Poly2, an object with ``value(x, y)`` and optionally
    ``gradient(x, y)`` methods, or a plain callable ``(x, y) -> float``.
    """

    g: object
    lam: float


def observable_value(g, x: float, y: float) -> float:
    if isinstance(g, Poly2):
        return g.evaluate(x, y)
    if hasattr(g, "value"):
        return g.value(x, y)
    return g(x, y)


def observable_gradient(g, x: float, y: float) -> tuple[float, float]:
    if isinstance(g, Poly2):
        return (g.diff("x").evaluate(x, y), g.diff("y").evaluate(x, y))
    if hasattr(g, "gradient"):
        return g.gradient(x, y)
    return (_fd_partial(g, x, y, 0), _fd_partial(g, x, y, 1))


def _fd_partial(g, x, y, axis):
    # 5-point centered stencil, O(h^4).
    h = _FD_STEP

    def val(offset):
        return observable_value(g, x + offset if axis == 0 else x, y + offset if axis == 1 else y)

    return (-val(2 * h) + 8.0 * val(h) - 8.0 * val(-h) + val(-2 * h)) / (12.0 * h)


def generator_apply(f: VectorField2D, g: Poly2) -> Poly2:
    """Exact action of the generator v . grad on a polynomial observable."""
    if not isinstance(g, Poly2):
        raise TypeError("generator_apply needs a polynomial observable")
    p, q = f.polynomial_components()
    return p * g.diff("x") + q * g.diff("y")


def keig_residual(f: VectorField2D, cand: KeigCandidate):
    """Residual v . grad(g) - lam * g.

    Returns an exact Poly2 when the observable is polynomial; otherwise a
    pointwise callable ``(x, y) -> float`` using analytic gradients when the
    observable provides them.
    """
    if isinstance(cand.g, Poly2):
        return generator_apply(f, cand.g) - cand.lam * cand.g

    def residual(x: float, y: float) -> float:
        return _generator_at(f, cand.g, x, y) - cand.lam * observable_value(cand.g, x, y)

    return residual


def _generator_at(f: VectorField2D, g, x: float, y: float) -> float:
    """v . grad(g) at one point, for any observable."""
    u, v = f.evaluate(x, y)
    gx, gy = observable_gradient(g, x, y)
    return u * gx + v * gy


def rms(values) -> float:
    """Root mean square of a sequence of numbers; 0.0 when it is empty."""
    values = list(values)
    return math.sqrt(sum(v * v for v in values) / len(values)) if values else 0.0


def residual_report(f: VectorField2D, cand: KeigCandidate, points) -> dict:
    """Sampled residual summary in the CLI report shape."""
    res = keig_residual(f, cand)
    vals = [observable_value(res, x, y) for x, y in points]
    return {
        "lambda": cand.lam,
        "max_abs_residual": max((abs(v) for v in vals), default=0.0),
        "rms_residual": rms(vals),
        "samples": len(vals),
    }


def best_lambda(f: VectorField2D, g, samples) -> tuple[float, float]:
    """Least-squares eigenvalue over the samples and the RMS residual there.

    lam* = sum(Lg * g) / sum(g^2); errors if g vanishes at every sample.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("need at least 2 sample points")
    lg = generator_apply(f, g) if isinstance(g, Poly2) else lambda x, y: _generator_at(f, g, x, y)
    lg_vals = [observable_value(lg, x, y) for x, y in samples]
    g_vals = [observable_value(g, x, y) for x, y in samples]
    den = sum(gv * gv for gv in g_vals)
    if den == 0.0:
        raise ValueError("observable vanishes at every sample point")
    lam_star = sum(lv * gv for lv, gv in zip(lg_vals, g_vals)) / den
    return lam_star, rms(lv - lam_star * gv for lv, gv in zip(lg_vals, g_vals))


def evolution_check(
    f: VectorField2D,
    cand: KeigCandidate,
    x0: tuple[float, float],
    t: float,
    cfg: IntegratorConfig,
) -> float:
    """Relative defect |g(F_t x0) - e^{lam t} g(x0)| / |g(x0)| along the
    RK4 flow."""
    g0 = observable_value(cand.g, *x0)
    if g0 == 0.0:
        raise ValueError("observable vanishes at the start point")
    xt = flow_endpoint(f, x0, t, cfg)
    gt = observable_value(cand.g, *xt)
    return abs(gt - math.exp(cand.lam * t) * g0) / abs(g0)


# ---------------------------------------------------------------------------
# Pullback construction on a line data surface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataSurface:
    """A line carrying initial data: base point, unit direction, and a data
    function of the signed arclength parameter along the line."""

    base: tuple[float, float]
    direction: tuple[float, float]
    h: Callable[[float], float]

    def __post_init__(self):
        dx, dy = self.direction
        norm = math.hypot(dx, dy)
        if norm == 0.0:
            raise ValueError("surface direction must be nonzero")
        object.__setattr__(self, "direction", (dx / norm, dy / norm))

    def signed_distance(self, x: float, y: float) -> float:
        ux, uy = self.direction
        return -uy * (x - self.base[0]) + ux * (y - self.base[1])

    def parameter(self, x: float, y: float) -> float:
        ux, uy = self.direction
        return ux * (x - self.base[0]) + uy * (y - self.base[1])

    def point_at(self, s: float) -> tuple[float, float]:
        ux, uy = self.direction
        return (self.base[0] + s * ux, self.base[1] + s * uy)


def pullback_eigenfunction(
    f: VectorField2D,
    surf: DataSurface,
    lam: float,
    x: tuple[float, float],
    cfg: IntegratorConfig,
    t_max: float = 50.0,
) -> float:
    """Evaluate the eigenfunction h(s*) * exp(lam * r*) at ``x``, where r* is
    the pullback time-of-flight to the data surface.

    The backward orbit is searched first; if it never meets the line within
    ``t_max``, the forward orbit is searched and r* comes out negative.
    Points already on the line return h(s) exactly.  Crossings are bracketed
    at step boundaries and bisected to a time tolerance of 1e-10.
    """
    if not t_max > 0.0:
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    _check_step_budget(t_max, cfg.step)
    d0 = surf.signed_distance(*x)
    if d0 == 0.0:
        return surf.h(surf.parameter(*x))
    for time_sign in (-1.0, 1.0):
        found = _first_crossing(f, surf, x, d0, cfg, t_max, time_sign)
        if found is not None:
            tau, state = found
            r_star = -time_sign * tau
            s_star = surf.parameter(*state)
            _warn_if_tangential(f, surf, state)
            return surf.h(s_star) * math.exp(lam * r_star)
    raise NoCrossingError(
        f"orbit from {x} does not reach the data surface within {t_max} time units"
    )


def _first_crossing(f, surf, x, d_prev, cfg, t_max, time_sign):
    """March along F_{time_sign * tau} in fixed steps and bisect the first
    sign change of the signed distance.  Returns (tau, state) or None;
    leaving the field's domain (or blowing up) ends the search window."""
    h = time_sign * cfg.step
    steps = int(math.ceil(t_max / cfg.step))
    rk4 = f._rk4()
    prev_state = (float(x[0]), float(x[1]))
    for k in range(1, steps + 1):
        try:
            state = rk4(prev_state[0], prev_state[1], h)
        except DomainError:
            return None
        if not (math.isfinite(state[0]) and math.isfinite(state[1])):
            return None
        d = surf.signed_distance(*state)
        if d == 0.0:
            tau = k * cfg.step
        elif d * d_prev < 0.0:
            lo, hi = 0.0, cfg.step
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                st = rk4(prev_state[0], prev_state[1], time_sign * mid)
                dm = surf.signed_distance(*st)
                if dm == 0.0:
                    lo = hi = mid
                elif dm * d_prev < 0.0:
                    hi = mid
                else:
                    lo = mid
            mid = 0.5 * (lo + hi)
            tau = (k - 1) * cfg.step + mid
            state = rk4(prev_state[0], prev_state[1], time_sign * mid)
        else:
            d_prev, prev_state = d, state
            continue
        # The last whole step may end past t_max; a crossing there is none.
        return (tau, state) if tau <= t_max else None
    return None


def _warn_if_tangential(f, surf, state):
    u, v = f.evaluate(*state)
    ux, uy = surf.direction
    transverse = -uy * u + ux * v
    if abs(transverse) < 1e-8 * (1.0 + math.hypot(u, v)):
        warnings.warn(
            "orbit crosses the data surface nearly tangentially; "
            "pullback value is low-confidence",
            TangentialCrossingWarning,
        )


# ---------------------------------------------------------------------------
# Eigenfunction conditions on shear-free fields
# ---------------------------------------------------------------------------

def keig_condition_residual(f: VectorField2D, which: str, lam: float) -> Poly2:
    """Exact residual of the condition making a strain rate an eigenfunction
    of a shear-free polynomial field.

    For the repulsion rate: u*u_xx + v*u_xy - lam*u_x.
    For the attraction rate: u*v_xy + v*v_yy - lam*v_y.
    """
    if not shear_free_defect(f).is_zero():
        raise ValueError("field is not shear-free; the rate conditions do not apply")
    p, q = f.polynomial_components()
    if which == "s2":
        rate = p.diff("x")
    elif which == "s1":
        rate = q.diff("y")
    else:
        raise ValueError("which must be 's1' or 's2'")
    return keig_residual(f, KeigCandidate(rate, lam))
