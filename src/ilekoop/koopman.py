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
import sys
import warnings
from collections.abc import Callable

from .errors import NoCrossingError
from .expr import Poly2, _Record
from .vectorfield import (IntegratorConfig, VectorField2D, _check_domain, _check_step_budget,
                          shear_free_defect)

#: Step used by the fourth-order finite-difference gradient fallback.
_FD_STEP = 1e-4


class TangentialCrossingWarning(UserWarning):
    """The orbit met the data surface nearly tangentially; the located
    crossing time is low-confidence."""


class KeigCandidate(_Record):
    """An observable paired with a trial eigenvalue.

    ``g`` may be a Poly2, an object with ``value(x, y)`` and optionally
    ``gradient(x, y)`` methods, or a plain callable ``(x, y) -> float``.
    """

    __slots__ = ("g", "lam")

    def __init__(self, g: object, lam: float):
        self.g = g
        self.lam = lam


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
    return f.p * g.diff("x") + f.q * g.diff("y")


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
    """Sampled residual summary in the CLI report shape.  On the saddle a
    sample outside its strip raises :class:`DomainError`, as evaluating the
    field there does."""
    points = list(points)
    if f.is_saddle:
        for _, y in points:
            _check_domain(y)
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
    from .flowmap import flow_endpoint
    g0 = observable_value(cand.g, *x0)
    if g0 == 0.0:
        raise ValueError("observable vanishes at the start point")
    xt = flow_endpoint(f, x0, t, cfg)
    gt = observable_value(cand.g, *xt)
    return abs(gt - math.exp(cand.lam * t) * g0) / abs(g0)


# ---------------------------------------------------------------------------
# Pullback construction on a line data surface
# ---------------------------------------------------------------------------

class DataSurface(_Record):
    """A line carrying initial data: base point, unit direction, and a data
    function of the signed arclength parameter along the line."""

    __slots__ = ("base", "direction", "h")

    def __init__(self, base: tuple[float, float], direction: tuple[float, float],
                 h: Callable[[float], float]):
        dx, dy = direction
        norm = math.hypot(dx, dy)
        if norm == 0.0:
            raise ValueError("surface direction must be nonzero")
        if not sys.float_info.min <= norm < math.inf:  # overflowed or subnormal
            big = max(abs(dx), abs(dy))
            dx, dy = dx / big, dy / big
            norm = math.hypot(dx, dy)
        self.base = base
        self.direction = (dx / norm, dy / norm)
        self.h = h

    def signed_distance(self, x: float, y: float) -> float:
        ux, uy = self.direction
        return -uy * (x - self.base[0]) + ux * (y - self.base[1])

    def parameter(self, x: float, y: float) -> float:
        ux, uy = self.direction
        return ux * (x - self.base[0]) + uy * (y - self.base[1])


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
    Points already on the line return h(s) exactly, but on the saddle only
    inside its strip.  Crossings are bracketed at step boundaries and
    bisected to a time tolerance of 1e-10.
    """
    if not t_max > 0.0:
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    _check_step_budget(t_max, cfg.step)
    if f.is_saddle:
        _check_domain(x[1])
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
    """The first crossing of the line along F_{time_sign * tau}, as (tau,
    state), or None.  The field's generated march (compiled where a kernel
    loads) runs the whole search: fixed steps to the first sign change of
    the signed distance, then the bisection of that step.  Leaving the
    field's domain (or blowing up) in the march ends the search window; a
    bisection stage outside it raises DomainError."""
    found = f._rk4("march")(float(x[0]), float(x[1]), cfg.step, time_sign,
                            int(math.ceil(t_max / cfg.step)), d_prev, *surf.direction, *surf.base)
    if found is None:
        return None
    whole, mid, sx, sy = found
    tau = whole * cfg.step + mid
    # The last whole step may end past t_max; a crossing there is none.
    return (tau, (sx, sy)) if tau <= t_max else None


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
    if which == "s2":
        rate = f.p.diff("x")
    elif which == "s1":
        rate = f.q.diff("y")
    else:
        raise ValueError("which must be 's1' or 's2'")
    return keig_residual(f, KeigCandidate(rate, lam))
