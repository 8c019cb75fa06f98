"""Planar autonomous polynomial vector fields and the built-in nonlinear saddle.

A field is a polynomial pair ``(p, q)``.  The cubic nonlinear saddle
``(x, -y + y^3)`` is one, plus a guard: outside ``|y| < 1`` its evaluation
raises :class:`DomainError`.  Its explicit flow is the oracle for the
numerical integrator and the finite-time stretching computations.  The name
``"saddle"`` is only an alias in field JSON and on the command line.
The RK4 step settings (``IntegratorConfig`` and the step budget) live here
too, so the pullback's float march runs without :mod:`ilekoop.flowmap` and
numpy.
"""

from __future__ import annotations

import math
from .errors import DomainError
from .expr import Poly2, _Record, _field_rk4

# The explicit saddle solution is singular at |y| = 1; stay strictly inside.
SADDLE_Y_BOUND = 1.0 - 1e-12

MAX_STEP_COUNT = 1e8


class IntegratorConfig(_Record):
    """Fixed RK4 step magnitude; integration direction follows sign(t)."""

    __slots__ = ("step",)

    def __init__(self, step: float = 1e-3):
        if not step > 0.0:
            raise ValueError("integrator step must be positive")
        self.step = step


def _check_step_budget(t: float, step: float) -> None:
    """Refuse NaN times and those needing more than MAX_STEP_COUNT steps."""
    if not abs(t) / step <= MAX_STEP_COUNT:
        raise ValueError(f"integration time {t!r} is not a number or needs more than 1e8 steps")


class VectorField2D:
    """The planar autonomous polynomial field ``(p, q)``.  Only the saddle
    (``is_saddle``) is guarded: its evaluation raises :class:`DomainError`
    outside ``|y| < 1``."""

    __slots__ = ("p", "q", "is_saddle", "_jac", "_step", "_tangent", "_march")

    def __init__(self, p: Poly2, q: Poly2):
        self.p = p
        self.q = q
        self.is_saddle = False
        self._jac = (p.diff("x"), p.diff("y"), q.diff("x"), q.diff("y"))
        self._step = self._tangent = self._march = None

    @classmethod
    def saddle(cls) -> "VectorField2D":
        f = cls(Poly2({(1, 0): 1.0}), Poly2({(0, 1): -1.0, (0, 3): 1.0}))
        f.is_saddle = True
        return f

    # -- evaluation: floats or float arrays ----------------------------------

    def evaluate(self, x, y) -> tuple:
        if self.is_saddle:
            _check_domain(y)
        return (self.p.evaluate(x, y), self.q.evaluate(x, y))

    def jacobian(self, x, y) -> tuple:
        """(dP/dx, dP/dy, dQ/dx, dQ/dy) at ``(x, y)``; a constant one is a float."""
        if self.is_saddle:
            _check_domain(y)
        return tuple(d.evaluate(x, y) for d in self._jac)

    # Kept only for bench/layers.py, which patches these names; ROADMAP item 5
    # deletes them with those patches.
    evaluate_arrays, jacobian_arrays = evaluate, jacobian

    def _rk4(self):
        """The field's generated RK4 step ``step(x, y, h) -> (x, y)`` for
        floats or float arrays, built on first use.  On the saddle every
        stage runs :func:`_check_domain` on its y first."""
        step = self._step
        if step is None:
            step = self._step = _field_rk4(
                (self.p, self.q), "step", _check_domain if self.is_saddle else None)
        return step

    def _rk4_tangent(self):
        """The :meth:`_rk4` step with its exact derivative applied to the
        four entries of the flow-map gradient, ``tangent(x, y, f11, f12, f21,
        f22, h) -> (x, y, f11, f12, f21, f22)`` (see ``expr._kernel_factory``),
        built on first use.  Floats run the generated Python step at float
        cost; the first array call loads the same step compiled
        (``ilekoop._native``), which gives the same bits, and every array
        call after it goes there."""
        tangent = self._tangent
        if tangent is None:
            polys = (self.p, self.q, *self._jac)
            python = _field_rk4(polys, "tangent", _check_domain if self.is_saddle else None)
            bound, compiled = SADDLE_Y_BOUND if self.is_saddle else None, []

            def tangent(x, y, f11, f12, f21, f22, h):
                if type(x) is float:
                    return python(x, y, f11, f12, f21, f22, h)
                if not compiled:
                    from ._native import array_tangent
                    compiled.append(array_tangent(polys, bound, python))
                return compiled[0](x, y, f11, f12, f21, f22, h)

            self._tangent = tangent
        return tangent

    def _rk4_march(self):
        """The field's generated fixed-step crossing search
        ``march(x, y, h, n, d_prev, ux, uy, bx, by)`` over floats (see
        ``expr._kernel_factory``), built on first use.  It takes the steps of
        :meth:`_rk4` bit for bit; on the saddle a stage whose y leaves
        ``|y| < SADDLE_Y_BOUND`` ends the march with None where the step
        raises :class:`DomainError`."""
        march = self._march
        if march is None:
            march = self._march = _field_rk4(
                (self.p, self.q), "march", SADDLE_Y_BOUND if self.is_saddle else None)
        return march


def _check_domain(y) -> None:
    """The saddle guard: :class:`DomainError` unless ``|y| < SADDLE_Y_BOUND``
    for the float ``y`` (the message names it) or every entry of the array.
    An inside float costs one comparison: it runs four times per RK4 step.
    No numpy: arrays and numpy scalars compare to an object with ``all()``,
    and of the two only an array has a length (and goes unnamed)."""
    inside = abs(y) < SADDLE_Y_BOUND
    if inside is not True and (inside is False or not inside.all()):
        raise DomainError("saddle field is only defined for |y| < 1"
                          + ("" if hasattr(y, "__len__") else f" (got y={y!r})"))


def shear_free_defect(f: VectorField2D) -> Poly2:
    """Return du/dy + dv/dx as an exact polynomial.

    The zero polynomial means the strain tensor is diagonal, i.e. the field
    has no shear component.
    """
    return f.p.diff("y") + f.q.diff("x")


def analytic_saddle_flow(pt: tuple[float, float], t: float) -> tuple[float, float]:
    """Exact time-t flow of the nonlinear saddle starting from ``pt``."""
    x, y = pt
    _check_domain(y)
    denom = math.sqrt((1.0 - y * y) * math.exp(2.0 * t) + y * y)
    return (x * math.exp(t), y / denom)


# -- JSON wire format ----------------------------------------------------------

def field_to_json(f: VectorField2D) -> dict:
    if f.is_saddle:
        return {"kind": "saddle"}
    return {"kind": "polynomial", "p": f.p.to_json_terms(), "q": f.q.to_json_terms()}


def field_from_json(obj) -> VectorField2D:
    """Field from its JSON form; raises ValueError on anything malformed."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "saddle":
        return VectorField2D.saddle()
    if kind == "polynomial":
        p, q = obj.get("p"), obj.get("q")
        if not (isinstance(p, list) and isinstance(q, list)):
            raise ValueError("polynomial field needs term lists 'p' and 'q'")
        return VectorField2D(Poly2.from_json_terms(p), Poly2.from_json_terms(q))
    raise ValueError(f"unknown field kind {kind!r}")
