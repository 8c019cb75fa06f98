"""Planar autonomous polynomial vector fields and the built-in nonlinear saddle.

A field is a polynomial pair ``(p, q)``.  The cubic nonlinear saddle
``(x, -y + y^3)`` is one, plus a guard: outside ``|y| < 1`` its evaluation
raises :class:`DomainError`.  Its explicit flow is the oracle for the
numerical integrator and the finite-time stretching computations.  The name
``"saddle"`` is only an alias in field JSON and on the command line.
The RK4 code lives here too: the step settings (``IntegratorConfig`` and
the step budget) and the generator of every field's step, tangent step and
pullback march (:func:`_rk4_factory`), all three from one list of chained
statements (:func:`_rk4_lines`, which ``ilekoop._native`` also emits as C),
with the saddle's bound written into the source.  So the pullback's float
march runs without :mod:`ilekoop.flowmap` and numpy.
"""

from __future__ import annotations

import functools
import math
from .errors import DomainError
from .expr import Poly2, _Record, _compile, _eval_lines, _shape

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

    __slots__ = ("p", "q", "is_saddle", "_jac", "_rk4s")

    def __init__(self, p: Poly2, q: Poly2):
        self.p = p
        self.q = q
        self.is_saddle = False
        self._jac = (p.diff("x"), p.diff("y"), q.diff("x"), q.diff("y"))
        self._rk4s = {}

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

    # Kept only for bench/layers.py, which patches these names; ROADMAP item 6
    # deletes them with those patches.
    evaluate_arrays, jacobian_arrays = evaluate, jacobian

    def _rk4(self, mode: str = "step"):
        """The field's generated ``"step"``, ``"tangent"`` or ``"march"``
        (see :func:`_rk4_factory`), built on first use and kept.  The tangent
        runs floats in the generated Python step at float cost; its first
        array call loads the same step compiled (``ilekoop._native``), which
        gives the same bits, and every array call after it goes there."""
        rk4 = self._rk4s.get(mode)
        if rk4 is None:
            polys = (self.p, self.q, *self._jac) if mode == "tangent" else (self.p, self.q)
            shapes, coeffs = _field_terms(polys)
            saddle = self.is_saddle
            rk4 = python = _rk4_factory(shapes, mode, saddle)(*coeffs)
            if mode == "tangent":
                compiled = []

                def rk4(x, y, f11, f12, f21, f22, h):
                    if type(x) is float:
                        return python(x, y, f11, f12, f21, f22, h)
                    if not compiled:
                        from ._native import array_tangent
                        compiled.append(array_tangent(shapes, coeffs, saddle, python))
                    return compiled[0](x, y, f11, f12, f21, f22, h)

            self._rk4s[mode] = rk4
        return rk4


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


# -- generated RK4 code ----------------------------------------------------------

#: The step sizes every generated RK4 function binds before its stages.
_STEP_SIZES = ["hh = 0.5 * h", "h6 = h / 6.0"]

#: ``SADDLE_Y_BOUND`` as source text; it reads back as the same float.
_BOUND = repr(SADDLE_Y_BOUND)


def _rk4_lines(shapes, guard: str | None) -> list[str]:
    """Source of one classical RK4 step of the field whose components (P, Q)
    have the term structures ``shapes``, from ``(x, y)`` into ``(xn, yn)``
    with ``hh = 0.5*h`` and ``h6 = h/6.0`` bound: k1 = F(x, y),
    k2 = F(x + hh*k1), k3 = F(x + hh*k2), k4 = F(x + h*k3), then
    x + h6*(k1 + 2*k2 + 2*k3 + k4).  ``guard``, if given, is a line with a
    ``{y}`` slot that runs on each stage's y before F is evaluated there.
    Four more shapes, those of J = (P_x, P_y, Q_x, Q_y), also step the
    flow-map gradient entries ``f11, f12, f21, f22`` into ``f11n`` ...
    ``f22n``: stage k takes G_k = J(stage k)*(F + c*h*G_(k-1)), entry by
    entry ``g{r}{j}_k = J_r1*F_1j + J_r2*F_2j`` with no product for a zero
    entry of J, and the result is F + h6*(G1 + 2*G2 + 2*G3 + G4).  Those
    lines only add to the step's: the step's own statements run unchanged
    and in order.  Every statement is chained (``a = b + c * d``), so it
    never writes into an input, and is also a C statement."""
    jac = list(zip(["px", "py", "qx", "qy"], shapes[2:]))  # J_11, J_12, J_21, J_22
    entries = [(r, j) for r in (1, 2) for j in (1, 2)] if jac else []
    pairs = [("x", "u"), ("y", "v")] + [(f"f{r}{j}", f"g{r}{j}_") for r, j in entries]
    lines = []
    for k, scale in enumerate((None, "hh", "hh", "h"), 1):
        lines += [f"{z}s = {z} + {scale} * {u}{k - 1}" for z, u in pairs] if scale else []
        xv, yv = ("xs", "ys") if scale else ("x", "y")
        lines += [guard.format(y=yv)] if guard else []
        lines += _eval_lines(shapes, [f"u{k}", f"v{k}"] + [f"{d}{k}" for d, _ in jac], xv, yv)
        lines += [f"g{r}{j}_{k} = " + (" + ".join(
            f"{d}{k} * f{i}{j}{'s' * bool(scale)}"
            for i, (d, shape) in enumerate(jac[2 * r - 2:2 * r], 1) if shape) or "0.0")
            for r, j in entries]
    return lines + [f"{z}n = {z} + h6 * ({u}1 + 2.0 * {u}2 + 2.0 * {u}3 + {u}4)" for z, u in pairs]


@functools.lru_cache(maxsize=256)
def _rk4_factory(shapes: tuple, mode: str, saddle: bool):
    """The factory, over the coefficients in :func:`_field_terms` order, of
    the generated RK4 function ``mode`` of the field whose components have
    the term structures ``shapes``:

    - ``"step"``: (P, Q) give one RK4 step ``step(x, y, h) -> (x, y)``:
      :data:`_STEP_SIZES` and :func:`_rk4_lines`.  Every operation is
      elementwise, so floats and float arrays run the same source and agree
      bit for bit.
    - ``"tangent"``: (P, Q, P_x, P_y, Q_x, Q_y) give ``"step"`` with its
      derivative, ``tangent(x, y, f11, f12, f21, f22, h) -> (x, y, f11,
      f12, f21, f22)``: six floats, or six arrays of x's shape, with the
      flow-map gradient F as its four entries.  Its statements are the
      step's with the gradient's between them, and ``ilekoop._native``
      emits the same list as C.
    - ``"march"``: the same steps in a loop over floats,
      ``march(x, y, h, n, d_prev, ux, uy, bx, by)``.  Step k = 1..n
      returns None if its state is not finite (x - x == 0.0 fails only for
      inf and NaN), and otherwise takes the signed distance
      d = -uy*(xn - bx) + ux*(yn - by) to the line through (bx, by) along
      (ux, uy).  The first step with d == 0.0 or d*d_prev < 0.0 returns
      ``(k, x, y, xn, yn, d_prev, d)``; no such step gives None.

    ``saddle`` guards each stage's y before F is evaluated there: the step
    and the tangent call :func:`_check_domain`, and the march returns None
    unless ``-SADDLE_Y_BOUND < y < SADDLE_Y_BOUND``, the bound written into
    the source."""
    if mode == "march":
        loop = _rk4_lines(shapes, f"if not -{_BOUND} < {{y}} < {_BOUND}: return None"
                          if saddle else None)
        loop += ["if not (xn - xn == 0.0 and yn - yn == 0.0): return None",
                 "d = -uy * (xn - bx) + ux * (yn - by)",
                 "if d == 0.0 or d * d_prev < 0.0: return k, x, y, xn, yn, d_prev, d",
                 "x, y, d_prev = xn, yn, d"]
        return _compile(shapes, "march(x, y, h, n, d_prev, ux, uy, bx, by)",
                        _STEP_SIZES + ["for k in range(1, n + 1):"]
                        + [f"    {line}" for line in loop] + ["return None"])
    state = ["x", "y"] + (["f11", "f12", "f21", "f22"] if mode == "tangent" else [])
    body = _STEP_SIZES + _rk4_lines(shapes, "_check_domain({y})" if saddle else None)
    return _compile(shapes, f"{mode}({', '.join(state)}, h)",
                    body + ["return " + ", ".join(f"{v}n" for v in state)],
                    _check_domain=_check_domain)


def _field_terms(polys: tuple) -> tuple[tuple, list[float]]:
    """The term structures of ``polys`` (the code generator's key) and their
    coefficients in the generated factory's argument order."""
    terms = tuple(p.items_sorted() for p in polys)
    return tuple(map(_shape, terms)), [c for t in terms for _, c in t]


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
