"""Polynomial vector-field families whose strain rates are eigenfunctions.

The quadratic family has a skew-symmetric linear part and opposite-signed
quadratic blocks; its repulsion rate 2*a20*(x+y) is an eigenfunction with a
free eigenvalue.  The cubic family does the same for the attraction rate and
admits a second parameterization in terms of the eigenvalue itself.  A
linear change of variables followed by a translation to the equilibrium
reduces the cubic family to a two-parameter normal form whose flow closes
exactly under a three-dimensional monomial lift, giving an analytic solution
against which the integrator is checked.
"""

from __future__ import annotations

import math

from .errors import NumericalError
from .expr import Poly2, _collect, _Record
from .koopman import KeigCandidate, best_lambda, keig_residual, rms
from .vectorfield import VectorField2D


class QuadraticParams(_Record):
    __slots__ = ("lam", "a20")

    def __init__(self, lam: float, a20: float):
        self.lam = lam
        self.a20 = a20


def make_quadratic_family(params: QuadraticParams) -> VectorField2D:
    """P = -lam*y + a20*(x+y)^2,  Q = lam*x + 2*lam*y - a20*(x+y)^2."""
    lam, a20 = params.lam, params.a20
    w2 = params.a20 * (Poly2.x() + Poly2.y()) ** 2
    p = Poly2({(0, 1): -lam}) + w2
    q = Poly2({(1, 0): lam, (0, 1): 2.0 * lam}) - w2
    _check_pattern(p, {(0, 1): -lam, (2, 0): a20, (1, 1): 2.0 * a20, (0, 2): a20})
    _check_pattern(
        q, {(1, 0): lam, (0, 1): 2.0 * lam, (2, 0): -a20, (1, 1): -2.0 * a20, (0, 2): -a20}
    )
    return VectorField2D(p, q)


def quadratic_repulsion_rate(params: QuadraticParams) -> Poly2:
    """s2 = dP/dx = 2*a20*(x+y); an eigenfunction with eigenvalue lam."""
    return make_quadratic_family(params).p.diff("x")


def _check_pattern(poly: Poly2, expected: dict) -> None:
    # The families occupy an exact coefficient pattern; any extra monomial
    # would mean the construction lost its structure.
    if poly != Poly2(expected):
        raise NumericalError("family constructor produced an unexpected coefficient pattern")


class CubicParams(_Record):
    """Cubic family parameters (a10, k, a20, b00), k != 0.

    The remaining coefficients are pinned by the construction:
    a11 = (a10 + a20/(3k))/2, b11 = -a20/(3k), a00 = lam/(6k) - b00,
    with eigenvalue lam = a10 - a20/(3k) and curvature scale c = -2*k*a20.
    """

    __slots__ = ("a10", "k", "a20", "b00")

    def __init__(self, a10: float, k: float, a20: float, b00: float):
        if k == 0.0:
            raise ValueError("cubic family needs k != 0")
        self.a10 = a10
        self.k = k
        self.a20 = a20
        self.b00 = b00

    @classmethod
    def from_rate_eigenvalue(cls, lam: float, c: float, k: float, a00: float) -> "CubicParams":
        """Build from the (lam, c, k, a00) parameterization."""
        if k == 0.0:
            raise ValueError("cubic family needs k != 0")
        a20 = -c / (2.0 * k)
        a10 = lam - c / (6.0 * k * k)
        b00 = lam / (6.0 * k) - a00
        return cls(a10=a10, k=k, a20=a20, b00=b00)

    @property
    def lam(self) -> float:
        return self.a10 - self.a20 / (3.0 * self.k)

    @property
    def c(self) -> float:
        return -2.0 * self.k * self.a20

    @property
    def a11(self) -> float:
        return 0.5 * (self.a10 + self.a20 / (3.0 * self.k))

    @property
    def b11(self) -> float:
        return -self.a20 / (3.0 * self.k)

    @property
    def a00(self) -> float:
        return self.lam / (6.0 * self.k) - self.b00


def make_cubic_family(params: CubicParams) -> VectorField2D:
    """Cubic field with skew-symmetric linear part and opposite-signed
    quadratic and cubic blocks in (x+y); its attraction rate dQ/dy is an
    eigenfunction with eigenvalue ``params.lam``."""
    w = Poly2.x() + Poly2.y()
    block = params.a20 * w**2 + (params.a20 * params.k) * w**3
    p = Poly2({(0, 0): params.a00, (1, 0): params.a10, (0, 1): params.a11}) + block
    q = Poly2({(0, 0): params.b00, (1, 0): -params.a11, (0, 1): params.b11}) - block
    return VectorField2D(p, q)


def cubic_attraction_rate(params: CubicParams) -> Poly2:
    return make_cubic_family(params).q.diff("y")


def equilibrium_and_r_solution(
    params: CubicParams, r0: float, t: float
) -> tuple[float, float, float]:
    """Equilibrium of the transformed cubic system and the closed-form
    solution of the uncoupled first coordinate.

    Returns (r_bar, s_bar, r(t)) with r_bar = -1/(3k) and
    r(t) = ((a_bar + a*r0) * e^{a t} - a_bar) / a, a = lam/2, a_bar = lam/(6k).
    """
    lam, c, k, a00 = params.lam, params.c, params.k, params.a00
    if lam == 0.0:
        raise ValueError("the equilibrium offset is undefined for lam == 0")
    r_bar = -1.0 / (3.0 * k)
    s_bar = -(2.0 / lam) * (0.5 * lam / k - c / (27.0 * k**3) - 2.0 * a00)
    a = 0.5 * lam
    a_bar = lam / (6.0 * k)
    r_t = ((a_bar + a * r0) * math.exp(a * t) - a_bar) / a
    return (r_bar, s_bar, r_t)


# ---------------------------------------------------------------------------
# Two-parameter normal form and its extensions
# ---------------------------------------------------------------------------

def make_transformed_family(lam: float, coeffs) -> VectorField2D:
    """dx1/dt = (lam/2) x1;  dx2/dt = -lam x1 + (lam/2) x2 + sum c_n x1^n.

    ``coeffs`` lists (c3, c4, c5, ...) starting at the cubic power.  Every
    monomial x1^m is an exact eigenfunction with eigenvalue m*lam/2.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("need at least the cubic coefficient")
    q = _collect((((n, 0), cn) for n, cn in enumerate(coeffs, start=3)),
                 {(1, 0): -lam, (0, 1): 0.5 * lam})
    return VectorField2D(Poly2({(1, 0): 0.5 * lam}), q)


def transformed_claimed_attraction_rate(lam: float, coeffs) -> Poly2:
    """The rate -(1/2) * sum n c_n x1^(n-1) attributed to the extended
    family.  This is an exact eigenfunction only when a single coefficient
    is nonzero; see :func:`claimed_s1_report`."""
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("need at least the cubic coefficient")
    return Poly2({(n - 1, 0): -0.5 * n * cn for n, cn in enumerate(coeffs, start=3)})


def claimed_s1_report(lam: float, coeffs, samples=None) -> dict:
    """Diagnostic for the claim that the extended family's attraction rate
    is an eigenfunction with eigenvalue ``lam``.

    Each monomial x1^(n-1) evolves with eigenvalue (n-1)*lam/2, so a single
    eigenvalue exists only when exactly one coefficient is nonzero; mixed
    coefficients are reported with the least-squares eigenvalue and its RMS
    residual rather than asserted.
    """
    f = make_transformed_family(lam, coeffs)
    g = transformed_claimed_attraction_rate(lam, coeffs)
    residual = keig_residual(f, KeigCandidate(g, lam))
    report = {
        "claimed_lambda": lam,
        "exact_keig": residual.is_zero(),
        "max_abs_residual_coeff": residual.max_abs_coeff(),
    }
    if g.is_zero():
        report["best_lambda"] = None
        report["rms_residual"] = None
        return report
    if samples is None:
        samples = [(0.2 + 0.15 * i, -1.0 + 0.4 * j) for i in range(5) for j in range(5)]
    lam_star, resnorm = best_lambda(f, g, samples)
    report["best_lambda"] = lam_star
    report["rms_residual"] = resnorm
    return report


# ---------------------------------------------------------------------------
# One-dimensional obstruction
# ---------------------------------------------------------------------------

def one_d_residual(fpoly: Poly2, lam: float, samples) -> tuple[float, float]:
    """For a univariate polynomial flow dx/dt = f(x), the derivative f' is an
    eigenfunction only if f'' * f = lam * f'.

    Returns (RMS of f''f - lam*f' over the samples, least-squares lam*).
    lam* is reported as 0 when f' vanishes at every sample.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("need at least 2 sample points")
    if any(j != 0 for _, j in fpoly.coefficients()):
        raise ValueError("one_d_residual needs a polynomial in x only")
    f1 = fpoly.diff("x")
    f2 = f1.diff("x")
    prod = [f2.evaluate(x) * fpoly.evaluate(x) for x in samples]
    slope = [f1.evaluate(x) for x in samples]
    resnorm = rms(p - lam * s for p, s in zip(prod, slope))
    den = sum(s * s for s in slope)
    lam_star = 0.0 if den == 0.0 else sum(p * s for p, s in zip(prod, slope)) / den
    return (resnorm, lam_star)


# ---------------------------------------------------------------------------
# Exact solution of the normal form via a monomial lift
# ---------------------------------------------------------------------------

class CarlemanModel(_Record):
    """Linear lift of the normal form on the observables (x1, x2, x1^3)."""

    __slots__ = ("lam", "c")

    def __init__(self, lam: float, c: float):
        self.lam = lam
        self.c = c

    @property
    def matrix(self) -> tuple:
        lam, c = self.lam, self.c
        return (
            (0.5 * lam, 0.0, 0.0),
            (-lam, 0.5 * lam, c),
            (0.0, 0.0, 1.5 * lam),
        )

    def flow_matrix(self, t: float) -> tuple:
        """Closed-form exp(A t) using the triangular structure."""
        lam, c = self.lam, self.c
        e1 = math.exp(0.5 * lam * t)
        e3 = math.exp(1.5 * lam * t)
        m21 = -lam * t * e1
        m23 = c * t * e1 if lam == 0.0 else (c / lam) * (e3 - e1)
        return ((e1, 0.0, 0.0), (m21, e1, m23), (0.0, 0.0, e3))


def carleman_solve(lam: float, c: float, x0: tuple[float, float], t: float) -> tuple[float, float]:
    """Exact endpoint of the normal-form flow at time t.

    The closed-form lift exponential is cross-checked against a Taylor
    scaling-and-squaring exponential at relative tolerance 1e-12.
    """
    model = CarlemanModel(lam, c)
    x1, x2 = float(x0[0]), float(x0[1])
    lift = (x1, x2, x1**3)
    m = model.flow_matrix(t)
    closed = tuple(sum(m[i][j] * lift[j] for j in range(3)) for i in range(3))
    if not (math.isfinite(closed[0]) and math.isfinite(closed[1])):
        raise NumericalError("normal-form endpoint overflows a double")
    check = _expm3(model.matrix, t) @ lift
    for a, b in zip(closed, check):
        if abs(a - b) > 1e-12 * max(1.0, abs(a), abs(b)):
            raise NumericalError("lift exponential cross-check failed")
    return (closed[0], closed[1])


def _expm3(matrix, t: float):
    """Taylor series with scaling and squaring for a 3x3 matrix (an array)."""
    import numpy as np  # only this cross-check needs numpy; the exact commands skip it
    b = np.array(matrix) * t
    norm = float(np.max(np.sum(np.abs(b), axis=1)))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    b /= 2.0**squarings
    out = np.eye(3)
    term = np.eye(3)
    for k in range(1, 40):
        term = term @ b / k
        out = out + term
        if float(np.max(np.abs(term))) < 1e-20:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def s1_evolution_check(lam: float, c: float, x0: tuple[float, float], t: float) -> float:
    """Relative defect of the attraction-rate evolution along the exact flow:
    g = -(3/2) c x1^2 should satisfy g(t) = e^{lam t} g(0)."""
    g0 = -1.5 * c * x0[0] * x0[0]
    if g0 == 0.0:
        raise ValueError("the rate vanishes at the start point (x1 = 0 or c = 0)")
    x1t, _ = carleman_solve(lam, c, x0, t)
    gt = -1.5 * c * x1t * x1t
    return abs(gt - math.exp(lam * t) * g0) / abs(g0)
