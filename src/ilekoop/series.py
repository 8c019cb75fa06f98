"""The nonlinear saddle's closed-form eigenfunctions x^n * q^(n - lam),
q = y*sqrt(3/(1-y^2)), and eigenfunction series over them.

The attraction rate of the saddle is not itself an eigenfunction, but it
expands as -1 plus a series of eigenfunctions with eigenvalues -2, -4, ...
whose k-th term is a multiple of w^k, w = 3y^2/(1-y^2).  The coefficients
are always produced by greedy Taylor cancellation, never hard-coded: the
k-th basis element leads at order y^(2k), so matching orders one at a time
determines each coefficient uniquely.  The same greedy scheme decomposes
monomials x^n y^m over the closed-form eigenfunction family sharing the
x-power n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .errors import DomainError
from .vectorfield import SADDLE_Y_BOUND


def _signed_pow(base: float, e: float) -> float:
    if base > 0.0:
        return base**e
    n = round(e)
    if abs(e - n) > 1e-9:
        raise DomainError("negative base with non-integer exponent")
    return base ** int(n)


def _signed_base(y: float) -> float:
    if y == 0.0 or not abs(y) < SADDLE_Y_BOUND:
        raise DomainError("saddle eigenfunctions need 0 < |y| < 1")
    return y * math.sqrt(3.0 / (1.0 - y * y))


@dataclass(frozen=True)
class SaddleEigenfunction:
    """Eigenfunction h(s) * q^(-lam) of the nonlinear saddle, where
    q(y) = y * sqrt(3 / (1 - y^2)), s = x * q, and h(s) = h_scale * s^h_degree.

    Valid on 0 < |y| < 1 (the closed form degenerates on the x-axis).  The
    signed choice of q keeps odd-degree data functions odd in y.
    """

    lam: float
    h_degree: int = 0
    h_scale: float = 1.0

    @classmethod
    def constant(cls, c: float, lam: float) -> "SaddleEigenfunction":
        return cls(lam=lam, h_degree=0, h_scale=c)

    @classmethod
    def monomial(cls, n: int, lam: float) -> "SaddleEigenfunction":
        return cls(lam=lam, h_degree=int(n), h_scale=1.0)

    def value(self, x: float, y: float) -> float:
        # h(x*q) * q^(-lam) = h_scale * x^n * q^(n - lam)
        q = _signed_base(y)
        n = self.h_degree
        return self.h_scale * x**n * _signed_pow(q, n - self.lam)

    def gradient(self, x: float, y: float) -> tuple[float, float]:
        q = _signed_base(y)
        qp = math.sqrt(3.0) / ((1.0 - y * y) * math.sqrt(1.0 - y * y))
        n, e = self.h_degree, self.h_degree - self.lam
        dx = self.h_scale * n * x ** (n - 1) * _signed_pow(q, e) if n else 0.0
        dy = self.h_scale * x**n * e * _signed_pow(q, e - 1.0) * qp
        return (dx, dy)


def saddle_eigenfunction(
    lam: float, pt: tuple[float, float], h_degree: int = 0, h_scale: float = 1.0
) -> float:
    """One-shot evaluation of a saddle eigenfunction at a point."""
    return SaddleEigenfunction(lam, h_degree, h_scale).value(*pt)


def _binomial_series(alpha: float, n: int):
    """Coefficients of (1 - u)^alpha through u^n."""
    out = [1.0]
    for j in range(1, n + 1):
        out.append(out[-1] * (alpha - j + 1) / j * -1.0)
    return out


def _q_power_basis(m: int, n: int):
    """Greedy basis through u^n, u = y^2: element k is q^(m+2k-2) / y^(m-2).

    q^p = 3^(p/2) * y^p * (1-y^2)^(-p/2), so element k leads at u^k; for
    m = 2 it is exactly the Taylor series of w^k = q^(2k).
    """

    def basis(k: int) -> list[float]:
        power = m + 2 * (k - 1)
        scale = 3.0 ** (power / 2.0)
        return [0.0] * k + [scale * bc for bc in _binomial_series(-power / 2.0, n - k)]

    return basis


def greedy_series_coefficients(target, basis, n: int) -> list[float]:
    """Match ``target`` order by order with basis elements.

    ``target`` is a coefficient sequence in u = y^2; ``basis(k)`` must
    return a sequence whose leading order is u^k, for k = 1..n.  The
    returned coefficients make the partial sum agree with the target
    through order u^n.  Deterministic, and independent of n for the
    leading coefficients.
    """
    residual = list(target) + [0.0] * max(0, n + 1 - len(target))
    coeffs = []
    for k in range(1, n + 1):
        bk = list(basis(k)) + [0.0] * (n + 1)
        if any(bk[m] != 0.0 for m in range(k)) or bk[k] == 0.0:
            raise ValueError(f"basis element {k} does not lead at order {k}")
        ck = residual[k] / bk[k]
        coeffs.append(ck)
        residual = [r - ck * b for r, b in zip(residual, bk)]
    return coeffs


@lru_cache(maxsize=None)
def attraction_series_coefficients(n: int) -> tuple:
    """Greedy coefficients expanding 3y^2 over the basis w^k, k = 1..n."""
    return tuple(greedy_series_coefficients([0.0, 3.0], _q_power_basis(2, n), n))


@dataclass(frozen=True)
class SeriesTerm:
    """One term coefficient * w^k of the attraction-rate series; an exact
    eigenfunction of the saddle with eigenvalue -2k."""

    k: int
    coefficient: float

    def value(self, x: float, y: float) -> float:
        if not abs(y) < SADDLE_Y_BOUND:
            raise DomainError("series terms are defined for |y| < 1")
        w = 3.0 * y * y / (1.0 - y * y)
        return self.coefficient * w**self.k

    def as_observable(self) -> SaddleEigenfunction:
        return SaddleEigenfunction.constant(self.coefficient, lam=-2.0 * self.k)


def series_term(k: int) -> SeriesTerm:
    if k < 1:
        raise ValueError("series terms start at k = 1")
    return SeriesTerm(k, attraction_series_coefficients(k)[k - 1])


def phi_minus_2k(k: int, pt: tuple[float, float]) -> float:
    """Value of the k-th series term at a point."""
    return series_term(k).value(*pt)


def _attraction_partial_sums(n: int, y: float) -> list[float]:
    """The partial sums of the first 0, 1, ..., n series terms at height y."""
    if not y * y < 0.5:
        raise DomainError("the series diverges for |y| >= 1/sqrt(2)")
    coeffs = attraction_series_coefficients(n)
    terms = (SeriesTerm(k, c).value(0.0, y) for k, c in enumerate(coeffs, start=1))
    return list(accumulate(terms, initial=0.0))


def partial_sum_check(n: int, y: float) -> tuple[float, float]:
    """Partial sum of the first n series terms at height y, and its error
    against the limit 3y^2.

    Converges only for y^2 < 1/2; the tail is bounded by the geometric
    estimate 3 u^(n+1) / (1-u) with u = y^2/(1-y^2).
    """
    total = _attraction_partial_sums(n, y)[n]
    return (total, abs(total - 3.0 * y * y))


def geometric_tail_bound(n: int, y: float) -> float:
    u = y * y / (1.0 - y * y)
    return 3.0 * u ** (n + 1) / (1.0 - u)


# ---------------------------------------------------------------------------
# Closed-form monomial eigenfunctions and monomial decompositions
# ---------------------------------------------------------------------------

def monomial_eigenfunction(n: int, lam: float, x: float, y: float) -> float:
    """x^n * q^(n - lam) with q = y*sqrt(3/(1-y^2)); data function s^n.

    On the x-axis only nonnegative integer powers of q extend continuously
    (to x^n for power zero, else to zero); anything else is undefined there.
    """
    if n < 0:
        raise ValueError("monomial degree must be nonnegative")
    if y == 0.0:
        e = n - lam
        if abs(e - round(e)) < 1e-9 and round(e) >= 0:
            return x**n if round(e) == 0 else 0.0
        raise DomainError("undefined on the x-axis for this (n, lam)")
    return SaddleEigenfunction.monomial(n, lam).value(x, y)


def decompose_monomial(x_power: int, y_power: int, n_terms: int) -> list[tuple[float, float]]:
    """Expand x^n y^m over eigenfunctions sharing the x-power n.

    Basis element j is the eigenfunction with eigenvalue n - m - 2j, whose
    y-part q^(m+2j) leads at order y^(m+2j); greedy cancellation in the
    y-expansion determines the coefficients.  Returns (eigenvalue,
    coefficient) pairs in ascending y-order.
    """
    n, m = int(x_power), int(y_power)
    if n < 0 or m < 0:
        raise ValueError("monomial powers must be nonnegative")
    if n_terms < 1:
        raise ValueError("need at least one term")
    # Divided by y^(m-2) like the basis, the target y^m is u.
    coeffs = greedy_series_coefficients([0.0, 1.0], _q_power_basis(m, n_terms), n_terms)
    return [(float(n - m - 2 * j), c) for j, c in enumerate(coeffs)]


def _monomial_partial_sums(x_power: int, terms, x: float, y: float) -> list[float]:
    """The partial sums of the first 0, 1, ..., len(terms) terms."""
    values = (coeff * monomial_eigenfunction(x_power, lam, x, y) for lam, coeff in terms)
    return list(accumulate(values, initial=0.0))


def monomial_partial_sum(x_power: int, terms, x: float, y: float) -> float:
    """Evaluate a decomposition returned by :func:`decompose_monomial`."""
    return _monomial_partial_sums(x_power, terms, x, y)[-1]
