"""Eigenfunction series for the nonlinear saddle.

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

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .koopman import SaddleEigenfunction, _signed_base, _signed_pow
from .vectorfield import SADDLE_Y_BOUND


def _mul_trunc(a, b, n):
    out = [0.0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += ai * bj
    return out


def _binomial_series(alpha: float, n: int):
    """Coefficients of (1 - u)^alpha through u^n."""
    out = [1.0]
    for j in range(1, n + 1):
        out.append(out[-1] * (alpha - j + 1) / j * -1.0)
    return out


@lru_cache(maxsize=None)
def _w_power_taylor(k: int, n: int) -> tuple:
    """Taylor coefficients of w^k in u = y^2 through u^n, w = 3u/(1-u)."""
    w = tuple([0.0] + [3.0] * n)
    out = w
    for _ in range(k - 1):
        out = tuple(_mul_trunc(out, w, n))
    return out


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
    target = [0.0, 3.0]
    return tuple(greedy_series_coefficients(target, lambda k: _w_power_taylor(k, n), n))


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


def partial_sum_check(n: int, y: float) -> tuple[float, float]:
    """Partial sum of the first n series terms at height y, and its error
    against the limit 3y^2.

    Converges only for y^2 < 1/2; the tail is bounded by the geometric
    estimate 3 u^(n+1) / (1-u) with u = y^2/(1-y^2).
    """
    if not y * y < 0.5:
        raise DomainError("the series diverges for |y| >= 1/sqrt(2)")
    coeffs = attraction_series_coefficients(n)
    w = 3.0 * y * y / (1.0 - y * y)
    total = 0.0
    for k in range(1, n + 1):
        total += coeffs[k - 1] * w**k
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
    q = _signed_base(y)
    return x**n * _signed_pow(q, n - lam)


def monomial_observable(n: int, lam: float) -> SaddleEigenfunction:
    """Observable form of the monomial eigenfunction, with gradients."""
    return SaddleEigenfunction.monomial(n, lam)


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

    def basis(k: int) -> list[float]:
        # q^(m+2j) = 3^((m+2j)/2) * y^(m+2j) * (1-y^2)^(-(m+2j)/2); factor
        # out y^m and expand the rest in u = y^2, so basis j leads at u^j.
        # The greedy scheme counts from 1, so every series (the target 1
        # included) is shifted up one order: element k = j + 1 leads at u^k.
        power = m + 2 * (k - 1)
        scale = 3.0 ** (power / 2.0)
        return [0.0] * k + [scale * bc for bc in _binomial_series(-power / 2.0, n_terms - k)]

    coeffs = greedy_series_coefficients([0.0, 1.0], basis, n_terms)
    return [(float(n - m - 2 * j), c) for j, c in enumerate(coeffs)]


def monomial_partial_sum(x_power: int, terms, x: float, y: float) -> float:
    """Evaluate a decomposition returned by :func:`decompose_monomial`."""
    total = 0.0
    for lam, coeff in terms:
        total += coeff * monomial_eigenfunction(x_power, lam, x, y)
    return total
