"""Eigenfunction series coefficients, partial sums, and monomial expansions."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilekoop.errors import DomainError
from ilekoop.koopman import KeigCandidate, keig_residual
from ilekoop.series import (
    SaddleEigenfunction,
    _binomial_series,
    _q_power_basis,
    _signed_base,
    _signed_pow,
    attraction_series_coefficients,
    decompose_monomial,
    geometric_tail_bound,
    greedy_series_coefficients,
    monomial_eigenfunction,
    monomial_partial_sum,
    partial_sum_check,
    phi_minus_2k,
    series_term,
)
from ilekoop.vectorfield import VectorField2D


def test_first_term_taylor_prefix():
    # coefficient 1 on w, whose expansion starts 3y^2 + 3y^4 + 3y^6
    c = attraction_series_coefficients(1)[0]
    taylor = [c * v for v in _q_power_basis(2, 4)(1)]
    assert taylor[1:4] == [3.0, 3.0, 3.0]


def test_second_term_taylor_prefix():
    # coefficient -1/3 on w^2: -3y^4 - 6y^6 - 9y^8
    c = attraction_series_coefficients(2)[1]
    taylor = [c * v for v in _q_power_basis(2, 5)(2)]
    assert taylor[2] == pytest.approx(-3.0, abs=1e-14)
    assert taylor[3] == pytest.approx(-6.0, abs=1e-14)
    assert taylor[4] == pytest.approx(-9.0, abs=1e-14)


def test_greedy_coefficients_geometric():
    coeffs = attraction_series_coefficients(10)
    for k, c in enumerate(coeffs, start=1):
        assert c == pytest.approx((-1.0 / 3.0) ** (k - 1), abs=1e-12)


def test_greedy_coefficients_independent_of_truncation():
    a = attraction_series_coefficients(8)
    b = attraction_series_coefficients(13)
    assert a == b[:8]


def test_greedy_target_zero():
    coeffs = greedy_series_coefficients([0.0], _q_power_basis(2, 6), 6)
    assert coeffs == [0.0] * 6


def test_greedy_target_basis_element():
    target = list(_q_power_basis(2, 6)(1))
    coeffs = greedy_series_coefficients(target, _q_power_basis(2, 6), 6)
    assert coeffs[0] == 1.0
    assert all(abs(c) < 1e-15 for c in coeffs[1:])


def test_greedy_rejects_bad_leading_order():
    with pytest.raises(ValueError):
        greedy_series_coefficients([0.0, 1.0], lambda k: [1.0, 1.0, 1.0], 2)


def test_term_vanishes_on_axis():
    assert phi_minus_2k(1, (3.0, 0.0)) == 0.0


def test_terms_are_eigenfunctions():
    rng = random.Random(131)
    f = VectorField2D.saddle()
    pts = []
    while len(pts) < 100:
        y = rng.uniform(-0.7, 0.7)
        if 0.05 <= abs(y):
            pts.append((rng.uniform(-2, 2), y))
    for k in (1, 2, 3, 5):
        obs = series_term(k).as_observable()
        res = keig_residual(f, KeigCandidate(obs, -2.0 * k))
        assert max(abs(res(x, y)) for x, y in pts) < 1e-10


def test_partial_sum_at_half():
    total, err = partial_sum_check(10, 0.5)
    assert err == abs(total - 0.75)
    assert err <= 2.6e-5


def test_partial_sum_zero_height():
    total, err = partial_sum_check(5, 0.0)
    assert total == 0.0 and err == 0.0


def test_partial_sum_with_constant_term_matches_rate():
    # -1 + series approximates the attraction rate -1 + 3y^2
    total, _ = partial_sum_check(10, 0.5)
    s1 = -1.0 + 3.0 * 0.25
    assert abs((-1.0 + total) - s1) <= 2.6e-5


def test_partial_sum_divergence_guard():
    with pytest.raises(DomainError):
        partial_sum_check(5, 0.75)


def test_geometric_tail_bound_holds():
    # allow a few ulps of the summand scale below the analytic bound
    for y in (0.1, 0.3, 0.5, 0.65):
        for n in (1, 2, 4, 8, 12):
            _, err = partial_sum_check(n, y)
            assert err <= geometric_tail_bound(n, y) * (1.0 + 1e-12) + 1e-15


def test_monomial_eigenfunction_identity_cases():
    assert monomial_eigenfunction(1, 1.0, 2.5, 0.3) == pytest.approx(2.5, rel=1e-14)
    assert monomial_eigenfunction(2, 0.0, 1.5, 0.5) == pytest.approx(
        3.0 * 1.5**2 * 0.25 / 0.75, rel=1e-14
    )
    # value 0.5*sqrt(3/0.75) = 1 at any x
    assert monomial_eigenfunction(0, -1.0, 123.0, 0.5) == pytest.approx(1.0, rel=1e-14)


def test_monomial_eigenfunction_axis_rules():
    assert monomial_eigenfunction(2, 2.0, 3.0, 0.0) == 9.0  # q-power 0
    assert monomial_eigenfunction(1, -1.0, 3.0, 0.0) == 0.0  # positive even power
    with pytest.raises(DomainError):
        monomial_eigenfunction(0, 1.0, 3.0, 0.0)  # negative power of q


def test_monomial_eigenfunctions_satisfy_generator_identity():
    rng = random.Random(137)
    f = VectorField2D.saddle()
    pts = []
    while len(pts) < 100:
        y = rng.uniform(-0.7, 0.7)
        if abs(y) >= 0.05:
            pts.append((rng.uniform(-2, 2), y))
    for n, lam in [(1, 1.0), (2, 0.0), (0, -1.0), (0, -3.0), (1, 0.0), (2, 1.0)]:
        obs = SaddleEigenfunction.monomial(n, lam)
        res = keig_residual(f, KeigCandidate(obs, lam))
        assert max(abs(res(x, y)) for x, y in pts) < 1e-10


def test_decompose_x_is_single_term():
    terms = decompose_monomial(1, 0, 5)
    assert terms[0] == (1.0, 1.0)
    assert all(abs(c) < 1e-15 for _, c in terms[1:])


def test_decompose_y_leading_coefficients():
    terms = decompose_monomial(0, 1, 6)
    lams = [lam for lam, _ in terms]
    assert lams == [-1.0, -3.0, -5.0, -7.0, -9.0, -11.0]
    assert terms[0][1] == pytest.approx(3.0**-0.5, abs=1e-12)
    assert terms[1][1] == pytest.approx(-0.5 * 3.0**-1.5, abs=1e-12)


def test_decompose_y_partial_sums_converge():
    terms = decompose_monomial(0, 1, 14)
    for y in (-0.5, -0.2, 0.2, 0.35, 0.5):
        errs = []
        for n in (2, 6, 10, 14):
            approx = monomial_partial_sum(0, terms[:n], 1.0, y)
            errs.append(abs(approx - y))
        assert errs == sorted(errs, reverse=True) or errs[-1] < 1e-12
        assert errs[-1] < 5e-4


def test_decompose_mixed_monomial_converges():
    terms = decompose_monomial(2, 2, 12)
    assert terms[0][0] == 2.0 - 2.0  # leading eigenvalue n - m
    for x, y in [(1.3, 0.4), (-0.7, -0.3), (0.5, 0.5)]:
        approx = monomial_partial_sum(2, terms, x, y)
        assert approx == pytest.approx(x * x * y * y, abs=5e-4)


def _loop_decompose(n, m, n_terms):
    """The greedy loop decompose_monomial used to carry, kept as the reference."""
    order = n_terms + 2
    basis = []
    for j in range(n_terms):
        power = m + 2 * j
        scale = 3.0 ** (power / 2.0)
        series = _binomial_series(-power / 2.0, order)
        basis.append([0.0] * j + [scale * bc for bc in series[: order + 1 - j]])
    residual = [1.0] + [0.0] * order
    out = []
    for j in range(n_terms):
        bj = basis[j] + [0.0] * (order + 1)
        dj = residual[j] / bj[j]
        out.append((float(n - m - 2 * j), dj))
        residual = [r - dj * b for r, b in zip(residual, bj)]
    return out


def test_decompose_matches_inline_greedy_loop():
    for n in range(5):
        for m in range(5):
            for n_terms in range(1, 15):
                got = decompose_monomial(n, m, n_terms)
                want = _loop_decompose(n, m, n_terms)
                assert [(lam, c.hex()) for lam, c in got] == [(lam, c.hex()) for lam, c in want]


def test_decompose_rejects_negative_powers():
    with pytest.raises(ValueError):
        decompose_monomial(-1, 0, 3)


# -- the one basis and the one value against the formulas they replaced -------

def _mul_trunc(a, b, n):
    """Truncated series product; with _w_power_taylor, the old attraction basis."""
    out = [0.0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += ai * bj
    return out


def _w_power_taylor(k, n):
    """Taylor coefficients of w^k in u = y^2 through u^n by repeated products."""
    w = tuple([0.0] + [3.0] * n)
    out = w
    for _ in range(k - 1):
        out = tuple(_mul_trunc(out, w, n))
    return out


def _hex(values):
    return [float(v).hex() for v in values]


def test_q_power_basis_equals_repeated_products():
    for n in range(1, 29):
        basis = _q_power_basis(2, n)
        for k in range(1, n + 1):
            assert _hex(basis(k)) == _hex(_w_power_taylor(k, n)), (n, k)


def test_attraction_coefficients_equal_old_basis():
    for n in range(1, 29):
        old = greedy_series_coefficients([0.0, 3.0], lambda k, n=n: _w_power_taylor(k, n), n)
        assert _hex(attraction_series_coefficients(n)) == _hex(old), n


def _old_partial_sum(n, y):
    """The old partial_sum_check total: its own copy of coeff * w**k."""
    coeffs = attraction_series_coefficients(n)
    w = 3.0 * y * y / (1.0 - y * y)
    total = 0.0
    for k in range(1, n + 1):
        total += coeffs[k - 1] * w**k
    return total


def test_partial_sum_check_equals_old_sum():
    for y in (-0.7, -0.45, -1e-300, 0.0, 0.1, 0.3, 0.5, 0.7):
        for n in range(0, 29):
            total, err = partial_sum_check(n, y)
            want = _old_partial_sum(n, y)
            assert total.hex() == want.hex()
            assert err.hex() == abs(want - 3.0 * y * y).hex()


def _old_monomial_eigenfunction(n, lam, x, y):
    """monomial_eigenfunction as it was before it used SaddleEigenfunction."""
    if n < 0:
        raise ValueError("monomial degree must be nonnegative")
    if y == 0.0:
        e = n - lam
        if abs(e - round(e)) < 1e-9 and round(e) >= 0:
            return x**n if round(e) == 0 else 0.0
        raise DomainError("undefined on the x-axis for this (n, lam)")
    q = _signed_base(y)
    return x**n * _signed_pow(q, n - lam)


def _outcome(fn, *args):
    try:
        return ("value", float(fn(*args)).hex())
    except (DomainError, ValueError, OverflowError, ZeroDivisionError) as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(0, 6),
    lam=st.one_of(st.integers(-8, 8).map(float), st.floats(-8.0, 8.0),
                  st.sampled_from([0.5, -0.5, 1.0 + 1e-10, 3.0 - 1e-12])),
    x=st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1.0, -1.0])),
    y=st.one_of(st.floats(-0.99, 0.99), st.sampled_from([0.0, -0.0, 1e-300, -0.5, 1.0, -1.0])),
)
def test_monomial_eigenfunction_equals_old_formula(n, lam, x, y):
    got = _outcome(monomial_eigenfunction, n, lam, x, y)
    assert got == _outcome(_old_monomial_eigenfunction, n, lam, x, y)


def test_saddle_eigenfunction_value_is_the_family_value():
    # h_scale * (x q)^n * q^(-lam) and h_scale * x^n * q^(n - lam) agree to
    # rounding; only the second is computed.
    rng = random.Random(11)
    for _ in range(300):
        n, lam = rng.randrange(4), rng.choice([-3.0, -2.0, 0.0, 1.0, 2.5])
        x, y, c = rng.uniform(-2, 2), rng.uniform(0.05, 0.95), rng.uniform(-2, 2)
        q = y * math.sqrt(3.0 / (1.0 - y * y))
        old = c * (x * q) ** n * q**-lam
        assert SaddleEigenfunction(lam, n, c).value(x, y) == pytest.approx(old, rel=1e-13)
