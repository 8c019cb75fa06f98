"""Eigenfunction series coefficients, partial sums, and monomial expansions."""

import random

import pytest

from ilekoop.errors import DomainError
from ilekoop.koopman import KeigCandidate, keig_residual
from ilekoop.series import (
    _binomial_series,
    _w_power_taylor,
    attraction_series_coefficients,
    decompose_monomial,
    geometric_tail_bound,
    greedy_series_coefficients,
    monomial_eigenfunction,
    monomial_observable,
    monomial_partial_sum,
    partial_sum_check,
    phi_minus_2k,
    series_term,
)
from ilekoop.vectorfield import VectorField2D


def test_first_term_taylor_prefix():
    # coefficient 1 on w, whose expansion starts 3y^2 + 3y^4 + 3y^6
    c = attraction_series_coefficients(1)[0]
    taylor = [c * v for v in _w_power_taylor(1, 4)]
    assert taylor[1:4] == [3.0, 3.0, 3.0]


def test_second_term_taylor_prefix():
    # coefficient -1/3 on w^2: -3y^4 - 6y^6 - 9y^8
    c = attraction_series_coefficients(2)[1]
    taylor = [c * v for v in _w_power_taylor(2, 5)]
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
    coeffs = greedy_series_coefficients([0.0], lambda k: _w_power_taylor(k, 6), 6)
    assert coeffs == [0.0] * 6


def test_greedy_target_basis_element():
    target = list(_w_power_taylor(1, 6))
    coeffs = greedy_series_coefficients(target, lambda k: _w_power_taylor(k, 6), 6)
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
        obs = monomial_observable(n, lam)
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
