"""Vector-field family constructors, the 1-D obstruction, and the exact
normal-form solution."""

import math
import random

import pytest

from ilekoop.expr import Poly2, parse_polynomial
from ilekoop.families import (
    CarlemanModel,
    CubicParams,
    QuadraticParams,
    carleman_solve,
    claimed_s1_report,
    cubic_attraction_rate,
    equilibrium_and_r_solution,
    make_cubic_family,
    make_quadratic_family,
    make_transformed_family,
    one_d_residual,
    quadratic_repulsion_rate,
    s1_evolution_check,
    transformed_claimed_attraction_rate,
)
from ilekoop.flowmap import IntegratorConfig, flow_endpoint
from ilekoop.koopman import KeigCandidate, best_lambda, keig_residual
from ilekoop.vectorfield import shear_free_defect

from test_vectorfield import cubic_example_field

CFG = IntegratorConfig(step=1e-3)


# -- quadratic family ------------------------------------------------------------

def test_quadratic_family_explicit_coefficients():
    f = make_quadratic_family(QuadraticParams(1.0, 1.0))
    assert f.p == parse_polynomial("-y + (x+y)^2")
    assert f.q == parse_polynomial("x + 2*y - (x+y)^2")


def test_quadratic_family_zero_eigenvalue():
    params = QuadraticParams(0.0, 1.0)
    f = make_quadratic_family(params)
    assert f.p == parse_polynomial("(x+y)^2")
    assert f.q == parse_polynomial("0 - (x+y)^2")
    assert keig_residual(f, KeigCandidate(quadratic_repulsion_rate(params), 0.0)).is_zero()


def test_quadratic_family_degenerate_quadratic_part():
    params = QuadraticParams(2.0, 0.0)
    f = make_quadratic_family(params)
    assert f.p == parse_polynomial("-2*y")
    assert quadratic_repulsion_rate(params).is_zero()


def test_quadratic_family_coefficient_pattern():
    # The construction pins every quadratic coefficient; nothing else appears.
    rng = random.Random(97)
    allowed_p = {(0, 1), (2, 0), (1, 1), (0, 2)}
    allowed_q = {(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    for _ in range(20):
        f = make_quadratic_family(QuadraticParams(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        assert set(f.p.coefficients()) <= allowed_p
        assert set(f.q.coefficients()) <= allowed_q
        assert shear_free_defect(f).is_zero()


# -- cubic family -----------------------------------------------------------------

EXAMPLE = CubicParams.from_rate_eigenvalue(2.0, 2.0 / 3.0, -1.0 / 3.0, -2.0)


def test_cubic_example_field_coefficients():
    f = make_cubic_family(EXAMPLE)
    ref = cubic_example_field()
    assert f.p.max_coeff_diff(ref.p) < 1e-12
    assert f.q.max_coeff_diff(ref.q) < 1e-12


def test_cubic_example_attraction_rate():
    s1 = cubic_attraction_rate(EXAMPLE)
    assert s1.max_coeff_diff(parse_polynomial("(x + y - 1)^2")) < 1e-12


def test_cubic_parameterization_round_trip():
    rng = random.Random(101)
    for _ in range(20):
        k = rng.choice([-1, 1]) * rng.uniform(0.1, 2.0)
        a = CubicParams(
            a10=rng.uniform(-2, 2), k=k, a20=rng.uniform(-2, 2), b00=rng.uniform(-2, 2)
        )
        b = CubicParams.from_rate_eigenvalue(a.lam, a.c, a.k, a.a00)
        fa = make_cubic_family(a)
        fb = make_cubic_family(b)
        assert fa.p.max_coeff_diff(fb.p) < 1e-12
        assert fa.q.max_coeff_diff(fb.q) < 1e-12


def test_cubic_eigenvalue_recovered_by_least_squares():
    f = make_cubic_family(EXAMPLE)
    s1 = cubic_attraction_rate(EXAMPLE)
    samples = [(0.1 * i, 0.07 * i - 0.3) for i in range(12)]
    lam_star, resnorm = best_lambda(f, s1, samples)
    assert lam_star == pytest.approx(2.0, abs=1e-10)
    assert resnorm < 1e-10


def test_cubic_rate_depends_only_on_diagonal_sum():
    rng = random.Random(103)
    w = Poly2.x() + Poly2.y()
    for _ in range(10):
        k = rng.choice([-1, 1]) * rng.uniform(0.2, 1.5)
        params = CubicParams(
            a10=rng.uniform(-2, 2), k=k, a20=rng.uniform(-2, 2), b00=rng.uniform(-2, 2)
        )
        s1 = cubic_attraction_rate(params)
        in_w = (
            Poly2.constant(params.b11)
            - (2.0 * params.a20) * w
            - (3.0 * params.a20 * params.k) * (w * w)
        )
        assert s1.max_coeff_diff(in_w) < 1e-12
        # the diagonal sum obeys a scalar affine equation
        f = make_cubic_family(params)
        drift = f.p + f.q
        expected = Poly2.constant(params.lam / (6.0 * params.k)) + (0.5 * params.lam) * w
        assert drift.max_coeff_diff(expected) < 1e-12


def test_cubic_requires_nonzero_k():
    with pytest.raises(ValueError):
        CubicParams(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        CubicParams.from_rate_eigenvalue(1.0, 1.0, 0.0, 0.0)


# -- equilibrium and the uncoupled coordinate ---------------------------------------

def test_equilibrium_of_example():
    r_bar, s_bar, _ = equilibrium_and_r_solution(EXAMPLE, 0.0, 0.0)
    assert r_bar == pytest.approx(1.0, abs=1e-14)
    assert s_bar == pytest.approx(-5.0 / 3.0, abs=1e-12)


def test_equilibrium_is_fixed_point_of_r():
    r_bar, _, r_t = equilibrium_and_r_solution(EXAMPLE, 1.0, 7.3)
    assert r_t == pytest.approx(r_bar, abs=1e-12)


def test_r_solution_matches_integration():
    # r = x + y obeys the scalar equation; check against the 2-D flow.
    params = EXAMPLE
    f = make_cubic_family(params)
    x0 = (0.4, 0.1)
    t = 0.6
    end = flow_endpoint(f, x0, t, CFG)
    _, _, r_t = equilibrium_and_r_solution(params, x0[0] + x0[1], t)
    assert end[0] + end[1] == pytest.approx(r_t, abs=1e-9)


def test_equilibrium_rejects_zero_eigenvalue():
    params = CubicParams.from_rate_eigenvalue(0.0, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        equilibrium_and_r_solution(params, 0.0, 1.0)


# -- transformed and extended families -----------------------------------------------

def test_transformed_family_coefficients():
    lam, c = -1.0, -1.0
    f = make_transformed_family(lam, [c])
    assert f.p == Poly2({(1, 0): -0.5})
    assert f.q == Poly2({(1, 0): 1.0, (0, 1): -0.5, (3, 0): -1.0})


def test_transformed_claimed_rate_single_coefficient_exact():
    rng = random.Random(107)
    for _ in range(10):
        lam, c = rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.1, 2)
        f = make_transformed_family(lam, [c])
        g = transformed_claimed_attraction_rate(lam, [c])
        assert g.max_coeff_diff(Poly2({(2, 0): -1.5 * c})) < 1e-15
        # both sign conventions are exact eigenpairs with the same eigenvalue
        assert keig_residual(f, KeigCandidate(g, lam)).is_zero()
        assert keig_residual(f, KeigCandidate(-1.0 * g, lam)).is_zero()


def test_transformed_powers_are_eigenfunctions():
    rng = random.Random(109)
    for _ in range(5):
        lam, c = rng.uniform(-2, 2), rng.uniform(-2, 2)
        f = make_transformed_family(lam, [c])
        for m in range(1, 7):
            res = keig_residual(f, KeigCandidate(Poly2.monomial(m, 0), m * lam / 2.0))
            assert res.is_zero()


def test_extended_family_claim_fails_for_mixed_coefficients():
    report = claimed_s1_report(-1.0, [-1.0, 0.5])
    assert report["exact_keig"] is False
    assert report["rms_residual"] > 1e-3
    single = claimed_s1_report(-1.0, [-1.0])
    assert single["exact_keig"] is True
    assert single["best_lambda"] == pytest.approx(-1.0, abs=1e-12)


def test_extended_family_zero_rate_degenerate():
    report = claimed_s1_report(1.0, [0.0])
    assert report["exact_keig"] is True
    assert report["best_lambda"] is None


def test_transformed_family_needs_coefficients():
    with pytest.raises(ValueError):
        make_transformed_family(1.0, [])


T_INV = ((0.5, -0.5), (0.5, 0.5))


def test_translated_rate_has_positive_sign():
    # Pulling the cubic family's attraction rate through the variable change
    # and the equilibrium translation leaves +1.5*c*x1^2, the opposite sign
    # of the claimed rate; both are eigenfunctions with the same eigenvalue.
    params = EXAMPLE
    s1 = cubic_attraction_rate(params)
    r_bar, s_bar, _ = equilibrium_and_r_solution(params, 0.0, 0.0)
    in_rs = s1.affine_substitute(T_INV, (0.0, 0.0))
    translated = in_rs.affine_substitute(((1.0, 0.0), (0.0, 1.0)), (r_bar, s_bar))
    assert translated.max_coeff_diff(Poly2({(2, 0): 1.5 * params.c})) < 1e-12


def test_transformed_strain_rate_differs_from_claimed_rate():
    # The normal form is not shear-free, so its strain-tensor attraction rate
    # picks up a shear contribution and is not the claimed -1.5*c*x1^2.
    from ilekoop.strain import strain_rates

    lam, c = -1.0, -1.0
    f = make_transformed_family(lam, [c])
    claimed = transformed_claimed_attraction_rate(lam, [c])
    s1_tensor, _ = strain_rates(f, 0.0, 0.0)
    assert abs(s1_tensor - claimed.evaluate(0.0, 0.0)) > 0.5
    # yet the claimed rate still evolves exponentially along trajectories
    err = s1_evolution_check(lam, c, (0.7, 0.2), 1.5)
    assert err < 1e-12


# -- one-dimensional obstruction -------------------------------------------------------

def _uniform_samples(n=201, lo=-1.0, hi=1.0):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def test_one_d_linear_flow():
    f = parse_polynomial("x", variables=("x",))
    resnorm, lam_star = one_d_residual(f, 1.0, _uniform_samples())
    assert resnorm == pytest.approx(1.0, abs=1e-12)  # residual is -lam everywhere
    assert lam_star == 0.0
    resnorm0, _ = one_d_residual(f, 0.0, _uniform_samples())
    assert resnorm0 == 0.0


def test_one_d_zero_function():
    f = Poly2.zero()
    for lam in (0.0, 1.0, -3.0):
        resnorm, lam_star = one_d_residual(f, lam, _uniform_samples())
        assert resnorm == 0.0
        assert lam_star == 0.0


def test_one_d_cubic_has_large_min_residual():
    f = parse_polynomial("x - x^3", variables=("x",))
    samples = _uniform_samples()
    _, lam_star = one_d_residual(f, 0.0, samples)
    resnorm, _ = one_d_residual(f, lam_star, samples)
    assert resnorm > 0.1
    # grid search over eigenvalues cannot beat the least-squares optimum
    for lam in [-3 + 0.1 * i for i in range(61)]:
        r, _ = one_d_residual(f, lam, samples)
        assert r >= resnorm - 1e-12


def test_one_d_residual_equals_old_formula():
    rng = random.Random(223)
    for _ in range(50):
        coeffs = {(i, 0): rng.uniform(-3, 3) for i in range(rng.randrange(1, 6))}
        f = Poly2(coeffs)
        samples = [rng.uniform(-2, 2) for _ in range(rng.randrange(2, 40))]
        lam = rng.choice([0.0, 1.0, -2.5, rng.uniform(-5, 5)])
        f1 = f.diff("x")
        f2 = f1.diff("x")
        prod = [f2.evaluate(x) * f.evaluate(x) for x in samples]
        slope = [f1.evaluate(x) for x in samples]
        res = [p - lam * s for p, s in zip(prod, slope)]
        want = math.sqrt(sum(r * r for r in res) / len(samples))
        assert one_d_residual(f, lam, samples)[0].hex() == want.hex()


def test_one_d_rejects_bivariate_input():
    with pytest.raises(ValueError):
        one_d_residual(parse_polynomial("x*y"), 0.0, _uniform_samples())


# -- exact normal-form solution ----------------------------------------------------------

def test_carleman_matrix_structure():
    m = CarlemanModel(-1.0, -1.0).matrix
    assert m[0][1] == m[0][2] == m[2][0] == m[2][1] == 0.0
    assert m[1][0] == 1.0 and m[1][2] == -1.0
    assert (m[0][0], m[1][1], m[2][2]) == (-0.5, -0.5, -1.5)


def test_carleman_example_endpoint():
    x1, x2 = carleman_solve(-1.0, -1.0, (1.0, 0.0), 1.0)
    assert x1 == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert x2 == pytest.approx(math.exp(-0.5) * (1.0 - 1.0 + math.exp(-1.0)), rel=1e-12)


def test_carleman_identity_at_zero_time():
    assert carleman_solve(1.7, 0.3, (0.4, -0.2), 0.0) == (0.4, -0.2)


def test_carleman_first_component_closed_form():
    rng = random.Random(113)
    for _ in range(20):
        lam, c = rng.uniform(-2, 2), rng.uniform(-2, 2)
        x0 = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        t = rng.uniform(0, 2)
        x1, _ = carleman_solve(lam, c, x0, t)
        assert x1 == pytest.approx(math.exp(lam * t / 2.0) * x0[0], rel=1e-13, abs=1e-13)


def test_carleman_agrees_with_integration():
    rng = random.Random(127)
    worst = 0.0
    for _ in range(50):
        lam, c = rng.uniform(-2, 2), rng.uniform(-2, 2)
        x0 = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        f = make_transformed_family(lam, [c])
        for t in (0.5, 1.0, 2.0):
            exact = carleman_solve(lam, c, x0, t)
            num = flow_endpoint(f, x0, t, CFG)
            worst = max(worst, abs(exact[0] - num[0]), abs(exact[1] - num[1]))
    assert worst < 1e-6


def test_carleman_zero_eigenvalue():
    # with lam = 0 the drift is pure forcing by the cubic monomial
    x1, x2 = carleman_solve(0.0, 2.0, (0.5, 1.0), 3.0)
    assert x1 == 0.5
    assert x2 == pytest.approx(1.0 + 2.0 * 0.5**3 * 3.0, rel=1e-14)


def test_rate_evolution_exact():
    assert s1_evolution_check(-1.0, -1.0, (1.0, 0.0), 2.0) < 1e-12
    assert s1_evolution_check(2.0, 0.5, (0.3, 1.0), 1.0) < 1e-12
    assert s1_evolution_check(1.3, -0.4, (0.7, -0.2), 0.0) == 0.0


def test_rate_evolution_rejects_zero_start():
    with pytest.raises(ValueError):
        s1_evolution_check(1.0, 1.0, (0.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        s1_evolution_check(1.0, 0.0, (1.0, 1.0), 1.0)
