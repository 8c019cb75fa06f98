"""Generator action, eigenpair residuals, evolution checks, pullback."""

import math
import random
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ilekoop import _native
from ilekoop.errors import DomainError, NoCrossingError
from ilekoop.expr import Poly2, parse_polynomial
from ilekoop.families import (
    CubicParams,
    QuadraticParams,
    make_cubic_family,
    make_quadratic_family,
    make_transformed_family,
    quadratic_repulsion_rate,
)
from ilekoop.flowmap import IntegratorConfig, flow_endpoint
from ilekoop.koopman import (
    DataSurface,
    _first_crossing,
    KeigCandidate,
    TangentialCrossingWarning,
    _generator_at,
    _warn_if_tangential,
    best_lambda,
    evolution_check,
    generator_apply,
    keig_condition_residual,
    keig_residual,
    observable_value,
    pullback_eigenfunction,
    residual_report,
    rms,
)
from ilekoop.series import SaddleEigenfunction, saddle_eigenfunction
from ilekoop.vectorfield import SADDLE_Y_BOUND, VectorField2D, _field_terms, _rk4_factory

from test_vectorfield import cubic_example_field

CFG = IntegratorConfig(step=1e-3)
HAVE_CC = shutil.which("cc") is not None


def _sample_points(rng, n, ybound=0.75):
    return [(rng.uniform(-2, 2), rng.uniform(-ybound, ybound)) for _ in range(n)]


# -- generator ---------------------------------------------------------------

def test_generator_on_saddle_rate():
    g = parse_polynomial("-1 + 3*y^2")
    lg = generator_apply(VectorField2D.saddle(), g)
    assert lg.coefficients() == {(0, 2): -6.0, (0, 4): 6.0}


def test_generator_on_constant():
    assert generator_apply(VectorField2D.saddle(), Poly2.constant(4.0)).is_zero()


def test_generator_on_quadratic_repulsion_rate():
    params = QuadraticParams(1.0, 1.0)
    f = make_quadratic_family(params)
    s2 = quadratic_repulsion_rate(params)
    assert generator_apply(f, s2) == s2  # eigenvalue 1
    assert s2.coefficients() == {(1, 0): 2.0, (0, 1): 2.0}


def test_generator_matches_directional_derivative():
    rng = random.Random(47)
    f = cubic_example_field()
    g = parse_polynomial("x^2 - y + x*y^2")
    lg = generator_apply(f, g)
    eps = 1e-6
    for _ in range(25):
        pt = (rng.uniform(-1, 1), rng.uniform(-0.75, 0.75))
        ahead = flow_endpoint(f, pt, eps, CFG)
        fd = (g.evaluate(*ahead) - g.evaluate(*pt)) / eps
        assert fd == pytest.approx(lg.evaluate(*pt), abs=1e-4)


# -- residuals ----------------------------------------------------------------

def test_quadratic_family_residual_zero():
    rng = random.Random(53)
    for _ in range(20):
        params = QuadraticParams(rng.uniform(-3, 3), rng.uniform(-3, 3))
        f = make_quadratic_family(params)
        res = keig_residual(f, KeigCandidate(quadratic_repulsion_rate(params), params.lam))
        assert res.is_zero()


def test_transformed_first_power_residual_zero():
    rng = random.Random(59)
    for _ in range(10):
        lam, c = rng.uniform(-2, 2), rng.uniform(-2, 2)
        f = make_transformed_family(lam, [c])
        res = keig_residual(f, KeigCandidate(Poly2.x(), 0.5 * lam))
        assert res.is_zero()


def test_saddle_rate_is_not_an_eigenfunction():
    f = VectorField2D.saddle()
    g = parse_polynomial("-1 + 3*y^2")
    for lam in (0.0, 1.0, -2.0, 6.0):
        res = keig_residual(f, KeigCandidate(g, lam))
        assert not res.is_zero()
        assert res.coeff(0, 4) == pytest.approx(6.0, abs=1e-14)


def test_product_of_eigenpairs():
    rng = random.Random(61)
    # transformed family: x^a and x^b multiply into x^(a+b) with summed eigenvalues
    lam, c = 1.3, -0.7
    f = make_transformed_family(lam, [c])
    for a, b in [(1, 1), (1, 2), (2, 3)]:
        g1, l1 = Poly2.monomial(a, 0), a * lam / 2
        g2, l2 = Poly2.monomial(b, 0), b * lam / 2
        assert keig_residual(f, KeigCandidate(g1, l1)).is_zero()
        assert keig_residual(f, KeigCandidate(g2, l2)).is_zero()
        assert keig_residual(f, KeigCandidate(g1 * g2, l1 + l2)).is_zero()
    # quadratic family: the repulsion rate squared doubles the eigenvalue
    params = QuadraticParams(rng.uniform(-2, 2), rng.uniform(-2, 2))
    f = make_quadratic_family(params)
    s2 = quadratic_repulsion_rate(params)
    assert keig_residual(f, KeigCandidate(s2 * s2, 2 * params.lam)).is_zero()


def test_residual_report_shape():
    f = cubic_example_field()
    g = parse_polynomial("(x + y - 1)^2")
    pts = [(0.1 * i, 0.05 * i) for i in range(1, 11)]
    report = residual_report(f, KeigCandidate(g, 2.0), pts)
    assert set(report) == {"lambda", "max_abs_residual", "rms_residual", "samples"}
    assert report["samples"] == 10
    assert report["max_abs_residual"] < 1e-12


def _old_residual_report(f, cand, points):
    """residual_report with its own Poly2/callable branch and RMS."""
    res = keig_residual(f, cand)
    if isinstance(res, Poly2):
        vals = [res.evaluate(x, y) for x, y in points]
    else:
        vals = [res(x, y) for x, y in points]
    sq = sum(v * v for v in vals)
    return {
        "lambda": cand.lam,
        "max_abs_residual": max((abs(v) for v in vals), default=0.0),
        "rms_residual": math.sqrt(sq / len(vals)) if vals else 0.0,
        "samples": len(vals),
    }


def _old_best_lambda(f, g, samples):
    """best_lambda with its own RMS.  The old code squared with ``** 2``;
    ``r * r`` is kept here because libm ``pow`` is not always correctly
    rounded, so ``r ** 2`` and ``r * r`` can differ in the last bit."""
    if isinstance(g, Poly2):
        lg_poly = generator_apply(f, g)
        lg_vals = [lg_poly.evaluate(x, y) for x, y in samples]
        g_vals = [g.evaluate(x, y) for x, y in samples]
    else:
        pairs = [(_generator_at(f, g, x, y), observable_value(g, x, y)) for x, y in samples]
        lg_vals, g_vals = zip(*pairs)
    den = sum(gv * gv for gv in g_vals)
    lam_star = sum(lv * gv for lv, gv in zip(lg_vals, g_vals)) / den
    res = [lv - lam_star * gv for lv, gv in zip(lg_vals, g_vals)]
    return lam_star, math.sqrt(sum(r * r for r in res) / len(samples))


def _hexed(obj):
    if isinstance(obj, dict):
        return {k: _hexed(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return tuple(_hexed(v) for v in obj)
    return obj.hex() if isinstance(obj, float) else obj


def _observables():
    return [
        parse_polynomial("(x + y - 1)^2"),
        parse_polynomial("-1 + 3*y^2"),
        parse_polynomial("x*y - 0.25*x^3 + 2"),
        SaddleEigenfunction.monomial(1, 1.0),
        SaddleEigenfunction.constant(0.7, -2.0),
        lambda x, y: 3.0 * y * y / (1.0 - y * y) + 0.1 * x,
    ]


def test_residual_report_and_best_lambda_equal_old_formulas():
    rng = random.Random(211)
    fields = [VectorField2D.saddle(), cubic_example_field()]
    for f in fields:
        for g in _observables():
            for lam in (-2.0, 0.5, 1.0, 3.7):
                pts = [(rng.uniform(-1, 1), rng.uniform(0.05, 0.9)) for _ in range(37)]
                cand = KeigCandidate(g, lam)
                assert _hexed(residual_report(f, cand, pts)) == _hexed(
                    _old_residual_report(f, cand, pts))
            assert _hexed(residual_report(f, KeigCandidate(g, 1.0), [])) == _hexed(
                _old_residual_report(f, KeigCandidate(g, 1.0), []))
            assert _hexed(best_lambda(f, g, pts)) == _hexed(_old_best_lambda(f, g, pts))


def test_rms():
    assert rms([]) == 0.0
    assert rms(iter([3.0, -4.0])) == math.sqrt(12.5)
    assert rms([1e200, 1e200]) == math.inf


# -- best_lambda ----------------------------------------------------------------

def test_best_lambda_transformed_square():
    f = make_transformed_family(-1.0, [-1.0])
    samples = [(0.2 + 0.1 * i, -0.5 + 0.1 * i) for i in range(10)]
    lam_star, resnorm = best_lambda(f, Poly2.monomial(2, 0), samples)
    assert lam_star == pytest.approx(-1.0, abs=1e-12)
    assert resnorm < 1e-12


def test_best_lambda_constant_observable():
    f = VectorField2D.saddle()
    samples = [(0.1 * i, 0.05) for i in range(1, 6)]
    lam_star, resnorm = best_lambda(f, Poly2.constant(3.0), samples)
    assert lam_star == 0.0
    assert resnorm == 0.0


def test_best_lambda_saddle_rate_poor_fit():
    f = VectorField2D.saddle()
    g = parse_polynomial("-1 + 3*y^2")
    rng = random.Random(67)
    samples = _sample_points(rng, 60)
    _, resnorm = best_lambda(f, g, samples)
    assert resnorm > 0.01


def test_best_lambda_rejects_vanishing_observable():
    f = VectorField2D.saddle()
    with pytest.raises(ValueError):
        best_lambda(f, Poly2.x(), [(0.0, 0.1), (0.0, 0.2)])


# -- evolution --------------------------------------------------------------------

def test_evolution_cubic_example_rate():
    f = cubic_example_field()
    g = parse_polynomial("(x + y - 1)^2")
    err = evolution_check(f, KeigCandidate(g, 2.0), (0.5, 0.0), 0.5, CFG)
    assert err < 1e-6


def test_evolution_constant_zero_eigenvalue():
    f = VectorField2D.saddle()
    assert evolution_check(f, KeigCandidate(Poly2.constant(2.0), 0.0), (0.1, 0.1), 1.0, CFG) == 0.0


def test_evolution_saddle_closed_form():
    f = VectorField2D.saddle()

    def g(x, y):
        return 3.0 * y * y / (1.0 - y * y)

    err = evolution_check(f, KeigCandidate(g, -2.0), (1.0, 0.5), 1.0, CFG)
    assert err < 1e-6


def test_evolution_rejects_zero_start():
    f = cubic_example_field()
    g = parse_polynomial("(x + y - 1)^2")
    with pytest.raises(ValueError):
        evolution_check(f, KeigCandidate(g, 2.0), (0.5, 0.5), 0.5, CFG)


# -- pullback -----------------------------------------------------------------------

def _vertical_line_at_one():
    return DataSurface((1.0, 0.0), (0.0, 1.0), lambda s: 1.0)


def test_pullback_transformed_family_square():
    surf = _vertical_line_at_one()
    for lam in (-1.0, 1.0):
        f = make_transformed_family(lam, [-0.5])
        for x1 in (0.2, 0.5, 1.5, 3.0, 5.0):
            val = pullback_eigenfunction(f, surf, lam, (x1, 0.3), CFG, t_max=10.0)
            assert val == pytest.approx(x1 * x1, abs=1e-8)


def test_pullback_on_surface_is_exact():
    f = make_transformed_family(-1.0, [-1.0])
    surf = DataSurface((1.0, 0.0), (0.0, 1.0), lambda s: 2.0 + s)
    assert pullback_eigenfunction(f, surf, -1.0, (1.0, 0.7), CFG) == 2.7


def test_pullback_saddle_matches_closed_form_and_evolves():
    f = VectorField2D.saddle()
    surf = DataSurface((0.0, 0.5), (1.0, 0.0), lambda s: 1.0)
    lam = -2.0
    rng = random.Random(71)

    def phi(x, y):
        return pullback_eigenfunction(f, surf, lam, (x, y), CFG, t_max=20.0)

    for _ in range(20):
        pt = (rng.uniform(-1.5, 1.5), rng.uniform(0.15, 0.85))
        w = 3.0 * pt[1] ** 2 / (1.0 - pt[1] ** 2)
        assert phi(*pt) == pytest.approx(w, abs=1e-6)
        err = evolution_check(f, KeigCandidate(phi, lam), pt, 0.4, CFG)
        assert err < 1e-6


@pytest.mark.parametrize("y", [1.5, 1.6, -1.0])
def test_pullback_saddle_outside_the_strip_is_a_domain_error(y):
    # On the line (y = 1.5) too: the saddle is undefined there, so no h(s).
    f = VectorField2D.saddle()
    surf = DataSurface((0.0, 1.5), (1.0, 0.0), lambda s: 1.0)
    with pytest.raises(DomainError, match=rf"\(got y={y!r}\)"):
        pullback_eigenfunction(f, surf, 1.0, (0.3, y), CFG)


def test_bisection_midpoint_exactly_on_the_line():
    # x' = 1 from x = 1/16 in steps of 1/4 brackets the line x = 1 between
    # 0.8125 and 1.0625; the second bisection midpoint, 3/16, lands on it
    f = VectorField2D(Poly2.constant(1.0), Poly2())
    surf = DataSurface((1.0, 0.0), (0.0, 1.0), lambda s: 2.0 + s)
    cfg, x = IntegratorConfig(step=0.25), (0.0625, 0.5)
    found = _first_crossing(f, surf, x, surf.signed_distance(*x), cfg, 2.0, 1.0)
    assert found == (0.9375, (1.0, 0.5))
    assert pullback_eigenfunction(f, surf, -1.0, x, cfg, t_max=2.0) == 2.5 * math.exp(0.9375)


def test_pullback_no_crossing():
    # Rotation orbits circle the origin and never meet a line outside them.
    f = VectorField2D(parse_polynomial("-y"), parse_polynomial("x"))
    surf = DataSurface((2.0, 0.0), (0.0, 1.0), lambda s: 1.0)
    with pytest.raises(NoCrossingError):
        pullback_eigenfunction(f, surf, 1.0, (0.5, 0.0), IntegratorConfig(step=0.05), t_max=8.0)


def test_pullback_ignores_crossings_past_t_max():
    # Under x' = -x/2 the backward orbit of (e^(-tau/2), y) meets x = 1 at
    # time tau.  0.7 is not a whole number of 0.003 steps: the march's last
    # step ends at 0.702, past t_max.
    f = make_transformed_family(-1.0, [-0.5])
    cfg = IntegratorConfig(step=0.003)
    with pytest.raises(NoCrossingError):
        pullback_eigenfunction(f, _vertical_line_at_one(), -1.0, (math.exp(-0.3505), 0.2), cfg,
                               t_max=0.7)
    val = pullback_eigenfunction(f, _vertical_line_at_one(), -1.0, (math.exp(-0.3495), 0.2), cfg,
                                 t_max=0.7)
    assert val == 0.49708213744841639  # the value before t_max was enforced
    assert val == pytest.approx(math.exp(-0.699), abs=1e-9)


def test_tangential_crossing_warns():
    f = VectorField2D(parse_polynomial("-y"), parse_polynomial("x"))
    surf = DataSurface((1.0, 0.0), (0.0, 1.0), lambda s: 1.0)
    with pytest.warns(TangentialCrossingWarning):
        _warn_if_tangential(f, surf, (1.0, 0.0))


def test_data_surface_normalizes_direction():
    surf = DataSurface((0.0, 0.0), (3.0, 4.0), lambda s: s)
    assert math.hypot(*surf.direction) == pytest.approx(1.0, abs=1e-15)
    assert surf.signed_distance(0.0, 0.0) == 0.0
    pt = (surf.base[0] + 2.5 * surf.direction[0], surf.base[1] + 2.5 * surf.direction[1])
    assert surf.parameter(*pt) == pytest.approx(2.5, abs=1e-12)


# -- closed-form saddle eigenfunctions ------------------------------------------------

def test_saddle_eigenfunction_constant_zero_eigenvalue():
    phi = SaddleEigenfunction.constant(-1.0, lam=0.0)
    for y in (0.3, -0.6, 0.9):
        assert phi.value(2.0, y) == -1.0


def test_saddle_eigenfunction_unit_at_half():
    assert saddle_eigenfunction(-2.0, (7.0, 0.5)) == pytest.approx(1.0, abs=1e-15)


def test_saddle_eigenfunction_linear_data_gives_x():
    phi = SaddleEigenfunction.monomial(1, lam=1.0)
    for x, y in [(2.0, 0.3), (-1.5, 0.8), (0.7, -0.4)]:
        assert phi.value(x, y) == pytest.approx(x, rel=1e-14)


def test_saddle_eigenfunction_domain():
    phi = SaddleEigenfunction.constant(1.0, lam=-2.0)
    with pytest.raises(DomainError):
        phi.value(1.0, 0.0)
    with pytest.raises(DomainError):
        phi.value(1.0, 1.0)


def test_saddle_eigenfunction_residuals_tiny():
    # the closed form satisfies the generator identity to roundoff
    rng = random.Random(73)
    f = VectorField2D.saddle()
    observables = [
        SaddleEigenfunction.constant(1.0, lam)
        for lam in (0.0, -2.0, 1.0)
    ] + [
        SaddleEigenfunction.monomial(n, lam)
        for lam in (0.0, -2.0, 1.0)
        for n in (1, 2)
    ]
    pts = []
    while len(pts) < 100:
        x = rng.uniform(-2, 2)
        y = rng.uniform(-0.9, 0.9)
        if 0.05 <= abs(y) <= 0.9:
            pts.append((x, y))
    for obs in observables:
        res = keig_residual(f, KeigCandidate(obs, obs.lam))
        assert max(abs(res(x, y)) for x, y in pts) < 1e-10


def test_numeric_residual_fd_fallback():
    # plain callables carry no gradient; the stencil fallback still resolves
    # the eigenpair identity to finite-difference accuracy
    f = VectorField2D.saddle()

    def g(x, y):
        return 3.0 * y * y / (1.0 - y * y)

    res = keig_residual(f, KeigCandidate(g, -2.0))
    for pt in [(0.7, 0.3), (-1.2, 0.5), (0.1, -0.6)]:
        assert abs(res(*pt)) < 1e-8


def test_saddle_eigenfunction_gradient_matches_fd():
    phi = SaddleEigenfunction.monomial(2, lam=-1.0)
    h = 1e-6
    for x, y in [(1.2, 0.4), (-0.8, 0.6), (0.5, -0.7)]:
        gx, gy = phi.gradient(x, y)
        fx = (phi.value(x + h, y) - phi.value(x - h, y)) / (2 * h)
        fy = (phi.value(x, y + h) - phi.value(x, y - h)) / (2 * h)
        assert gx == pytest.approx(fx, rel=1e-7, abs=1e-8)
        assert gy == pytest.approx(fy, rel=1e-7, abs=1e-8)


# -- rate conditions on shear-free fields ----------------------------------------------

def test_condition_residual_quadratic_family():
    rng = random.Random(79)
    for _ in range(10):
        params = QuadraticParams(rng.uniform(-3, 3), rng.uniform(-3, 3))
        f = make_quadratic_family(params)
        assert keig_condition_residual(f, "s2", params.lam).is_zero()


def test_condition_residual_cubic_family():
    rng = random.Random(83)
    for _ in range(10):
        k = rng.choice([-1, 1]) * rng.uniform(0.1, 2.0)
        params = CubicParams(
            a10=rng.uniform(-2, 2), k=k, a20=rng.uniform(-2, 2), b00=rng.uniform(-2, 2)
        )
        f = make_cubic_family(params)
        assert keig_condition_residual(f, "s1", params.lam).is_zero()


def test_condition_residual_saddle_nonzero():
    f = VectorField2D.saddle()
    for lam in (0.0, 1.0, -1.0, 2.5):
        res = keig_condition_residual(f, "s1", lam)
        assert not res.is_zero()
        assert res.coeff(0, 4) == pytest.approx(6.0, abs=1e-14)


def test_condition_residual_needs_shear_free():
    f = make_transformed_family(1.0, [1.0])
    with pytest.raises(ValueError):
        keig_condition_residual(f, "s1", 1.0)


# -- the generated march against the loop it replaced ---------------------------------

def _old_first_crossing(f, surf, x, d_prev, cfg, t_max, time_sign):
    """``_first_crossing`` as written before the march was generated: one
    Python-level RK4 step per iteration, with a domain exit caught as
    :class:`DomainError`."""
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
                st_ = rk4(prev_state[0], prev_state[1], time_sign * mid)
                dm = surf.signed_distance(*st_)
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
        return (tau, state) if tau <= t_max else None
    return None


def _crossing_outcome(search, f, surf, x, cfg, t_max, time_sign):
    """``search``'s result with floats as hex, or the exception it raised
    (with its text)."""
    try:
        found = search(f, surf, x, surf.signed_distance(*x), cfg, t_max, time_sign)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc).__name__, str(exc)
    if found is None:
        return None
    tau, (sx, sy) = found
    return tau.hex(), sx.hex(), sy.hex()


#: The march's two paths: compiled (where a kernel loads) and the generated Python.
PATHS = ("compiled", "python")


def _on_path(f, path):
    """A new field equal to ``f`` whose march runs on ``path``.  Where a C
    compiler is on PATH, the compiled path must have loaded its kernel."""
    g = VectorField2D(f.p, f.q)
    g.is_saddle = f.is_saddle
    shapes, coeffs = _field_terms((f.p, f.q))
    if path == "python":
        g._rk4s["march"] = _rk4_factory(shapes, "march", f.is_saddle)(*coeffs)
    elif HAVE_CC:
        g._rk4("march")
        assert _native._KERNELS["march", shapes, f.is_saddle] is not None
    return g


def _searches_on_both_paths(f, surf, x, cfg, t_max, time_sign):
    """``_first_crossing``'s outcome, the same on both paths."""
    compiled, python = (_crossing_outcome(_first_crossing, _on_path(f, path), surf, x, cfg,
                                          t_max, time_sign) for path in PATHS)
    assert compiled == python
    return python


def _normal_form_field():
    return VectorField2D(Poly2({(1, 0): -0.5}),
                                    Poly2({(1, 0): 1.0, (0, 1): -0.5, (3, 0): -0.5}))


_MARCH_FIELDS = [
    _normal_form_field(),
    VectorField2D.saddle(),
    cubic_example_field(),
    make_quadratic_family(QuadraticParams(1.0, 1.0)),
]


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 3), base=st.tuples(st.floats(-1.0, 1.5), st.floats(-0.9, 0.9)),
       angle=st.floats(0.0, 2.0 * math.pi), offset=st.tuples(st.floats(-1.0, 1.0),
                                                             st.floats(-0.9, 0.9)),
       step=st.sampled_from([1e-3, 3e-3, 5e-3]), t_max=st.sampled_from([0.01, 0.3, 0.7, 1.3]),
       time_sign=st.sampled_from([-1.0, 1.0]))
def test_march_equals_old_loop(k, base, angle, offset, step, t_max, time_sign):
    f = _MARCH_FIELDS[k]
    surf = DataSurface(base, (math.cos(angle), math.sin(angle)), lambda s: s)
    x = (base[0] + offset[0], max(-0.95, min(0.95, base[1] + offset[1])))
    cfg = IntegratorConfig(step=step)
    assert (_searches_on_both_paths(f, surf, x, cfg, t_max, time_sign)
            == _crossing_outcome(_old_first_crossing, f, surf, x, cfg, t_max, time_sign))


def _both_searches(f, surf, x, cfg, t_max, time_sign):
    """The outcome of ``_first_crossing`` on both march paths, which equals
    the old loop's."""
    new = _searches_on_both_paths(f, surf, x, cfg, t_max, time_sign)
    assert new == _crossing_outcome(_old_first_crossing, f, surf, x, cfg, t_max, time_sign)
    return new


def test_march_saddle_domain_exit_mid_stage_ends_window():
    # Backward from y = 0.9 with step 0.6 the states creep towards y = 1.
    # The 21st state is still inside |y| < SADDLE_Y_BOUND, but a later stage
    # of the 22nd step leaves it, so the generated step raises DomainError
    # there, well before t_max; the backward window ends and the forward
    # orbit meets y = 0.5.
    f = VectorField2D.saddle()
    surf = DataSurface((0.0, 0.5), (1.0, 0.0), lambda s: 1.0 + s)
    cfg, x = IntegratorConfig(step=0.6), (0.3, 0.9)
    state, rk4, steps = x, f._rk4(), 0
    while True:
        try:
            state, steps = rk4(*state, -cfg.step), steps + 1
        except DomainError:
            break
    assert steps == 21 and abs(state[1]) < SADDLE_Y_BOUND
    assert _both_searches(f, surf, x, cfg, 30.0, -1.0) is None
    tau, sx, _ = _both_searches(f, surf, x, cfg, 30.0, 1.0)
    want = surf.h(float.fromhex(sx)) * math.exp(-2.0 * -float.fromhex(tau))
    assert pullback_eigenfunction(f, surf, -2.0, x, cfg, t_max=30.0) == want
    # A line between the guard and y = 1 is out of reach: the guard ends
    # the backward window before the orbit gets there.
    beyond = DataSurface((0.0, 1.0 - 5e-13), (1.0, 0.0), lambda s: 1.0)
    for step in (0.01, 0.1):
        assert _both_searches(f, beyond, x, IntegratorConfig(step=step), 30.0, -1.0) is None


def test_march_saddle_bisection_leaving_the_strip_raises():
    # The first backward step of 4 from (0.5, 0.25) has every stage inside
    # the strip and ends at y = 1.25, past the line y = 0.5; a stage of a
    # bisection step then leaves the strip.  The search raises the step's
    # own DomainError, as the old loop did, on both paths, and so does the
    # pullback.
    f = VectorField2D.saddle()
    surf = DataSurface((0.0, 0.5), (1.0, 0.0), lambda s: 1.0)
    cfg, x = IntegratorConfig(step=4.0), (0.5, 0.25)
    message = "saddle field is only defined for |y| < 1 (got y=1.0131179226782798)"
    assert f._rk4()(*x, -4.0) == (2.5, 1.2538518697217234)
    assert _both_searches(f, surf, x, cfg, 16.0, -1.0) == ("DomainError", message)
    for path in PATHS:
        with pytest.raises(DomainError) as exc:
            pullback_eigenfunction(_on_path(f, path), surf, 1.0, x, cfg, t_max=16.0)
        assert str(exc.value) == message


_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, SADDLE_Y_BOUND,
                             -SADDLE_Y_BOUND, 1.0, -1.0, 5e-324])


@settings(max_examples=300)
@given(y=st.one_of(_SPECIAL, st.floats()), bound=st.one_of(_SPECIAL, st.floats()))
@example(y=math.nan, bound=SADDLE_Y_BOUND)
@example(y=-0.0, bound=SADDLE_Y_BOUND)
def test_march_guard_equals_the_abs_guard(y, bound):
    """The march's stage guard ``-bound < y < bound`` decides as
    ``abs(y) < bound`` did for every pair of floats, NaN and infinities
    included."""
    assert (-bound < y < bound) == (abs(y) < bound)


def test_march_blow_up_is_no_crossing():
    # x' = x^2 reaches infinity at time 1/2 from x = 2.  The march ends on
    # the first non-finite state, whose signed distance to the line
    # x = 1.79e308 would otherwise change sign, instead of bisecting or
    # raising.
    f = VectorField2D(Poly2({(2, 0): 1.0}), Poly2.zero())
    surf = DataSurface((1.79e308, 0.0), (0.0, 1.0), lambda s: 1.0)
    cfg, x = IntegratorConfig(step=0.01), (2.0, 0.0)
    assert _both_searches(f, surf, x, cfg, 2.0, 1.0) is None
    with pytest.raises(NoCrossingError):
        pullback_eigenfunction(f, surf, 1.0, x, cfg, t_max=2.0)


def test_march_exact_landing_on_the_line():
    # x' = 1 with step 3/8: h/6 = 1/16 and every step is exact, so the
    # fourth forward step lands on x = 1.5 with d == 0.0 and no bisection.
    f = VectorField2D(Poly2.constant(1.0), Poly2.zero())
    surf = DataSurface((1.5, 0.0), (0.0, 1.0), lambda s: 3.0 + s)
    cfg, x = IntegratorConfig(step=0.375), (0.0, 0.25)
    found = _first_crossing(f, surf, x, surf.signed_distance(*x), cfg, 10.0, 1.0)
    assert found == (1.5, (1.5, 0.25))
    assert _both_searches(f, surf, x, cfg, 10.0, 1.0) == (1.5.hex(), 1.5.hex(), 0.25.hex())
    assert pullback_eigenfunction(f, surf, 0.5, x, cfg, t_max=10.0) == 3.25 * math.exp(-0.75)
    # the same landing past t_max is none
    assert _both_searches(f, surf, x, cfg, 1.4, 1.0) is None


def test_march_bracket_past_t_max_is_none():
    # The t_max case of test_pullback_ignores_crossings_past_t_max: the
    # bracketing step ends at 0.702 > 0.7 and both searches report none.
    f = make_transformed_family(-1.0, [-0.5])
    cfg = IntegratorConfig(step=0.003)
    x = (math.exp(-0.3505), 0.2)
    assert _both_searches(f, _vertical_line_at_one(), x, cfg, 0.7, -1.0) is None
    assert _both_searches(f, _vertical_line_at_one(), x, cfg, 0.703, -1.0) is not None
