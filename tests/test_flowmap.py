"""Integrator, Cauchy-Green tensors, and FTLE tests against analytic oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ilekoop import flowmap, strain
from ilekoop.errors import DomainError, NumericalError
from ilekoop.expr import Poly2
from ilekoop.expr import parse_polynomial
from ilekoop.families import (
    CubicParams,
    QuadraticParams,
    make_cubic_family,
    make_quadratic_family,
    make_transformed_family,
)
from ilekoop.flowmap import (
    IntegratorConfig,
    cauchy_green,
    flow_endpoint,
    ftle,
    ftle_field,
    integrate,
    saddle_cauchy_green,
    saddle_ftle,
)
from ilekoop.strain import Grid2D, strain_rates
from ilekoop.vectorfield import VectorField2D, _field_terms, _rk4_factory, analytic_saddle_flow

CFG = IntegratorConfig(step=1e-3)


def test_integrate_saddle_endpoint():
    traj = integrate(VectorField2D.saddle(), (1.0, 0.0), 1.0, CFG)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 1.0
    x, y = traj.states[-1]
    assert abs(x - math.e) < 1e-10
    assert y == 0.0


def test_integrate_zero_time():
    traj = integrate(VectorField2D.saddle(), (0.4, 0.2), 0.0, CFG)
    assert traj.times == [0.0]
    assert traj.states == [(0.4, 0.2)]


def test_integrate_partial_final_step():
    t = 0.12345
    traj = integrate(VectorField2D.saddle(), (1.0, 0.3), t, CFG)
    assert traj.times[-1] == t
    exact = analytic_saddle_flow((1.0, 0.3), t)
    assert traj.states[-1] == pytest.approx(exact, rel=1e-11)


def test_integrate_transformed_first_coordinate():
    lam = -1.0
    f = make_transformed_family(lam, [-1.0])
    end = flow_endpoint(f, (1.0, 0.0), 1.0, CFG)
    assert abs(end[0] - math.exp(lam * 0.5)) < 1e-9


def test_integrate_backward_matches_analytic():
    end = flow_endpoint(VectorField2D.saddle(), (0.7, 0.5), -0.8, CFG)
    exact = analytic_saddle_flow((0.7, 0.5), -0.8)
    assert end == pytest.approx(exact, rel=1e-11)


def test_trajectory_times_strictly_monotone():
    f = VectorField2D.saddle()
    for t in (0.0123, -0.0123):
        traj = integrate(f, (0.5, 0.2), t, IntegratorConfig(step=5e-3))
        diffs = [b - a for a, b in zip(traj.times, traj.times[1:])]
        assert all(d > 0 for d in diffs) or all(d < 0 for d in diffs)
        assert traj.times[-1] == t
        assert len(traj.times) == len(traj.states)


def test_integrate_step_budget():
    with pytest.raises(ValueError):
        integrate(VectorField2D.saddle(), (1.0, 0.0), 1e7, IntegratorConfig(step=1e-3))


def test_integrate_domain_exit():
    # Backward flow pushes |y| toward 1; far enough back it leaves the domain.
    with pytest.raises(DomainError):
        integrate(VectorField2D.saddle(), (0.0, 0.999999), -20.0, IntegratorConfig(step=1e-2))


def test_integrate_finite_time_blowup():
    from ilekoop.errors import NumericalError

    f = VectorField2D(parse_polynomial("1 + x^2"), parse_polynomial("0"))
    with pytest.raises(NumericalError):
        integrate(f, (0.0, 0.0), 2.0, IntegratorConfig(step=1e-3))


def test_rk4_fourth_order_on_saddle():
    pt, t = (1.0, 0.5), 1.0
    exact = analytic_saddle_flow(pt, t)

    def err(step):
        end = flow_endpoint(VectorField2D.saddle(), pt, t, IntegratorConfig(step=step))
        return math.hypot(end[0] - exact[0], end[1] - exact[1])

    e1, e2 = err(0.02), err(0.01)
    assert e1 / e2 >= 12.0


def test_cauchy_green_saddle_axis():
    c = cauchy_green(VectorField2D.saddle(), (1.0, 0.0), -0.5, CFG)
    assert c.sxx == pytest.approx(math.exp(-1.0), abs=1e-6)
    assert c.syy == pytest.approx(math.exp(1.0), abs=1e-6)
    assert c.sxy == pytest.approx(0.0, abs=1e-6)


def test_cauchy_green_identity_at_zero_time():
    c = cauchy_green(VectorField2D.saddle(), (0.3, 0.2), 0.0, CFG)
    assert c.sxx == pytest.approx(1.0, abs=1e-9)
    assert c.syy == pytest.approx(1.0, abs=1e-9)
    assert c.sxy == pytest.approx(0.0, abs=1e-9)


def test_cauchy_green_matches_saddle_oracle():
    rng = random.Random(37)
    f = VectorField2D.saddle()
    for _ in range(25):
        pt = (rng.uniform(-2, 2), rng.uniform(-0.8, 0.8))
        t = rng.uniform(-0.8, -0.1)
        got = cauchy_green(f, pt, t, CFG)
        want = saddle_cauchy_green(pt, t)
        assert got.sxx == pytest.approx(want.sxx, abs=1e-5)
        assert got.syy == pytest.approx(want.syy, abs=1e-5)
        assert got.sxy == pytest.approx(0.0, abs=1e-5)


def test_cauchy_green_positive_semidefinite():
    rng = random.Random(41)
    fields = [
        VectorField2D.saddle(),
        make_transformed_family(1.0, [0.5]),
        VectorField2D(parse_polynomial("x*y"), parse_polynomial("y - x^2")),
    ]
    for f in fields:
        for _ in range(15):
            pt = (rng.uniform(-1, 1), rng.uniform(-0.7, 0.7))
            t = rng.uniform(-0.5, 0.5) or 0.25
            c = cauchy_green(f, pt, t, CFG)
            lo, _ = c.eigenvalues()
            assert lo >= -1e-10


def test_ftle_saddle_axis_value():
    val = ftle(VectorField2D.saddle(), (1.0, 0.0), -0.5, CFG)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_ftle_small_time_near_rate():
    val = ftle(VectorField2D.saddle(), (1.0, 0.5), -0.01, CFG)
    assert val == pytest.approx(0.25, abs=0.05)


def test_ftle_linear_field_any_time():
    f = VectorField2D(parse_polynomial("x"), parse_polynomial("-y"))
    for t in (0.7, -0.4, 1.5):
        assert ftle(f, (0.2, -0.1), t, CFG) == pytest.approx(1.0, abs=1e-8)


def test_point_paths_return_floats():
    f = VectorField2D.saddle()
    assert type(ftle(f, (0.3, 0.2), -0.1, CFG)) is float
    assert [type(v) for v in strain_rates(f, 0.3, 0.2)] == [float, float]
    c = cauchy_green(f, (0.3, 0.2), -0.1, CFG)
    assert [type(v) for v in c.eigenvalues()] == [float, float]
    assert [type(v) for v in (c.sxx, c.sxy, c.syy)] == [float, float, float]
    xs = np.array([0.3, 0.4])
    assert ftle(f, (xs, xs - 0.1), -0.1, CFG).shape == (2,)


@pytest.mark.parametrize("field", ["saddle", "cubic"])
def test_float_tangent_step_returns_six_floats(field):
    """A point carries its flow-map gradient as four Python floats, not as
    numpy arrays, so one point's FTLE runs at float cost."""
    f = (VectorField2D.saddle() if field == "saddle"
         else make_cubic_family(CubicParams(2.0, 2.0 / 3.0, -1.0 / 3.0, -2.0)))
    state = f._rk4("tangent")(0.3, 0.2, 1.0, 0.0, 0.0, 1.0, -1e-3)
    assert [type(v) for v in state] == [float] * 6


def test_ftle_of_an_underflowing_gradient_is_minus_inf():
    # each RK4 step scales the flow-map gradient by 0.375, so by t = 1 it is
    # 0; a clamp on log 0 made this -345.38776394910684
    f = VectorField2D(parse_polynomial("-1000*x"), parse_polynomial("-1000*y"))
    with np.errstate(divide="ignore"):
        assert ftle(f, (0.5, -0.5), 1.0, CFG) == -math.inf
        with pytest.raises(NumericalError, match="FTLE is not finite"):
            ftle_field(f, Grid2D(-1.0, 1.0, 3, -1.0, 1.0, 3), 1.0, None, CFG)


def test_blow_up_is_a_numerical_error():
    # x' = x^2 from x = 10 leaves every double before t = 0.1
    f = VectorField2D(parse_polynomial("x^2"), Poly2())
    with pytest.raises(NumericalError, match="^trajectory became non-finite$"):
        flow_endpoint(f, (10.0, 0.0), 1.0, CFG)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="^trajectory became non-finite$"):
        flowmap._advance(f._rk4(), 1.0, CFG.step, np.array([0.5, 10.0]), np.zeros(2))


def _counting(step, finite):
    """``step`` that appends to ``finite`` whether each state it returns is finite."""
    def counted(*args):
        out = step(*args)
        finite.append(all(np.isfinite(v).all() for v in out))
        return out

    return counted


def test_blow_up_stops_stepping_soon():
    # x' = x^2 from x = 10 leaves every double before t = 0.1: about 100
    # steps into a plan of 10,000, after which inf and NaN stepped to the end
    f = VectorField2D(parse_polynomial("x^2"), Poly2())
    finite = []
    f._rk4s["step"] = _counting(f._rk4(), finite)
    with pytest.raises(NumericalError, match="^trajectory became non-finite$"):
        flow_endpoint(f, (10.0, 0.0), 10.0, CFG)
    assert 0 < finite.index(False) < len(finite) <= finite.index(False) + 64
    finite.clear()
    f._rk4s["tangent"] = _counting(f._rk4("tangent"), finite)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="^trajectory became non-finite$"):
        ftle_field(f, Grid2D(0.0, 10.0, 3, -1.0, 1.0, 3), 10.0, None, CFG)
    assert 0 < finite.index(False) < len(finite) <= finite.index(False) + 64


def test_ftle_rejects_zero_time():
    with pytest.raises(ValueError):
        ftle(VectorField2D.saddle(), (0.0, 0.0), 0.0, CFG)


def test_ftle_matches_saddle_formula():
    rng = random.Random(43)
    f = VectorField2D.saddle()
    for _ in range(30):
        pt = (rng.uniform(-2, 2), rng.uniform(-0.7, 0.7))
        got = ftle(f, pt, -0.5, CFG)
        assert got == pytest.approx(saddle_ftle(pt, -0.5), abs=1e-5)


def test_ftle_field_small_time_limit():
    grid = Grid2D(-1.0, 1.0, 21, -0.75, 0.75, 21)
    sf = ftle_field(VectorField2D.saddle(), grid, -0.05, None, CFG)
    ys = grid.ys()
    worst = 0.0
    for iy in range(grid.ny):
        expected = 1.0 - 3.0 * ys[iy] * ys[iy]
        worst = max(worst, float(np.max(np.abs(sf.values[iy] - expected))))
    assert worst <= 0.15


def test_ftle_field_error_shrinks_with_time():
    grid = Grid2D(-0.5, 0.5, 5, 0.45, 0.55, 5)
    f = VectorField2D.saddle()

    def max_err(t):
        sf = ftle_field(f, grid, t, None, CFG)
        ys = grid.ys()
        return max(
            float(np.max(np.abs(sf.values[iy] - saddle_ftle((0.0, ys[iy]), t))))
            for iy in range(grid.ny)
        )

    # error against the instantaneous limit is linear in |t|
    def limit_err(t):
        sf = ftle_field(f, grid, t, None, CFG)
        ys = grid.ys()
        return max(
            float(np.max(np.abs(sf.values[iy] - (1.0 - 3.0 * ys[iy] ** 2))))
            for iy in range(grid.ny)
        )

    assert max_err(-0.05) < 1e-12  # the tangent-map FTLE tracks the formula
    assert limit_err(-0.025) <= 0.65 * limit_err(-0.05)


def test_ftle_field_symmetric_in_y():
    grid = Grid2D(-1.0, 1.0, 7, -0.5, 0.5, 9)
    sf = ftle_field(VectorField2D.saddle(), grid, -0.1, None, CFG)
    assert np.allclose(sf.values, sf.values[::-1], rtol=0, atol=1e-12)


def test_ftle_field_threads_bitwise_identical():
    grid = Grid2D(-1.0, 1.0, 13, -0.6, 0.6, 11)
    a = ftle_field(VectorField2D.saddle(), grid, -0.1, None, CFG, threads=1)
    b = ftle_field(VectorField2D.saddle(), grid, -0.1, None, CFG, threads=4)
    assert np.array_equal(a.values, b.values)
    # polynomial fields run through the array polynomial evaluator
    f = make_transformed_family(-1.0, [-0.5])
    cfg = IntegratorConfig(step=1e-2)
    a = ftle_field(f, grid, -0.5, None, cfg, threads=1)
    b = ftle_field(f, grid, -0.5, None, cfg, threads=5)
    assert np.array_equal(a.values, b.values)


def test_ftle_to_rate_limit_linear_in_time():
    f = VectorField2D.saddle()
    pt = (0.3, 0.5)
    s1, _ = strain_rates(f, *pt)
    errs = [abs(ftle(f, pt, t, CFG) + s1) for t in (-0.08, -0.04, -0.02)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.35)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e6])
def test_step_budget_shared_by_every_driver(t):
    f = VectorField2D.saddle()
    cfg = IntegratorConfig(step=1e-9)
    grid = Grid2D(-0.5, 0.5, 3, -0.5, 0.5, 3)
    with pytest.raises(ValueError):
        integrate(f, (0.1, 0.1), t, cfg)
    with pytest.raises(ValueError):
        flow_endpoint(f, (0.1, 0.1), t, cfg)
    with pytest.raises(ValueError):
        ftle_field(f, grid, t, None, cfg, threads=2)


def test_array_and_scalar_stepping_agree_bitwise():
    from ilekoop.flowmap import _advance  # the generated step, on arrays

    for f in (VectorField2D.saddle(), make_transformed_family(-1.0, [-0.5])):
        xs = np.linspace(-0.6, 0.6, 5)
        ys = np.linspace(-0.5, 0.4, 5)
        ex, ey = _advance(f._rk4(), -0.0537, 1e-2, xs, ys)
        for k in range(5):
            end = flow_endpoint(f, (float(xs[k]), float(ys[k])), -0.0537, IntegratorConfig(1e-2))
            assert end == (ex[k], ey[k])


# 110x110 < 12,288 < 111x111 nodes straddle one block, 135x135 < 1.5 x 12,288
# < 136x136 the size where a serial grid first takes two blocks, 156x156 <
# 2 x 12,288 < 157x157 the size where a second thread starts; at 272x272 two
# threads share four blocks.  55-68 straddled the same sizes for 3,072 nodes.
@pytest.mark.parametrize("side", [21, 55, 56, 67, 68, 101, 110, 111, 135, 136, 156, 157, 161,
                                  272])
def test_grid_bytes_do_not_depend_on_threads(side):
    f = make_cubic_family(CubicParams(2.0, 2.0 / 3.0, -1.0 / 3.0, -2.0))
    grid = Grid2D(0.1, 0.9, side, 0.1, 0.9, side)
    cfg = IntegratorConfig(step=1e-2)
    ftles = [ftle_field(f, grid, -0.05, None, cfg, threads=n).values.tobytes() for n in (1, 2, 3)]
    rates = [strain.rate_field(f, grid, "s1", threads=n).values.tobytes() for n in (1, 2, 3)]
    assert ftles[0] == ftles[1] == ftles[2]
    assert rates[0] == rates[1] == rates[2]
    floor = strain._CHUNK_NODES
    for threads in (1, 2):
        chunks = []

        def record(xv, yv):
            chunks.append(yv[:, 0].tolist())
            return xv + yv

        strain._sample_grid(grid, record, threads)
        # every row exactly once (in order when serial), in a multiple of the
        # threads in use of blocks of about that many times the floor
        used = max(1, min(threads, side * side // floor))
        assert [y for rows in (chunks if threads == 1 else sorted(chunks)) for y in rows] \
            == grid.ys().tolist()
        assert len(chunks) == used * max(1, round(side * side / (used * used * floor)))
        assert all(len(rows) * side <= 1.5 * used * floor + side for rows in chunks)


def test_small_grids_run_serially(monkeypatch):
    def no_pool(*_, **__):
        raise AssertionError("a small grid started a thread pool")

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
    grid = Grid2D(0.1, 0.9, 21, 0.1, 0.9, 21)
    ftle_field(make_transformed_family(-1.0, [-0.5]), grid, -0.05, None, CFG, threads=4)


def test_ftle_overflow_is_a_numerical_error():
    # finite endpoints near 1e156, whose squared gradient overflows
    f = VectorField2D(Poly2({(1, 0): 360.0}), Poly2())
    with pytest.raises(NumericalError), np.errstate(over="ignore", invalid="ignore"):
        ftle_field(f, Grid2D(0.0, 1.0, 3, 0.0, 1.0, 3), 1.0, None, CFG)


# -- one FTLE path for points and grids --------------------------------------------

def _fields_and_boxes():
    return [
        (make_cubic_family(CubicParams(2.0, 2.0 / 3.0, -1.0 / 3.0, -2.0)), (0.1, 0.9, 0.1, 0.9)),
        (make_quadratic_family(QuadraticParams(1.0, 1.0)), (0.1, 0.9, 0.1, 0.9)),
        (make_transformed_family(-1.0, [-0.5]), (0.2, 1.2, -0.5, 0.5)),
        (VectorField2D.saddle(), (-1.0, 1.0, -0.75, 0.75)),
    ]


@pytest.mark.parametrize("t", [-0.05, 0.03])
@pytest.mark.parametrize("k", range(4))
def test_point_ftle_equals_grid_node(monkeypatch, k, t):
    """``ftle`` at a float point, ``ftle`` over arrays and every node of
    ``ftle_field`` at threads 1/2/3 agree bit for bit."""
    monkeypatch.setattr(strain, "_CHUNK_NODES", 1)  # let 12 rows split unevenly
    f, (x0, x1, y0, y1) = _fields_and_boxes()[k]
    grid = Grid2D(x0, x1, 11, y0, y1, 12)
    yv, xv = np.meshgrid(grid.ys(), grid.xs(), indexing="ij")
    whole = ftle(f, (xv, yv), t, CFG)
    points = np.array([[ftle(f, (x, y), t, CFG) for x in grid.xs().tolist()]
                       for y in grid.ys().tolist()])
    assert whole.tobytes() == points.tobytes()
    for threads in (1, 2, 3):
        assert ftle_field(f, grid, t, None, CFG, threads).values.tobytes() == whole.tobytes()


def test_cauchy_green_arrays_equal_points():
    f = make_transformed_family(-1.0, [-0.5])
    xs, ys = np.linspace(0.2, 1.2, 7), np.linspace(-0.5, 0.4, 7)
    c = cauchy_green(f, (xs, ys), -0.05, CFG)
    for k in range(7):
        p = cauchy_green(f, (float(xs[k]), float(ys[k])), -0.05, CFG)
        assert (p.sxx, p.sxy, p.syy) == (c.sxx[k], c.sxy[k], c.syy[k])


def _old_ftle_field(f, grid, t, delta, cfg, threads):
    """``ftle_field`` by the finite-difference method it used before the
    tangent step: centered differences of four offset trajectories per node,
    a private stretch closure per chunk and one log over the assembled grid."""
    from ilekoop.flowmap import _advance

    _LOG_FLOOR = 1e-300  # the old code's clamp on log 0

    def stretch(xv, yv):
        ex, ey = _advance(
            f._rk4(),
            t,
            cfg.step,
            np.concatenate([xv + delta, xv - delta, xv, xv]),
            np.concatenate([yv, yv, yv + delta, yv - delta]),
        )
        xp, xm, yp, ym = zip(np.split(ex, 4), np.split(ey, 4))
        f11 = (xp[0] - xm[0]) / (2.0 * delta)
        f21 = (xp[1] - xm[1]) / (2.0 * delta)
        f12 = (yp[0] - ym[0]) / (2.0 * delta)
        f22 = (yp[1] - ym[1]) / (2.0 * delta)
        c = strain.SymTensor2(f11 * f11 + f21 * f21, f11 * f12 + f21 * f22,
                              f12 * f12 + f22 * f22)
        return c.eigenvalues()[1]

    lam2 = strain._sample_grid(grid, stretch, threads)
    return np.log(np.maximum(lam2, _LOG_FLOOR)) / (2.0 * abs(t))


@pytest.mark.parametrize("k", range(4))
def test_ftle_field_equals_old_stretch_path(monkeypatch, k):
    """The tangent-map FTLE equals the finite-difference one up to that
    method's own error, which reached 1.3e-9 on these grids."""
    monkeypatch.setattr(strain, "_CHUNK_NODES", 1)
    f, (x0, x1, y0, y1) = _fields_and_boxes()[k]
    grid = Grid2D(x0, x1, 9, y0, y1, 10)
    for t, threads in ((-0.05, 1), (0.03, 3)):
        got = ftle_field(f, grid, t, None, CFG, threads).values
        assert np.max(np.abs(got - _old_ftle_field(f, grid, t, 1e-5, CFG, threads))) <= 1e-8


# -- the tangent step against closed forms -------------------------------------------

@pytest.mark.parametrize("t", [-0.05, -0.1, 0.05, -0.5, 0.5])
def test_saddle_ftle_matches_closed_form(t):
    # saddle_ftle takes the larger eigenvalue of the diagonal closed-form
    # Cauchy-Green tensor: in forward time at (0, 0.5) that is sxx, FTLE 1
    f = VectorField2D.saddle()
    grid = Grid2D(-1.0, 1.0, 101, -0.75, 0.75, 101)
    got = ftle_field(f, grid, t, None, CFG).values
    want = [[saddle_ftle((x, y), t) for x in grid.xs().tolist()] for y in grid.ys().tolist()]
    assert np.max(np.abs(got - np.array(want))) <= 1e-12
    rng = random.Random(47)
    pts = [(0.0, 0.5)] + [(rng.uniform(-1.0, 1.0), rng.uniform(-0.75, 0.75)) for _ in range(10)]
    for pt in pts:
        assert abs(ftle(f, pt, t, CFG) - saddle_ftle(pt, t)) <= 1e-12
        c = saddle_cauchy_green(pt, t)
        if t < 0.0 and c.syy >= c.sxx:  # as the y-direction formula gave, bit for bit
            assert saddle_ftle(pt, t) == -math.log(c.syy) / (2.0 * t)
    if t > 0.0:
        assert saddle_ftle((0.0, 0.5), t) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lam, c, t", [(1.2, 0.7, -0.08), (-0.9, -0.4, 0.06), (0.6, -1.0, 0.1)])
def test_normal_form_ftle_matches_exact_flow(lam, c, t):
    # x' = lam*x/2 and y' = -lam*x + lam*y/2 + c*x^3 flow to x*e1 and
    # e1*(y - lam*t*x) + (c/lam)*x^3*(e3 - e1), e1 = e^(lam*t/2), e3 = e1^3
    f = VectorField2D(Poly2({(1, 0): 0.5 * lam}),
                      Poly2({(1, 0): -lam, (0, 1): 0.5 * lam, (3, 0): c}))
    grid = Grid2D(-1.2, 1.2, 41, -1.1, 1.1, 37)
    yv, xv = np.meshgrid(grid.ys(), grid.xs(), indexing="ij")
    e1, e3 = math.exp(0.5 * lam * t), math.exp(1.5 * lam * t)
    f21 = -lam * t * e1 + 3.0 * (c / lam) * (e3 - e1) * xv * xv
    lam2 = strain.SymTensor2(e1 * e1 + f21 * f21, f21 * e1, e1 * e1).eigenvalues()[1]
    want = np.log(lam2) / (2.0 * abs(t))
    assert np.max(np.abs(ftle_field(f, grid, t, None, CFG).values - want)) <= 1e-12


# -- the generated RK4 step against the formula it replaced -------------------------

def _old_rk4_step(ev, x, y, h):
    """The RK4 step as written before the field step was generated; ``ev``
    is ``f.evaluate`` for floats or ``f.evaluate_arrays`` for arrays."""
    u1, v1 = ev(x, y)
    u2, v2 = ev(x + 0.5 * h * u1, y + 0.5 * h * v1)
    u3, v3 = ev(x + 0.5 * h * u2, y + 0.5 * h * v2)
    u4, v4 = ev(x + h * u3, y + h * v3)
    return (
        x + (h / 6.0) * (u1 + 2.0 * u2 + 2.0 * u3 + u4),
        y + (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4),
    )


def _outcome(step, *args):
    """Bit pattern of the result, or the domain error's type and message."""
    try:
        x, y = step(*args)
    except DomainError as exc:
        return type(exc), str(exc)
    return np.asarray(x, dtype=float).tobytes(), np.asarray(y, dtype=float).tobytes()


_COEFFS = st.one_of(st.sampled_from([1.0, -1.0, 0.5, -0.0]),
                    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False))
_COMPONENT = st.one_of(
    st.just({}),
    st.builds(lambda c: {(0, 0): c}, _COEFFS),
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _COEFFS, max_size=6),
)
_COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(-1.5, 1.5, allow_nan=False))
_STEP = st.one_of(st.sampled_from([0.0, -0.0, 1e-3, -1e-2, 0.25]),
                  st.floats(-0.5, 0.5, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(p=_COMPONENT, q=_COMPONENT, h=_STEP,
       pts=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=4))
@example(p={(1, 0): 1.0}, q={(0, 1): -1.0, (0, 3): 1.0}, h=-0.0, pts=[(-0.0, 0.0)])
@example(p={(0, 0): -0.0}, q={}, h=-0.0, pts=[(-0.0, -0.0), (0.0, -0.0)])
def test_generated_step_matches_old_formula(p, q, h, pts):
    f = VectorField2D(Poly2(p), Poly2(q))
    step = f._rk4()
    for x, y in pts:
        assert _outcome(step, x, y, h) == _outcome(_old_rk4_step, f.evaluate, x, y, h)
    xs, ys = (np.array(c) for c in zip(*pts))
    new = _outcome(step, xs, ys, h)
    assert new == _outcome(_old_rk4_step, f.evaluate_arrays, xs, ys, h)
    # each array element carries the bits of the scalar step
    for k, (x, y) in enumerate(pts):
        assert (new[0][8 * k:8 * k + 8], new[1][8 * k:8 * k + 8]) == _outcome(step, x, y, h)


@settings(max_examples=300, deadline=None)
@given(x=_COORD, y=st.floats(0.5, 1.0, exclude_max=True), h=st.floats(-12.0, 12.0),
       sign=st.sampled_from([1.0, -1.0]))
def test_generated_saddle_step_matches_old_formula(x, y, h, sign):
    f = VectorField2D.saddle()
    y = sign * y
    assert _outcome(f._rk4(), x, y, h) == _outcome(_old_rk4_step, f.evaluate, x, y, h)
    xs, ys = np.array([x, 0.0]), np.array([y, 0.0])
    assert _outcome(f._rk4(), xs, ys, h) == _outcome(_old_rk4_step, f.evaluate_arrays, xs, ys, h)


@settings(max_examples=300, deadline=None)
@given(p=_COMPONENT, q=_COMPONENT, h=_STEP,
       pts=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=4))
@example(p={(1, 0): 1.0, (0, 1): 1.0}, q={(0, 1): 1.0, (1, 1): 2.0}, h=0.25, pts=[(0.5, -0.5)])
@example(p={(0, 0): 1.0}, q={}, h=1e-3, pts=[(1.0, 1.0), (-0.0, 0.0)])
def test_generated_step_leaves_its_inputs_alone(p, q, h, pts):
    """The step and the tangent step are chained, so they write into no
    input: floats, equal-shape arrays and one float with one array keep
    their bits, and a mixed call carries the float step's bits at every
    element.  The generated tangent step also keeps the one array of ones
    and the one of zeros that ``cauchy_green`` passes as the gradient's four
    entries (``tests/test_native.py`` checks the compiled one, which only
    reads its inputs)."""
    f = VectorField2D(Poly2(p), Poly2(q))
    shapes, coeffs = _field_terms((f.p, f.q, *f._jac))
    step, tangent = f._rk4(), _rk4_factory(shapes, "tangent", False)(*coeffs)
    xs, ys = (np.array(c) for c in zip(*pts))
    one, zero = np.ones(xs.shape), np.zeros(xs.shape)
    for state in ((*pts[0], 1.0, 0.0, 0.0, 1.0), (xs, ys, one, zero, zero, one),
                  (xs, ys, np.ones(xs.shape), zero, np.zeros(xs.shape), one)):
        before = [np.array(v).tobytes() for v in state]
        tangent(*state, h)
        assert [np.array(v).tobytes() for v in state] == before
    x0, y0 = pts[0]
    for x, y in ((x0, y0), (xs, ys), (x0, ys), (xs, y0)):
        before = [np.array(v).tobytes() for v in (x, y)]
        xn, yn = step(x, y, h)
        assert [np.array(v).tobytes() for v in (x, y)] == before
        for k in range(len(pts)):
            xk, yk = (float(v[k]) if isinstance(v, np.ndarray) else v for v in (x, y))
            got = [np.broadcast_to(v, xs.shape)[k] for v in (xn, yn)]
            assert np.array(got).tobytes() == np.array(step(xk, yk, h)).tobytes()


@settings(max_examples=300, deadline=None)
@given(p=_COMPONENT, q=_COMPONENT, h=_STEP,
       pts=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=4))
@example(p={(1, 0): 1.0}, q={(0, 1): -1.0, (0, 3): 1.0}, h=-0.0, pts=[(-0.0, 0.0)])
@example(p={}, q={}, h=0.25, pts=[(0.5, -0.5)])
def test_tangent_step_moves_the_point_as_the_step_does(p, q, h, pts):
    """The tangent step's (x, y) carries the bits of the RK4 step, on floats
    and on arrays, and each array element's gradient those of the float one.
    Arrays run the generated Python tangent here, so no kernel is built per
    field; ``tests/test_native.py`` holds the compiled one to its bits."""
    f = VectorField2D(Poly2(p), Poly2(q))
    shapes, coeffs = _field_terms((f.p, f.q, *f._jac))
    step, tangent = f._rk4(), _rk4_factory(shapes, "tangent", False)(*coeffs)
    xs, ys = (np.array(c) for c in zip(*pts))
    one, zero = np.ones(xs.shape), np.zeros(xs.shape)
    whole = [np.asarray(v, dtype=float) for v in tangent(xs, ys, one, zero, zero, one, h)]
    assert [v.tobytes() for v in whole[:2]] == [v.tobytes() for v in step(xs, ys, h)]
    for k, (x, y) in enumerate(pts):
        xn, yn, *grad = tangent(x, y, 1.0, 0.0, 0.0, 1.0, h)
        assert np.array([xn, yn]).tobytes() == np.array(step(x, y, h)).tobytes()
        assert np.array([whole[0][k], whole[1][k]]).tobytes() == np.array([xn, yn]).tobytes()
        got = np.broadcast_to(np.array(whole[2:]), (4, len(pts)))[:, k]
        assert got.tobytes() == np.array(grad).tobytes()


def _failing_stage(x, y, h):
    """The stage (1-4) at which the old step leaves the saddle's domain, or
    None when it stays inside."""
    f = VectorField2D.saddle()
    calls = []

    def ev(*point):
        calls.append(point)
        return f.evaluate(*point)

    try:
        _old_rk4_step(ev, x, y, h)
    except DomainError:
        return len(calls)
    return None


def test_saddle_step_raises_at_the_same_stage():
    """Steps whose 2nd, 3rd or 4th stage leaves |y| < 1 raise the old
    exception type and message, on floats and on arrays."""
    f = VectorField2D.saddle()
    found = {}
    for y in np.linspace(0.5, 0.99, 25).tolist():
        for h in np.linspace(-12.0, 12.0, 25).tolist():
            found.setdefault(_failing_stage(0.25, y, h), (0.25, y, h))
    assert {2, 3, 4} <= set(found)
    for stage in (2, 3, 4):
        x, y, h = found[stage]
        old = _outcome(_old_rk4_step, f.evaluate, x, y, h)
        assert old[0] is DomainError
        assert _outcome(f._rk4(), x, y, h) == old
        xs, ys = np.array([x]), np.array([y])
        assert (_outcome(f._rk4(), xs, ys, h)
                == _outcome(_old_rk4_step, f.evaluate_arrays, xs, ys, h))
        # the tangent step guards the same stages
        for point, one, zero in (((x, y), 1.0, 0.0), ((xs, ys), np.ones(1), np.zeros(1))):
            with pytest.raises(DomainError) as exc:
                f._rk4("tangent")(*point, one, zero, zero, one, h)
            assert str(exc.value) == _outcome(f._rk4(), *point, h)[1]
