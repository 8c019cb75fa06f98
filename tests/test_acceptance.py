"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import random
import time

import numpy as np
import pytest

from ilekoop.cli import run_command
from ilekoop.expr import Poly2, parse_polynomial
from ilekoop.families import (
    CubicParams,
    QuadraticParams,
    carleman_solve,
    cubic_attraction_rate,
    make_cubic_family,
    make_quadratic_family,
    make_transformed_family,
    one_d_residual,
    quadratic_repulsion_rate,
    s1_evolution_check,
)
from ilekoop.flowmap import IntegratorConfig, flow_endpoint, ftle, ftle_field, saddle_ftle
from ilekoop.koopman import (
    DataSurface,
    KeigCandidate,
    evolution_check,
    keig_residual,
    pullback_eigenfunction,
)
from ilekoop.series import (
    SaddleEigenfunction,
    attraction_series_coefficients,
    geometric_tail_bound,
    partial_sum_check,
)
from ilekoop.strain import Grid2D, rate_field
from ilekoop.vectorfield import VectorField2D

CFG = IntegratorConfig(step=1e-3)


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    return ok


def test_criterion_01_instantaneous_limit():
    f = VectorField2D.saddle()
    grid = Grid2D(-1.0, 1.0, 101, -0.75, 0.75, 101)
    start = time.perf_counter()
    s1 = rate_field(f, grid, "s1").values
    err = {}
    for t in (-0.05, -0.025):
        sigma = ftle_field(f, grid, t, 1e-5, CFG).values
        err[t] = float(np.max(np.abs(sigma + s1)))
    elapsed = time.perf_counter() - start
    ratio = err[-0.05] / err[-0.025]
    ok = 1.6 <= ratio <= 2.4 and err[-0.025] < 0.1 and elapsed < 10.0
    assert _report(
        1,
        "instantaneous limit of backward FTLE",
        ok,
        f"ratio={ratio:.3f}, err@-0.025={err[-0.025]:.4f}, {elapsed:.2f}s",
    )


def test_criterion_02_ftle_matches_analytic_oracle():
    rng = random.Random(1002)
    f = VectorField2D.saddle()
    worst = 0.0
    for _ in range(100):
        pt = (rng.uniform(-2, 2), rng.uniform(-0.7, 0.7))
        worst = max(worst, abs(ftle(f, pt, -0.5, 1e-5, CFG) - saddle_ftle(pt, -0.5)))
    ok = worst <= 1e-5
    assert _report(2, "finite-difference FTLE vs closed form", ok, f"max err={worst:.2e}")


def test_criterion_03_quadratic_family_exact():
    rng = random.Random(1003)
    ok = True
    for _ in range(20):
        params = QuadraticParams(rng.uniform(-3, 3), rng.uniform(-3, 3))
        f = make_quadratic_family(params)
        res = keig_residual(f, KeigCandidate(quadratic_repulsion_rate(params), params.lam))
        ok = ok and res.is_zero()
    assert _report(3, "quadratic family repulsion rate is exact eigenpair", ok)


def test_criterion_04_cubic_family_exact():
    rng = random.Random(1004)
    ok_exact = True
    worst_evo = 0.0
    for _ in range(20):
        k = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
        params = CubicParams(
            a10=rng.uniform(-2, 2), k=k, a20=rng.uniform(-2, 2), b00=rng.uniform(-2, 2)
        )
        f = make_cubic_family(params)
        s1 = cubic_attraction_rate(params)
        res = keig_residual(f, KeigCandidate(s1, params.lam))
        ok_exact = ok_exact and res.is_zero()
    params = CubicParams.from_rate_eigenvalue(2.0, 2.0 / 3.0, -1.0 / 3.0, -2.0)
    f = make_cubic_family(params)
    s1 = cubic_attraction_rate(params)
    r_bar = -1.0 / (3.0 * params.k)
    for _ in range(10):
        # start away from the rate's zero line so the relative check is stable
        w0 = r_bar + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.3)
        x0 = (rng.uniform(-0.5, 0.5), 0.0)
        x0 = (x0[0], w0 - x0[0])
        worst_evo = max(
            worst_evo, evolution_check(f, KeigCandidate(s1, params.lam), x0, 0.5, CFG)
        )
    ok = ok_exact and worst_evo < 1e-6
    assert _report(
        4, "cubic family attraction rate is exact eigenpair", ok, f"max evo err={worst_evo:.2e}"
    )


def test_criterion_05_lift_solution_agreement():
    rng = random.Random(1005)
    worst = 0.0
    worst_rate = 0.0
    for _ in range(50):
        lam, c = rng.uniform(-2, 2), rng.uniform(-2, 2)
        x0 = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        f = make_transformed_family(lam, [c])
        for t in (0.5, 1.0, 1.5, 2.0):
            exact = carleman_solve(lam, c, x0, t)
            num = flow_endpoint(f, x0, t, CFG)
            worst = max(worst, abs(exact[0] - num[0]), abs(exact[1] - num[1]))
        if x0[0] != 0.0 and c != 0.0:
            worst_rate = max(worst_rate, s1_evolution_check(lam, c, x0, 2.0))
    ok = worst < 1e-6 and worst_rate < 1e-12
    assert _report(
        5,
        "exact lift solution vs integration",
        ok,
        f"max endpoint err={worst:.2e}, max rate err={worst_rate:.2e}",
    )


def test_criterion_06_pullback_construction():
    rng = random.Random(1006)
    surf = DataSurface((1.0, 0.0), (0.0, 1.0), lambda s: 1.0)
    lam = -1.0
    f = make_transformed_family(lam, [-0.5])
    worst = 0.0
    for i in range(20):
        x1 = 0.2 + (5.0 - 0.2) * i / 19.0
        val = pullback_eigenfunction(f, surf, lam, (x1, rng.uniform(-1, 1)), CFG, t_max=12.0)
        worst = max(worst, abs(val - x1 * x1))
    ok_transformed = worst <= 1e-8

    saddle = VectorField2D.saddle()
    line = DataSurface((0.0, 0.5), (1.0, 0.0), lambda s: 1.0)

    def phi(x, y):
        return pullback_eigenfunction(saddle, line, -2.0, (x, y), CFG, t_max=20.0)

    worst_evo = 0.0
    for _ in range(20):
        pt = (rng.uniform(-1.5, 1.5), rng.uniform(0.15, 0.85))
        worst_evo = max(worst_evo, evolution_check(saddle, KeigCandidate(phi, -2.0), pt, 0.4, CFG))
    ok = ok_transformed and worst_evo < 1e-6
    assert _report(
        6,
        "pullback eigenfunction construction",
        ok,
        f"max |phi - x1^2|={worst:.2e}, max evo err={worst_evo:.2e}",
    )


def test_criterion_07_closed_form_verification():
    rng = random.Random(1007)
    f = VectorField2D.saddle()
    pts = []
    while len(pts) < 100:
        y = rng.uniform(-0.9, 0.9)
        if 0.05 <= abs(y) <= 0.9:
            pts.append((rng.uniform(-2, 2), y))
    worst = 0.0
    for lam in (0.0, -2.0, 1.0):
        for degree in (0, 1, 2):
            obs = SaddleEigenfunction(lam=lam, h_degree=degree, h_scale=1.0)
            res = keig_residual(f, KeigCandidate(obs, lam))
            worst = max(worst, max(abs(res(x, y)) for x, y in pts))
    ok = worst < 1e-10
    assert _report(7, "closed-form eigenfunction family verification", ok, f"max res={worst:.2e}")


def test_criterion_08_series_convergence():
    coeffs = attraction_series_coefficients(10)
    ok_coeffs = all(
        abs(c - (-1.0 / 3.0) ** (k - 1)) <= 1e-12 for k, c in enumerate(coeffs, start=1)
    )
    _, err_half = partial_sum_check(10, 0.5)
    ok_half = err_half <= 2.6e-5
    ok_tail = True
    for y in (0.2, 0.35, 0.5, 0.68):
        for n in (1, 2, 4, 8, 10):
            _, err = partial_sum_check(n, y)
            # a few ulps of slack for sums already at the roundoff floor
            ok_tail = ok_tail and err <= geometric_tail_bound(n, y) * (1 + 1e-12) + 1e-15
    ok = ok_coeffs and ok_half and ok_tail
    assert _report(
        8, "eigenfunction series for the attraction rate", ok, f"err@y=0.5,N=10={err_half:.2e}"
    )


def test_criterion_09_one_dimensional_obstruction():
    samples = [-1.0 + i / 100.0 for i in range(201)]
    cases = {
        "x": parse_polynomial("x", variables=("x",)),
        "x^2": parse_polynomial("x^2", variables=("x",)),
        "x - x^3": parse_polynomial("x - x^3", variables=("x",)),
        "1 + x^2": parse_polynomial("1 + x^2", variables=("x",)),
    }
    ok = True
    details = []
    for name, f in cases.items():
        _, lam_star = one_d_residual(f, 0.0, samples)
        resnorm, _ = one_d_residual(f, lam_star, samples)
        trivial = abs(lam_star) < 1e-12 and resnorm < 1e-12
        details.append(f"{name}: min rms={resnorm:.3f}" + (" [lambda-trivial]" if trivial else ""))
        if name == "x":
            ok = ok and trivial
        else:
            ok = ok and resnorm > 0.05 and not trivial
    assert _report(9, "no 1-D rate eigenfunction", ok, "; ".join(details))


def test_criterion_10_power_property():
    rng = random.Random(1010)
    ok = True
    for _ in range(10):
        lam, c = rng.uniform(-2, 2), rng.uniform(-2, 2)
        f = make_transformed_family(lam, [c])
        for m in range(1, 7):
            res = keig_residual(f, KeigCandidate(Poly2.monomial(m, 0), m * lam / 2.0))
            ok = ok and res.is_zero()
    assert _report(10, "monomial powers are eigenfunctions", ok)


def test_criterion_11_thread_determinism(tmp_path):
    outputs = {}
    for threads in ("1", "3"):
        ile_csv = tmp_path / f"ile_{threads}.csv"
        ile_pgm = tmp_path / f"ile_{threads}.pgm"
        ftle_csv = tmp_path / f"ftle_{threads}.csv"
        code1 = run_command(
            ["ile", "--field", "saddle", "--grid", "-1:1:41,-0.7:0.7:37", "--rate", "s1",
             "--out", str(ile_csv), "--pgm", str(ile_pgm), "--threads", threads]
        )
        code2 = run_command(
            ["ftle", "--field", "saddle", "--time", "-0.05", "--step", "1e-3",
             "--delta", "1e-5", "--grid", "-1:1:31,-0.6:0.6:29",
             "--out", str(ftle_csv), "--threads", threads]
        )
        assert code1 == 0 and code2 == 0
        outputs[threads] = (ile_csv.read_bytes(), ile_pgm.read_bytes(), ftle_csv.read_bytes())
    ok = outputs["1"] == outputs["3"]
    assert _report(11, "grid outputs identical across thread counts", ok)
