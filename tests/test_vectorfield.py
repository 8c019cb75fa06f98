"""Vector field evaluation, Jacobians, shear defect, analytic saddle flow."""

import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

import ilekoop
from ilekoop.errors import DomainError
from ilekoop.expr import Poly2, parse_polynomial
from ilekoop.families import QuadraticParams, make_quadratic_family, make_transformed_family
from ilekoop.vectorfield import (
    VectorField2D,
    analytic_saddle_flow,
    field_from_json,
    field_to_json,
    shear_free_defect,
)


def cubic_example_field() -> VectorField2D:
    p = parse_polynomial("-2 + x + (x+y)^2") - (1.0 / 3.0) * parse_polynomial("(x+y)^3")
    q = parse_polynomial("1 + y - (x+y)^2") + (1.0 / 3.0) * parse_polynomial("(x+y)^3")
    return VectorField2D(p, q)


def test_saddle_at_origin():
    assert VectorField2D.saddle().evaluate(0.0, 0.0) == (0.0, 0.0)


def test_saddle_point_value():
    assert VectorField2D.saddle().evaluate(1.0, 0.5) == (1.0, -0.375)


def test_cubic_example_at_origin():
    assert cubic_example_field().evaluate(0.0, 0.0) == pytest.approx((-2.0, 1.0), abs=1e-14)


def test_saddle_domain_guard():
    # Every method takes floats and arrays.  NaN is outside the strip too; a
    # float names the value, an array does not.
    f = VectorField2D.saddle()
    message = "saddle field is only defined for |y| < 1"
    for method in ("evaluate", "jacobian", "evaluate_arrays", "jacobian_arrays"):
        for y in (1.0, -1.2, math.nan):
            with pytest.raises(DomainError) as arrays:
                getattr(f, method)(np.zeros(3), np.array([0.0, 0.5, y]))
            assert str(arrays.value) == message
            if not method.endswith("_arrays"):
                with pytest.raises(DomainError) as floats:
                    getattr(f, method)(0.0, y)
                assert str(floats.value) == f"{message} (got y={y!r})"


@pytest.mark.parametrize("f", [
    VectorField2D.saddle(),
    cubic_example_field(),
    make_quadratic_family(QuadraticParams(1.3, -0.8)),
    make_transformed_family(-1.0, [-0.5]),
], ids=["saddle", "cubic", "quadratic", "normal_form"])
def test_jacobian_on_arrays_equals_jacobian_arrays(f):
    rng = np.random.default_rng(7)
    xs, ys = rng.uniform(-1.5, 1.5, (4, 5)), rng.uniform(-0.95, 0.95, (4, 5))
    points = [f.jacobian(float(x), float(y)) for x, y in zip(xs.flat, ys.flat)]
    for k, (got, want) in enumerate(zip(f.jacobian(xs, ys), f.jacobian_arrays(xs, ys),
                                        strict=True)):
        # a constant derivative comes back as a float and broadcasts
        got = np.broadcast_to(got, xs.shape).tobytes()
        assert got == np.broadcast_to(want, xs.shape).tobytes()
        assert got == np.array([j[k] for j in points]).tobytes()


def test_saddle_jacobian_diagonal():
    j = VectorField2D.saddle().jacobian(2.0, 0.4)
    assert (j[0], j[1], j[2]) == (1.0, 0.0, 0.0)
    assert j[3] == pytest.approx(-1.0 + 3 * 0.16, abs=1e-15)
    j0 = VectorField2D.saddle().jacobian(0.0, 0.0)
    assert (j0[0], j0[1], j0[2], j0[3]) == (1.0, 0.0, 0.0, -1.0)


def test_transformed_cubic_jacobian():
    f = make_transformed_family(-1.0, [-1.0])
    j = f.jacobian(1.0, 0.0)
    assert j[0] == pytest.approx(-0.5, abs=1e-15)
    assert j[1] == 0.0
    assert j[2] == pytest.approx(-2.0, abs=1e-14)
    assert j[3] == pytest.approx(-0.5, abs=1e-15)


def test_constant_field_jacobian_zero():
    f = VectorField2D(Poly2.constant(1.0), Poly2.constant(2.0))
    j = f.jacobian(0.3, -0.7)
    assert (j[0], j[1], j[2], j[3]) == (0.0, 0.0, 0.0, 0.0)


def test_jacobian_matches_finite_differences():
    rng = random.Random(3)
    fields = [
        cubic_example_field(),
        make_quadratic_family(QuadraticParams(1.3, -0.8)),
        VectorField2D(parse_polynomial("x*y - y^2"), parse_polynomial("x^2 + 1")),
    ]
    h = 1e-6
    for f in fields:
        for _ in range(20):
            x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
            j = f.jacobian(x, y)
            fd11 = (f.evaluate(x + h, y)[0] - f.evaluate(x - h, y)[0]) / (2 * h)
            fd12 = (f.evaluate(x, y + h)[0] - f.evaluate(x, y - h)[0]) / (2 * h)
            fd21 = (f.evaluate(x + h, y)[1] - f.evaluate(x - h, y)[1]) / (2 * h)
            fd22 = (f.evaluate(x, y + h)[1] - f.evaluate(x, y - h)[1]) / (2 * h)
            assert j[0] == pytest.approx(fd11, abs=1e-6)
            assert j[1] == pytest.approx(fd12, abs=1e-6)
            assert j[2] == pytest.approx(fd21, abs=1e-6)
            assert j[3] == pytest.approx(fd22, abs=1e-6)


def test_array_evaluation_matches_scalar():
    f = cubic_example_field()
    xs = np.linspace(-1.0, 1.0, 7)
    ys = np.linspace(-0.5, 0.5, 7)
    us, vs = f.evaluate_arrays(xs, ys)
    for i in range(7):
        u, v = f.evaluate(float(xs[i]), float(ys[i]))
        assert us[i] == u and vs[i] == v


def test_shear_defect_saddle_zero():
    assert shear_free_defect(VectorField2D.saddle()).is_zero()


def test_shear_defect_quadratic_family_zero():
    rng = random.Random(5)
    for _ in range(10):
        f = make_quadratic_family(QuadraticParams(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        assert shear_free_defect(f).is_zero()


def test_shear_defect_transformed_cubic():
    lam, c = -1.5, 0.7
    f = make_transformed_family(lam, [c])
    defect = shear_free_defect(f)
    assert defect.max_coeff_diff(Poly2({(0, 0): -lam, (2, 0): 3.0 * c})) < 1e-15


def test_shear_free_implies_antisymmetric_offdiagonal():
    rng = random.Random(9)
    for _ in range(5):
        f = make_quadratic_family(QuadraticParams(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        assert shear_free_defect(f).is_zero()
        for _ in range(10):
            j = f.jacobian(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert j[1] == pytest.approx(-j[2], abs=1e-13)


def test_saddle_flow_invariant_axis():
    x, t = 1.7, 0.9
    fx, fy = analytic_saddle_flow((x, 0.0), t)
    assert fy == 0.0
    assert fx == pytest.approx(x * math.exp(t), rel=1e-15)


def test_saddle_flow_point_value():
    fx, fy = analytic_saddle_flow((1.0, 0.6), 0.5)
    assert fx == pytest.approx(math.exp(0.5), rel=1e-15)
    assert fy == pytest.approx(0.6 / math.sqrt(0.64 * math.e + 0.36), rel=1e-15)


def test_saddle_flow_identity_at_zero():
    pt = (0.3, -0.8)
    assert analytic_saddle_flow(pt, 0.0) == pytest.approx(pt, rel=1e-15)


def test_saddle_flow_group_property():
    rng = random.Random(21)
    for _ in range(50):
        pt = (rng.uniform(-2, 2), rng.uniform(-0.95, 0.95))
        t, s = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        one_shot = analytic_saddle_flow(pt, t + s)
        chained = analytic_saddle_flow(analytic_saddle_flow(pt, t), s)
        assert chained[0] == pytest.approx(one_shot[0], rel=1e-12, abs=1e-13)
        assert chained[1] == pytest.approx(one_shot[1], rel=1e-12, abs=1e-13)


def test_saddle_flow_stays_in_domain():
    for t in (-3.0, -1.0, 2.0, 10.0):
        assert abs(analytic_saddle_flow((0.0, 0.9), t)[1]) < 1.0


def test_field_json_round_trip():
    f = cubic_example_field()
    obj = field_to_json(f)
    g = field_from_json(obj)
    assert g.p == f.p and g.q == f.q
    s = field_from_json(field_to_json(VectorField2D.saddle()))
    assert s.is_saddle


def test_field_json_unknown_kind():
    with pytest.raises(ValueError):
        field_from_json({"kind": "spiral"})


def test_saddle_is_guarded_polynomial():
    f = VectorField2D.saddle()
    assert f.p == parse_polynomial("x") and f.q == parse_polynomial("-y + y^3")
    rng = random.Random(3)
    for _ in range(200):
        x, y = rng.uniform(-2.0, 2.0), rng.uniform(-0.99, 0.99)
        assert f.evaluate(x, y) == (x, -y + y * y * y)
        assert f.jacobian(x, y)[3] == -1.0 + 3.0 * (y * y)
    us, vs = f.evaluate_arrays(np.array([0.3, -0.2]), np.array([0.5, -0.5]))
    assert list(us) == [0.3, -0.2] and list(vs) == [-0.5 + 0.125, 0.5 - 0.125]


def test_polynomial_field_with_saddle_components_is_not_the_saddle():
    f = VectorField2D(parse_polynomial("x"), parse_polynomial("-y + y^3"))
    assert not f.is_saddle
    assert f.evaluate(0.0, 2.0) == (0.0, 6.0)
    assert field_to_json(f)["kind"] == "polynomial"


@pytest.mark.parametrize(
    "obj",
    [
        ["saddle"],
        {"kind": "polynomial", "p": []},
        {"kind": "polynomial", "p": 5, "q": []},
        {"kind": "polynomial", "p": [{"i": 1, "j": 0, "c": float("nan")}], "q": []},
        {"kind": "polynomial", "p": [], "q": [{"i": 0, "j": -1, "c": 1.0}]},
    ],
)
def test_field_json_malformed_rejected(obj):
    with pytest.raises(ValueError):
        field_from_json(obj)


def test_array_names_are_aliases():
    # evaluate and jacobian take floats or arrays; the array names are the
    # same functions, kept for bench/layers.py, which patches each on its own
    assert Poly2.eval_array is Poly2.evaluate
    assert VectorField2D.evaluate_arrays is VectorField2D.evaluate
    assert VectorField2D.jacobian_arrays is VectorField2D.jacobian


def test_array_names_appear_only_on_their_alias_lines():
    src = Path(ilekoop.__file__).resolve().parents[1]
    found = [(path.name, line.strip()) for path in sorted(src.rglob("*.py"))
             for line in path.read_text().splitlines()
             if re.search(r"eval_array|evaluate_arrays|jacobian_arrays", line)]
    assert found == [("expr.py", "eval_array = evaluate"),
                     ("vectorfield.py", "evaluate_arrays, jacobian_arrays = evaluate, jacobian")]
