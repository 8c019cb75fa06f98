"""The value records: slotted classes with explicit initializers whose
equality, hash and repr follow their fields, in the form ``dataclasses``
gave them.  Signatures, defaults and validation messages are pinned."""

import inspect
import math

import numpy as np
import pytest

from ilekoop.errors import NumericalError
from ilekoop.expr import Neg, Num, Poly2, Pow, Product, Sum, Var, parse_expression
from ilekoop.families import CarlemanModel, CubicParams, QuadraticParams
from ilekoop.flowmap import Trajectory
from ilekoop.koopman import DataSurface, KeigCandidate
from ilekoop.series import SaddleEigenfunction, SeriesTerm
from ilekoop.strain import Grid2D, ScalarField, SymTensor2
from ilekoop.vectorfield import IntegratorConfig

_EMPTY = inspect.Parameter.empty

#: class -> (parameter, default) pairs, as the dataclasses generated them.
SIGNATURES = {
    Num: [("value", _EMPTY)],
    Var: [("name", _EMPTY)],
    Neg: [("operand", _EMPTY)],
    Sum: [("first", _EMPTY), ("rest", _EMPTY)],
    Product: [("factors", _EMPTY)],
    Pow: [("base", _EMPTY), ("exponent", _EMPTY)],
    IntegratorConfig: [("step", 1e-3)],
    SymTensor2: [("sxx", _EMPTY), ("sxy", _EMPTY), ("syy", _EMPTY)],
    Grid2D: [("xmin", _EMPTY), ("xmax", _EMPTY), ("nx", _EMPTY), ("ymin", _EMPTY),
             ("ymax", _EMPTY), ("ny", _EMPTY)],
    ScalarField: [("grid", _EMPTY), ("values", _EMPTY)],
    Trajectory: [("times", _EMPTY), ("states", _EMPTY)],
    KeigCandidate: [("g", _EMPTY), ("lam", _EMPTY)],
    DataSurface: [("base", _EMPTY), ("direction", _EMPTY), ("h", _EMPTY)],
    QuadraticParams: [("lam", _EMPTY), ("a20", _EMPTY)],
    CubicParams: [("a10", _EMPTY), ("k", _EMPTY), ("a20", _EMPTY), ("b00", _EMPTY)],
    CarlemanModel: [("lam", _EMPTY), ("c", _EMPTY)],
    SaddleEigenfunction: [("lam", _EMPTY), ("h_degree", 0), ("h_scale", 1.0)],
    SeriesTerm: [("k", _EMPTY), ("coefficient", _EMPTY)],
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_signature_and_slots(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    assert cls.__slots__ == tuple(name for name, _ in SIGNATURES[cls])


# -- the AST ---------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("x + 2", "Sum(first=Var(name='x'), rest=(('+', Num(value=2.0)),))"),
    ("-(x*y)^3 - 1.5", "Sum(first=Pow(base=Neg(operand=Product(factors=(Var(name='x'), "
                       "Var(name='y')))), exponent=3), rest=(('-', Num(value=1.5)),))"),
    ("x*y*2", "Product(factors=(Var(name='x'), Var(name='y'), Num(value=2.0)))"),
    ("(x)", "Var(name='x')"),
    ("-x", "Neg(operand=Var(name='x'))"),
])
def test_ast_repr_is_the_dataclass_form(text, expected):
    assert repr(parse_expression(text)) == expected


def test_ast_equality_and_hash():
    a, b = parse_expression("-(x*y)^3 - 1.5"), parse_expression("-(x * y)^3 - 1.5")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse_expression("-(x*y)^3 + 1.5")
    assert Num(1.0) == Num(1) and hash(Num(1.0)) == hash(Num(1))
    # another class with the same fields is never equal
    assert Num(1.0) != Var(1.0) and Var("x") != Neg(Var("x"))
    assert Pow(Var("x"), 2) != Pow(Var("x"), 3) != Pow(Var("y"), 3)
    assert len({Num(2.0), Num(2.0), Var("x"), Var("x")}) == 2
    assert Num(2.0) != (2.0,) and (Num(2.0) == 2.0) is False


def test_ast_keyword_construction():
    assert Sum(first=Var(name="x"), rest=()) == Sum(Var("x"), ())
    assert Pow(exponent=2, base=Num(value=3.0)) == Pow(Num(3.0), 2)
    assert not hasattr(Num(2.0), "__dict__")


# -- the value types ----------------------------------------------------------------

def test_defaults_and_keyword_construction():
    assert IntegratorConfig().step == 1e-3
    assert IntegratorConfig(step=0.01) == IntegratorConfig(0.01) != IntegratorConfig()
    lam = -2.0
    eig = SaddleEigenfunction(lam)
    assert (eig.lam, eig.h_degree, eig.h_scale) == (-2.0, 0, 1.0)
    assert SaddleEigenfunction(lam, h_scale=3.0) == SaddleEigenfunction(-2.0, 0, 3.0)
    assert SaddleEigenfunction.monomial(2, lam) == SaddleEigenfunction(lam=-2.0, h_degree=2)
    grid = Grid2D(ny=2, ymax=1.0, ymin=-1.0, nx=3, xmax=1.0, xmin=0.0)
    assert grid == Grid2D(0.0, 1.0, 3, -1.0, 1.0, 2)
    assert CubicParams(a10=1.0, k=-0.5, a20=2.0, b00=0.25) == CubicParams(1.0, -0.5, 2.0, 0.25)


def test_value_type_reprs_are_the_dataclass_form():
    assert repr(IntegratorConfig()) == "IntegratorConfig(step=0.001)"
    assert repr(Grid2D(0.0, 1.0, 3, -1.0, 1.0, 2)) == \
        "Grid2D(xmin=0.0, xmax=1.0, nx=3, ymin=-1.0, ymax=1.0, ny=2)"
    assert repr(SymTensor2(1.0, 0.5, -2.0)) == "SymTensor2(sxx=1.0, sxy=0.5, syy=-2.0)"
    assert repr(QuadraticParams(1.0, 0.5)) == "QuadraticParams(lam=1.0, a20=0.5)"
    assert repr(CubicParams(1.0, -0.5, 2.0, 0.25)) == \
        "CubicParams(a10=1.0, k=-0.5, a20=2.0, b00=0.25)"
    assert repr(CarlemanModel(-1.0, 0.5)) == "CarlemanModel(lam=-1.0, c=0.5)"
    assert repr(SaddleEigenfunction(2.0)) == "SaddleEigenfunction(lam=2.0, h_degree=0, h_scale=1.0)"
    assert repr(SeriesTerm(3, 0.125)) == "SeriesTerm(k=3, coefficient=0.125)"
    assert repr(KeigCandidate(Poly2.x(), 1.0)) == "KeigCandidate(g=Poly2({(1, 0): 1.0}), lam=1.0)"
    assert repr(DataSurface((0.0, 0.5), (3.0, 4.0), abs)) == \
        "DataSurface(base=(0.0, 0.5), direction=(0.6, 0.8), h=<built-in function abs>)"
    assert repr(Trajectory([0.0, 0.1], [(1.0, 2.0), (1.5, 2.5)])) == \
        "Trajectory(times=[0.0, 0.1], states=[(1.0, 2.0), (1.5, 2.5)])"


#: Two equal instances of each formerly frozen class, built apart.
_FROZEN = [
    lambda: IntegratorConfig(0.5),
    lambda: SymTensor2(1.0, 0.5, -2.0),
    lambda: Grid2D(0.0, 1.0, 3, -1.0, 1.0, 2),
    lambda: KeigCandidate(Poly2.x(), 1.0),
    lambda: DataSurface((0.0, 0.5), (3.0, 4.0), abs),
    lambda: QuadraticParams(1.0, 0.5),
    lambda: CubicParams(1.0, -0.5, 2.0, 0.25),
    lambda: CarlemanModel(-1.0, 0.5),
    lambda: SaddleEigenfunction(2.0, 1, 0.5),
    lambda: SeriesTerm(3, 0.125),
]


@pytest.mark.parametrize("make", _FROZEN, ids=lambda make: type(make()).__name__)
def test_frozen_records_compare_and_hash_by_fields(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    first = type(a).__slots__[0]
    other = object.__new__(type(a))
    for name in type(a).__slots__:
        setattr(other, name, getattr(a, name))
    setattr(other, first, (getattr(a, first), "changed"))
    assert a != other


def test_mutable_records_compare_by_fields_and_are_unhashable():
    grid = Grid2D(0.0, 1.0, 2, 0.0, 1.0, 2)
    traj = Trajectory([0.0, 0.1], [(1.0, 2.0), (1.5, 2.5)])
    assert traj == Trajectory([0.0, 0.1], [(1.0, 2.0), (1.5, 2.5)])
    assert traj != Trajectory([0.0, 0.2], [(1.0, 2.0), (1.5, 2.5)])
    field = ScalarField(grid, [[0.0, 1.0], [2.0, 3.0]])
    assert field.values.dtype == float and field.grid is grid
    for record in (traj, field):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


@pytest.mark.parametrize("build,error,message", [
    (lambda: IntegratorConfig(0.0), ValueError, "integrator step must be positive"),
    (lambda: IntegratorConfig(-1e-3), ValueError, "integrator step must be positive"),
    (lambda: IntegratorConfig(math.nan), ValueError, "integrator step must be positive"),
    (lambda: Grid2D(0.0, 1.0, 1, 0.0, 1.0, 2), ValueError, "grid needs at least 2 nodes per axis"),
    (lambda: Grid2D(0.0, 1.0, 2, 0.0, 1.0, 1), ValueError, "grid needs at least 2 nodes per axis"),
    (lambda: Grid2D(1.0, 1.0, 2, 0.0, 1.0, 2), ValueError,
     "grid bounds must satisfy xmin < xmax and ymin < ymax"),
    (lambda: Grid2D(0.0, 1.0, 2, 0.0, math.nan, 2), ValueError,
     "grid bounds must satisfy xmin < xmax and ymin < ymax"),
    (lambda: Grid2D(-1e308, 1e308, 2, 0.0, 1.0, 2), NumericalError,
     "grid width or height overflows a double"),
    (lambda: ScalarField(Grid2D(0.0, 1.0, 2, 0.0, 1.0, 3), np.zeros((2, 2))), ValueError,
     "value array shape does not match the grid"),
    (lambda: ScalarField(Grid2D(0.0, 1.0, 2, 0.0, 1.0, 2), [[0.0, math.nan], [0.0, 0.0]]),
     ValueError, "scalar field contains non-finite values"),
    (lambda: DataSurface((0.0, 0.0), (0.0, -0.0), abs), ValueError,
     "surface direction must be nonzero"),
    (lambda: CubicParams(1.0, 0.0, 2.0, 0.25), ValueError, "cubic family needs k != 0"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_records_holding_arrays_compare_as_one_bool():
    grid = Grid2D(0.0, 1.0, 2, 0.0, 1.0, 2)
    values = np.array([[0.0, 1.0], [2.0, 3.0]])
    field = ScalarField(grid, values)
    assert field == ScalarField(grid, values.copy())
    assert field != ScalarField(grid, values + 1.0)
    assert field != ScalarField(Grid2D(0.0, 2.0, 2, 0.0, 1.0, 2), values)
    assert field in [ScalarField(grid, values + 1.0), ScalarField(grid, values.copy())]
    assert [field].index(ScalarField(grid, values.copy())) == 0
    xs = np.array([1.0, 2.0])
    tensor = SymTensor2(xs, 0.5, xs * 2.0)
    assert tensor == SymTensor2(xs.copy(), 0.5, xs * 2.0)
    assert tensor != SymTensor2(xs, 0.5, xs * 3.0)
    assert tensor != SymTensor2(xs, np.array([0.5, 0.5]), xs * 2.0)
    assert tensor != SymTensor2(1.0, 0.5, 2.0)
    for record in (field, tensor):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    assert hash(SymTensor2(1.0, 0.5, 2.0)) == hash(SymTensor2(1.0, 0.5, 2.0))
