"""Parser and polynomial algebra tests."""

import functools
import math
import operator
import random
import struct
import time
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ilekoop import expr
from ilekoop.expr import (
    MAX_NESTING,
    MAX_TOTAL_DEGREE,
    Neg,
    Num,
    ParseError,
    Poly2,
    Pow,
    Product,
    Sum,
    Var,
    eval_expression,
    parse_expression,
    parse_polynomial,
    to_polynomial,
    to_text,
)


# -- independent expansion oracle (dict arithmetic, no Poly2) -----------------

def _cutoff(out):
    # sums below 1e-12 are dropped once, after all of them are formed
    return {k: v for k, v in out.items() if not abs(v) < 1e-12}


def _oracle_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return _cutoff(out)


def _oracle_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return _cutoff(out)


def _oracle_diff(a, var):
    out = {}
    for (i, j), c in a.items():
        n = i if var == "x" else j
        if n:
            key = (i - 1, j) if var == "x" else (i, j - 1)
            out[key] = out.get(key, 0.0) + c * n
    return _cutoff(out)


def test_parse_simple_sum_and_power():
    assert parse_expression("x + y^2") == Sum(Var("x"), (("+", Pow(Var("y"), 2)),))


def test_parse_neg_and_grouping():
    assert parse_expression("-y + x*(x+y)") == Sum(
        Neg(Var("y")), (("+", Product((Var("x"), Sum(Var("x"), (("+", Var("y")),))))),)
    )


def test_parse_flat_sums_and_products():
    x, y = Var("x"), Var("y")
    assert parse_expression("x - y + 2*x*y*x") == Sum(
        x, (("-", y), ("+", Product((Num(2.0), x, y, x))))
    )
    # parentheses keep a nested node, and a single term or factor is no node
    assert parse_expression("(x + y) - (x*y)*x") == Sum(
        Sum(x, (("+", y),)), (("-", Product((Product((x, y)), x))),)
    )
    assert parse_expression("((x))") == x


def test_parse_negative_exponent_rejected():
    with pytest.raises(ParseError, match="negative exponent"):
        parse_expression("x^-1")


def test_parse_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse_expression("x^2.5")


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expression("x + z")


def test_parse_empty_and_offsets():
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError) as err:
        parse_expression("x + + y")
    assert err.value.offset == 4


@pytest.mark.parametrize("text, offset", [("3\u0663*x", 1), ("x^1\u0662", 3), ("1.\u0663", 2),
                                          ("\uff15", 0), ("x + 2*y\u00b2", 7)])
def test_non_ascii_rejected_anywhere(text, offset):
    # Unicode digits after an ASCII one used to extend the number token
    with pytest.raises(ParseError, match="non-ASCII character") as err:
        parse_polynomial(text)
    assert err.value.offset == offset


def test_bad_character_raises_only_when_reached():
    with pytest.raises(ParseError, match="got '\\+'") as err:
        parse_expression("x + + \u00e9")
    assert err.value.offset == 4
    with pytest.raises(ParseError, match="unexpected character '\\$'") as err:
        parse_expression("x\t$")
    assert err.value.offset == 2


@pytest.mark.parametrize("nest", [
    lambda n: "(" * n + "x" + ")" * n,
    lambda n: "-" * n + "x",
    lambda n: "".join("-("[k % 2] for k in range(n)) + "x" + ")" * (n // 2),
])
def test_nesting_limit(nest):
    # 250 parentheses or 990 minus signs used to overflow the stack
    assert parse_polynomial(nest(MAX_NESTING)) in (Poly2.x(), -Poly2.x())
    for depth in (MAX_NESTING + 1, 250, 990):
        with pytest.raises(ParseError, match=f"nest deeper than {MAX_NESTING}") as err:
            parse_expression(nest(depth))
        assert err.value.offset == MAX_NESTING


def full_degree_terms():
    """Every monomial of total degree at most MAX_TOTAL_DEGREE (2,145 of
    them), each with a nonzero coefficient, and the same polynomial as text."""
    terms = [{"i": i, "j": d - i, "c": (-1) ** i * (1 + i + 2 * (d - i)) / 64}
             for d in range(MAX_TOTAL_DEGREE + 1) for i in range(d + 1)]
    return terms, " + ".join(f"{t['c']!r}*x^{t['i']}*y^{t['j']}" for t in terms)


def test_full_degree_polynomial_parses(monkeypatch):
    # a left-deep tree of these 2,145 terms overflowed the stack
    terms, text = full_degree_terms()
    calls = []
    for name in ("__add__", "__sub__"):
        op = getattr(Poly2, name)
        monkeypatch.setattr(Poly2, name,
                            lambda a, b, name=name, op=op: calls.append(name) or op(a, b))
    muls, mul = [], Poly2.__mul__
    monkeypatch.setattr(Poly2, "__mul__", lambda a, b: muls.append(1) or mul(a, b))
    p = parse_polynomial(text)
    # one accumulation over all terms: a Poly2 sum per term made lowering O(n^2)
    assert calls == []
    # c*x^i*y^j takes two products and its powers none (the text took 95,810 in all)
    assert len(muls) <= 2 * len(terms)
    monkeypatch.undo()
    assert len(p.coefficients()) == 2145
    assert p == Poly2.from_json_terms(terms)
    flat_product = "*".join(["x"] * MAX_TOTAL_DEGREE)
    assert parse_polynomial(flat_product) == Poly2.monomial(MAX_TOTAL_DEGREE, 0)


def _fold_outcome(fold, p, n):
    """Terms of ``fold(p, n)`` with their coefficients' bits, or its error."""
    try:
        return [(ij, struct.pack("<d", c)) for ij, c in fold(p, n)._terms.items()]
    except ValueError as exc:
        return str(exc)


def _generic_power(p, n):
    return functools.reduce(expr._checked_product, repeat(p, n), Poly2.constant(1.0))


_NEAR_CUTOFF = st.sampled_from([1e-12, 1.0000000000000002e-12, 9.999999999999999e-13, 1e-6,
                                1.0000000000000002e-6, 1e-4, 1e-3, 0.5, 2.0, 1e100, 1e300])


@settings(max_examples=1000, deadline=None)
@given(i=st.integers(0, 64), j=st.integers(0, 64), n=st.integers(0, MAX_TOTAL_DEGREE),
       c=st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
                   _NEAR_CUTOFF, _NEAR_CUTOFF.map(operator.neg), st.floats()))
@example(i=1, j=0, n=64, c=1.0)       # x^64: the cap, reached
@example(i=1, j=1, n=33, c=1.0)       # degree overflow at step 33
@example(i=1, j=1, n=40, c=1e-6)      # the product vanishes at step 3, before the cap
@example(i=40, j=0, n=5, c=1e-6)      # the cap breaks at step 2, before the product vanishes
@example(i=0, j=0, n=64, c=1e300)     # overflow to inf
def test_monomial_power_matches_the_generic_fold(i, j, n, c):
    p = Poly2.__new__(Poly2)
    p._terms, p._kernel = {(i, j): c}, None  # any coefficient, even one _canon would drop
    assert _fold_outcome(expr._power, p, n) == _fold_outcome(_generic_power, p, n)


def _old_pow(p, n):
    """``Poly2.__pow__`` as written before it was ``_power``: no degree cap."""
    return functools.reduce(operator.mul, repeat(p, n), Poly2.constant(1.0))


@settings(max_examples=500, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       st.one_of(_NEAR_CUTOFF, _NEAR_CUTOFF.map(operator.neg),
                                 st.floats(-1e3, 1e3)), max_size=4),
       st.integers(0, 8))
@example({}, 0)                                   # the zero polynomial
@example({}, 3)
@example({(1, 0): 1e-6}, 2)                       # a lone term at the cutoff
@example({(0, 1): -1.0000000000000002e-6}, 2)
@example({(2, 1): 1e-4}, 3)                       # vanishes at step 3
@example({(0, 0): 1e-12}, 1)
@example({(1, 0): 1e-6, (0, 1): 1.0}, 2)
def test_pow_matches_the_old_fold(terms, n):
    p = Poly2(terms)
    assert _fold_outcome(Poly2.__pow__, p, n) == _fold_outcome(_old_pow, p, n)


def test_pow_refuses_past_the_degree_cap():
    assert Poly2.x() ** MAX_TOTAL_DEGREE == Poly2.monomial(MAX_TOTAL_DEGREE, 0)
    for p, n in ((Poly2.x(), 65), (parse_polynomial("x^2 + y"), 33), (Poly2.monomial(3, 2), 13)):
        with pytest.raises(ValueError, match="total degree 64"):
            p ** n
    with pytest.raises(ValueError, match="negative"):
        Poly2.x() ** -1


def test_parse_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_expression("2x")


def test_binomial_cube():
    p = parse_polynomial("(x+y)^3")
    assert p.coefficients() == {(3, 0): 1.0, (2, 1): 3.0, (1, 2): 3.0, (0, 3): 1.0}


def test_expansion_matches_oracle():
    # -y + (x+y)^2 expanded by independent dict arithmetic
    xy = {(1, 0): 1.0, (0, 1): 1.0}
    expected = _oracle_add({(0, 1): -1.0}, _oracle_mul(xy, xy))
    p = parse_polynomial("-y + (x+y)^2")
    assert p.coefficients() == expected
    assert expected == {(0, 1): -1.0, (2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}


def test_zero_polynomial_cancellation():
    assert parse_polynomial("0*x + y - y").is_zero()


def test_degree_cap():
    with pytest.raises(ValueError, match="degree"):
        parse_polynomial("(x+y)^65")
    assert parse_polynomial("x^64").degree() == 64


def test_affine_substitute_singular_matrix():
    p = parse_polynomial("x*y")
    collapsed = p.affine_substitute(((1, 1), (1, 1)), (0, 0))
    assert collapsed == parse_polynomial("(x+y)^2")


def test_differentiate_power_rule():
    p = Poly2.monomial(2, 1)  # x^2 y
    assert p.diff("x").coefficients() == {(1, 1): 2.0}


def test_differentiate_saddle_rate():
    p = parse_polynomial("-y + y^3")
    assert p.diff("y").coefficients() == {(0, 0): -1.0, (0, 2): 3.0}


def test_differentiate_constant():
    assert Poly2.constant(5.0).diff("x").is_zero()


def test_affine_substitute_identity():
    p = Poly2.x()
    assert p.affine_substitute(((1, 0), (0, 1)), (0, 0)) == p


# T maps (x, y) to (r, s) = (x+y, -x+y); its inverse is ((1,-1),(1,1))/2.
T_INV = ((0.5, -0.5), (0.5, 0.5))


def test_affine_substitute_transformed_field():
    # The r-component of the transformed cubic example field is -1 + r.
    cubic = parse_polynomial("(x+y)^3")
    p = parse_polynomial("-2 + x + (x+y)^2") - (1.0 / 3.0) * cubic
    q = parse_polynomial("1 + y - (x+y)^2") + (1.0 / 3.0) * cubic
    r_component = (p + q).affine_substitute(T_INV, (0, 0))
    assert r_component.max_coeff_diff(parse_polynomial("-1 + x")) < 1e-12
    # The s-component is 3 + s - 2 r^2 + (2/3) r^3.
    s_component = (q - p).affine_substitute(T_INV, (0, 0))
    expected = Poly2({(0, 0): 3.0, (0, 1): 1.0, (2, 0): -2.0, (3, 0): 2.0 / 3.0})
    assert s_component.max_coeff_diff(expected) < 1e-12


def test_affine_substitute_rate_to_new_variables():
    # (x+y-1)^2 pulled through the inverse transform is (r-1)^2.
    rate = parse_polynomial("(x + y - 1)^2")
    moved = rate.affine_substitute(T_INV, (0, 0))
    assert moved.max_coeff_diff(parse_polynomial("(x - 1)^2")) < 1e-12


def test_ring_distributivity_exact_on_integer_polys():
    rng = random.Random(7)

    def rand_poly():
        return Poly2(
            {
                (rng.randrange(0, 3), rng.randrange(0, 3)): float(rng.randrange(-9, 10))
                for _ in range(rng.randrange(1, 5))
            }
        )

    for _ in range(200):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p + q) * r == p * r + q * r


def test_mixed_partials_commute():
    rng = random.Random(11)
    for _ in range(100):
        p = Poly2(
            {
                (rng.randrange(0, 4), rng.randrange(0, 4)): float(rng.randrange(-9, 10))
                for _ in range(4)
            }
        )
        assert p.diff("x").diff("y") == p.diff("y").diff("x")


def test_degree_multiplicative():
    rng = random.Random(13)
    for _ in range(50):
        p = Poly2({(rng.randrange(0, 3), rng.randrange(0, 3)): float(rng.randrange(1, 9))})
        q = Poly2({(rng.randrange(0, 3), rng.randrange(0, 3)): float(rng.randrange(1, 9))})
        assert (p * q).degree() == p.degree() + q.degree()


def _random_ast(rng, depth):
    if depth == 0:
        return rng.choice(
            [Num(float(rng.randrange(0, 5))), Num(rng.random()), Var("x"), Var("y")]
        )
    kind = rng.randrange(4)
    if kind == 0:
        return Neg(_random_ast(rng, depth - 1))
    if kind == 1:
        rest = [(rng.choice("+-"), _random_ast(rng, depth - 1)) for _ in range(rng.randrange(1, 4))]
        return Sum(_random_ast(rng, depth - 1), tuple(rest))
    if kind == 2:
        return Product(tuple(_random_ast(rng, depth - 1) for _ in range(rng.randrange(2, 5))))
    return Pow(_random_ast(rng, depth - 1), rng.randrange(0, 4))


def test_print_parse_round_trip():
    rng = random.Random(17)
    for _ in range(300):
        ast = _random_ast(rng, rng.randrange(1, 4))
        assert parse_expression(to_text(ast)) == ast


def test_parse_print_parse_identity_on_text():
    for text in ["x + y^2", "-y + x*(x+y)", "(x+y)^3 - 2*x*y", "1.5e-3*x - y^0"]:
        ast = parse_expression(text)
        assert parse_expression(to_text(ast)) == ast


def test_polynomial_evaluation_matches_ast():
    rng = random.Random(19)
    for _ in range(10):
        ast = _random_ast(rng, 3)
        poly = to_polynomial(ast)
        for _ in range(10):
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            direct = eval_expression(ast, {"x": x, "y": y})
            via_poly = poly.evaluate(x, y)
            assert via_poly == pytest.approx(direct, rel=1e-12, abs=1e-9)


def test_integer_evaluation_exact():
    p = parse_polynomial("(x+y)^3 - 4*x*y + 7")
    assert p.evaluate(3.0, -2.0) == (3 - 2) ** 3 - 4 * 3 * (-2) + 7


def test_json_round_trip():
    p = parse_polynomial("-y + (x+y)^2")
    items = p.to_json_terms()
    assert items == [
        {"i": 0, "j": 1, "c": -1.0},
        {"i": 0, "j": 2, "c": 1.0},
        {"i": 1, "j": 1, "c": 2.0},
        {"i": 2, "j": 0, "c": 1.0},
    ]
    assert Poly2.from_json_terms(items) == p


def test_canonical_zero_threshold():
    p = Poly2({(1, 0): 1.0}) - Poly2({(1, 0): 1.0 - 1e-14})
    assert p.is_zero()


def test_flat_sum_drops_small_coefficients_once():
    # the partial sum 5e-13 is kept: only the finished sum meets the cutoff
    p = parse_polynomial("1.0000000000005*x - x + x")
    assert p.coeff(1, 0) == (1.0000000000005 - 1.0) + 1.0
    assert parse_polynomial("1.0000000000005*x - x").is_zero()


def test_univariate_parsing():
    p = parse_polynomial("s^2 - 1", variables=("s",))
    assert p.evaluate(3.0) == 8.0
    with pytest.raises(ParseError):
        parse_polynomial("x", variables=("s",))


def test_overflowing_number_literal_rejected():
    with pytest.raises(ParseError) as info:
        parse_polynomial("y + 1e999*x")
    assert info.value.offset == 4


@pytest.mark.parametrize("text", ["(1e200)^2*x", "(1e200)^2*x - (1e200)^2*x", "1e300*x*1e300"])
def test_non_finite_expansion_rejected(text):
    with pytest.raises(ValueError, match="non-finite"):
        parse_polynomial(text)


@pytest.mark.parametrize(
    "item",
    [
        {"i": 1, "j": 0, "c": float("nan")},
        {"i": 1, "j": 0, "c": float("inf")},
        {"i": 1, "j": 0, "c": -float("inf")},
        {"i": -1, "j": 0, "c": 1.0},
        {"i": 1.7, "j": 0, "c": 1.0},
        {"i": 1.0, "j": 0, "c": 1.0},
        {"i": 1, "j": True, "c": 1.0},
        {"i": 100000000, "j": 0, "c": 1.0},
        {"i": 40, "j": 25, "c": 1.0},
        {"i": 1, "j": 0, "c": "1.5"},
        {"i": 1, "j": 0, "c": True},
        {"i": 1, "j": 0, "c": 10**400},
        {"i": 1, "j": 0},
        [1, 0, 1.0],
    ],
)
def test_json_terms_rejected(item):
    with pytest.raises(ValueError):
        Poly2.from_json_terms([item])


def test_json_terms_overflowing_sum_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        Poly2.from_json_terms([{"i": 0, "j": 0, "c": 1e308}, {"i": 0, "j": 0, "c": 1e308}])


def test_json_terms_accept_int_coefficients_and_top_degree():
    p = Poly2.from_json_terms([{"i": 40, "j": 24, "c": 2}, {"i": 0, "j": 0, "c": -1}])
    assert p.coefficients() == {(40, 24): 2.0, (0, 0): -1.0}


# -- generated evaluation kernel vs. the repeated-multiplication reference ------

def _ref_ipow(base, n):
    out = 1.0
    for _ in range(n):
        out *= base
    return out


def _ref_evaluate(p, x, y):
    total = 0.0
    for (i, j), c in p.items_sorted():
        total += c * _ref_ipow(x, i) * _ref_ipow(y, j)
    return total


def _bits(v):
    return struct.pack("<d", float(v))


_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3))
_coeffs = st.one_of(
    st.sampled_from([1.0, -1.0]), st.floats(-1e3, 1e3).filter(lambda c: abs(c) >= 1e-12)
)
_terms = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), _coeffs, max_size=8)


@settings(deadline=None)
@given(_terms, st.lists(st.tuples(_values, _values), min_size=1, max_size=6))
@example({}, [(0.5, -0.0)])
@example({(0, 0): 1.0}, [(-0.0, -0.0)])
@example({(0, 0): -1.0}, [(2.0, 3.0)])
@example({(0, 0): 2.5}, [(0.0, 1.0)])
@example({(1, 0): 1.0, (0, 1): -1.0, (0, 3): 1.0}, [(-0.0, 0.0), (0.0, -0.0)])
def test_kernel_bitwise_matches_reference(terms, points):
    p = Poly2(terms)
    xs = np.array([x for x, _ in points])
    ys = np.array([y for _, y in points])
    arr = np.broadcast_to(p.evaluate(xs, ys), xs.shape)  # a constant comes back as a float
    for k, (x, y) in enumerate(points):
        ref = _bits(_ref_evaluate(p, x, y))
        assert _bits(p.evaluate(x, y)) == ref
        assert _bits(arr[k]) == ref


def _bits_of(terms):
    return {ij: _bits(c) for ij, c in terms.items()}


@settings(deadline=None)
@given(_terms, _terms)
@example({(1, 0): 1.0}, {(1, 0): 1.0 - 1e-14})
@example({(0, 0): 1e-6, (1, 0): 1.0}, {(0, 0): 1e-6, (0, 1): 1.0})
def test_ops_match_dict_oracles_bitwise(a, b):
    pa, pb = Poly2(a), Poly2(b)
    neg_b = {k: -v for k, v in b.items()}
    assert _bits_of((pa + pb).coefficients()) == _bits_of(_oracle_add(a, b))
    assert _bits_of((pa - pb).coefficients()) == _bits_of(_oracle_add(a, neg_b))
    assert _bits_of((pa * pb).coefficients()) == _bits_of(_oracle_mul(a, b))
    for var in ("x", "y"):
        assert _bits_of(pa.diff(var).coefficients()) == _bits_of(_oracle_diff(a, var))


def test_kernel_with_many_terms_matches_reference():
    # past 64 terms the generated sum is split over several statements
    p = Poly2({(i, j): 1.0 + 0.01 * (i - j) for i in range(12) for j in range(12)})
    for x, y in ((0.3, -0.7), (-0.0, 1.1), (1.01, -0.0)):
        assert _bits(p.evaluate(x, y)) == _bits(_ref_evaluate(p, x, y))


@pytest.mark.parametrize("text", ["0", "2.5", "-1", "x^2", "y - 3"])
def test_eval_array_fills_input_shape(text):
    # eval_array is evaluate: a constant comes back as a float and broadcasts
    p = parse_polynomial(text)
    xs = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    ys = xs.T.copy().reshape(3, 4)
    out = np.broadcast_to(p.eval_array(xs, ys), (3, 4))
    assert all(_bits(out[r, c]) == _bits(_ref_evaluate(p, xs[r, c], ys[r, c]))
               for r in range(3) for c in range(4))


def test_huge_exponent_literal_is_rejected_quickly():
    start = time.perf_counter()
    with pytest.raises(ParseError, match="degree"):
        parse_polynomial("1^2000000")
    with pytest.raises(ParseError, match="degree"):
        parse_polynomial("2^" + "9" * 5000)
    assert time.perf_counter() - start < 0.5
    assert parse_polynomial("x^64") == Poly2.monomial(64, 0)
    assert parse_polynomial("1^64 + x^0064") == parse_polynomial("1 + x^64")
