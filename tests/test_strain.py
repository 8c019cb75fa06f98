"""Strain rates, grid sampling, and ridge/trench extraction."""

import io
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ilekoop import strain
from ilekoop.errors import NumericalError
from ilekoop.expr import Poly2, parse_polynomial
from ilekoop.families import QuadraticParams, make_quadratic_family, make_transformed_family
from ilekoop.strain import (
    Grid2D,
    ScalarField,
    SymTensor2,
    extract_extremal_set,
    rate_field,
    strain_rates,
    strain_tensor,
    write_csv,
    write_pgm,
)
from ilekoop.vectorfield import VectorField2D

from test_vectorfield import cubic_example_field


def test_saddle_rates_midheight():
    s1, s2 = strain_rates(VectorField2D.saddle(), 2.0, 0.5)
    assert s1 == pytest.approx(-0.25, abs=1e-15)
    assert s2 == pytest.approx(1.0, abs=1e-15)


def test_rigid_rotation_has_zero_strain():
    f = VectorField2D(parse_polynomial("-y"), parse_polynomial("x"))
    for x, y in [(0.0, 0.0), (1.0, 2.0), (-0.3, 0.7)]:
        assert strain_rates(f, x, y) == (0.0, 0.0)


def test_quadratic_family_repulsion_value():
    f = make_quadratic_family(QuadraticParams(1.0, 1.0))
    _, s2 = strain_rates(f, 1.0, 0.0)
    assert s2 == pytest.approx(2.0, abs=1e-14)


def test_rate_ordering_and_trace():
    rng = random.Random(23)
    fields = [
        VectorField2D.saddle(),
        cubic_example_field(),
        make_quadratic_family(QuadraticParams(-1.2, 0.4)),
    ]
    for f in fields:
        for _ in range(50):
            x, y = rng.uniform(-1, 1), rng.uniform(-0.9, 0.9)
            s1, s2 = strain_rates(f, x, y)
            j = f.jacobian(x, y)
            assert s1 <= s2
            assert s1 + s2 == pytest.approx(j[0] + j[3], abs=1e-12)


def test_rates_invariant_under_added_rotation():
    rng = random.Random(29)
    base_p = parse_polynomial("x*y - 2*y")
    base_q = parse_polynomial("x^2 + y^2")
    f = VectorField2D(base_p, base_q)
    for _ in range(20):
        omega = rng.uniform(-3, 3)
        g = VectorField2D(
            base_p + omega * parse_polynomial("-y"), base_q + omega * parse_polynomial("x")
        )
        x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
        a = strain_rates(f, x, y)
        b = strain_rates(g, x, y)
        assert a[0] == pytest.approx(b[0], abs=1e-12)
        assert a[1] == pytest.approx(b[1], abs=1e-12)


def test_shear_free_rates_are_diagonal_entries():
    # With no shear the diagonal entries are the eigenvalues; ordering is
    # whichever of du/dx, dv/dy is smaller at the point.
    rng = random.Random(31)
    f = make_quadratic_family(QuadraticParams(0.8, 0.5))
    for _ in range(50):
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        j = f.jacobian(x, y)
        s1, s2 = strain_rates(f, x, y)
        lo, hi = sorted((j[0], j[3]))
        assert s1 == pytest.approx(lo, abs=1e-12)
        assert s2 == pytest.approx(hi, abs=1e-12)


def test_strain_tensor_symmetry():
    t = strain_tensor(cubic_example_field(), 0.4, -0.2)
    lo, hi = t.eigenvalues()
    assert lo <= hi


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(0.0, 1.0, 1, 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        Grid2D(1.0, 0.0, 5, 0.0, 1.0, 5)


def test_saddle_rate_field_minimum_on_axis():
    grid = Grid2D(-1.0, 1.0, 11, -0.75, 0.75, 11)
    sf = rate_field(VectorField2D.saddle(), grid, "s1")
    assert sf.min() == pytest.approx(-1.0, abs=1e-14)
    # minimum attained exactly on the y = 0 row
    row = sf.values[5]
    assert np.all(np.abs(row + 1.0) < 1e-14)


def test_saddle_rate_field_symmetric_in_y():
    # dyadic spacing so the +y and -y rows carry exactly mirrored coordinates
    grid = Grid2D(-1.0, 1.0, 9, -0.5, 0.5, 9)
    sf = rate_field(VectorField2D.saddle(), grid, "s1")
    assert np.array_equal(sf.values, sf.values[::-1])


def test_cubic_example_rate_field_minimum_on_line():
    # Keep the grid where dQ/dy is the smaller diagonal entry.
    grid = Grid2D(0.1, 0.9, 33, 0.1, 0.9, 33)
    sf = rate_field(cubic_example_field(), grid, "s1")
    assert sf.min() >= -1e-12
    ys, xs = np.meshgrid(grid.ys(), grid.xs(), indexing="ij")
    expected = ((xs + ys) - 1.0) ** 2
    assert np.max(np.abs(sf.values - expected)) < 1e-12


def test_rate_field_threads_bitwise_identical():
    grid = Grid2D(-1.0, 1.0, 40, -0.7, 0.7, 37)
    a = rate_field(VectorField2D.saddle(), grid, "s1", threads=1)
    b = rate_field(VectorField2D.saddle(), grid, "s1", threads=4)
    assert np.array_equal(a.values, b.values)
    f = cubic_example_field()
    a = rate_field(f, grid, "s2", threads=1)
    b = rate_field(f, grid, "s2", threads=5)
    assert np.array_equal(a.values, b.values)


def test_rate_field_split_rows_bitwise_identical(monkeypatch):
    monkeypatch.setattr(strain, "_CHUNK_NODES", 1)  # let 37 rows split unevenly
    grid = Grid2D(-1.0, 1.0, 40, -0.7, 0.7, 37)
    for f, which in ((VectorField2D.saddle(), "s1"), (cubic_example_field(), "s2")):
        whole = rate_field(f, grid, which, threads=1).values.tobytes()
        for threads in (2, 3):
            assert rate_field(f, grid, which, threads).values.tobytes() == whole


@pytest.mark.parametrize("threads", [1, 2])
def test_rate_field_on_affine_field(monkeypatch, threads):
    # every derivative is a constant, so each chunk's rate is one float that
    # fills its rows, and a point's rate equals every node's
    monkeypatch.setattr(strain, "_CHUNK_NODES", 1)  # let 6 rows split
    f = VectorField2D(parse_polynomial("0.3 + 2*x - 0.7*y"),
                      parse_polynomial("-1 + 0.4*x + 1.1*y"))
    rates = (1.0756583509747433, 2.024341649025257)
    assert strain_rates(f, 0.1, -0.2) == rates
    grid = Grid2D(-1.0, 1.0, 7, -0.5, 0.5, 6)
    for which, value in zip(("s1", "s2"), rates):
        values = rate_field(f, grid, which, threads).values
        assert values.tobytes() == np.full((6, 7), value).tobytes()


@pytest.mark.parametrize("side, chunks", [(41, 1), (121, 1), (161, 2), (201, 2)])
def test_rate_field_chunk_floor(side, chunks):
    # rate_field's floor runs up to 121x121 nodes serially at threads 2 and
    # splits 161x161.
    grid = Grid2D(0.0, 1.0, side, 0.0, 1.0, side)
    rows = []

    def record(xv, yv):
        rows.append(len(yv))
        return xv + yv

    strain._sample_grid(grid, record, 2)
    assert sorted(rows) == sorted([side // chunks + (k < side % chunks) for k in range(chunks)])


def test_extract_trench_on_cubic_example():
    grid = Grid2D(0.1, 0.9, 41, 0.1, 0.9, 41)
    sf = rate_field(cubic_example_field(), grid, "s1")
    cell = math.hypot(grid.dx, grid.dy)
    hits = extract_extremal_set(sf, "trench", grad_tol=3.5 * cell, curv_tol=1e-6)
    assert hits
    xs, ys = grid.xs(), grid.ys()
    for ix, iy in hits:
        assert abs(xs[ix] + ys[iy] - 1.0) / math.sqrt(2.0) <= cell


def test_extract_trench_transformed_cubic():
    f = make_transformed_family(-1.0, [-1.0])
    grid = Grid2D(-0.5, 0.5, 41, -1.0, 1.0, 21)
    sf = rate_field(f, grid, "s1")
    hits = extract_extremal_set(sf, "trench", grad_tol=3.0 * grid.dx, curv_tol=1e-6)
    assert hits
    xs = grid.xs()
    for ix, _ in hits:
        assert abs(xs[ix]) <= grid.dx


def test_extract_ridge():
    grid = Grid2D(0.1, 0.9, 31, 0.1, 0.9, 31)
    ys, xs = np.meshgrid(grid.ys(), grid.xs(), indexing="ij")
    sf = ScalarField(grid, -(((xs + ys) - 1.0) ** 2))
    cell = math.hypot(grid.dx, grid.dy)
    hits = extract_extremal_set(sf, "ridge", grad_tol=4.0 * cell, curv_tol=1e-6)
    assert hits
    for ix, iy in hits:
        assert abs(grid.xs()[ix] + grid.ys()[iy] - 1.0) / math.sqrt(2.0) <= cell


def test_extract_constant_field_empty():
    grid = Grid2D(0.0, 1.0, 5, 0.0, 1.0, 5)
    sf = ScalarField(grid, np.ones((5, 5)))
    assert extract_extremal_set(sf, "trench") == []
    assert extract_extremal_set(sf, "ridge") == []


def test_extract_needs_three_nodes():
    grid = Grid2D(0.0, 1.0, 2, 0.0, 1.0, 5)
    sf = ScalarField(grid, np.zeros((5, 2)))
    with pytest.raises(ValueError):
        extract_extremal_set(sf, "trench")


def test_extract_sorted_row_major():
    grid = Grid2D(0.1, 0.9, 21, 0.1, 0.9, 21)
    sf = rate_field(cubic_example_field(), grid, "s1")
    hits = extract_extremal_set(sf, "trench", grad_tol=0.5, curv_tol=1e-6)
    assert hits == sorted(hits, key=lambda p: (p[1], p[0]))


def test_csv_format():
    grid = Grid2D(0.0, 1.0, 2, 0.0, 1.0, 2)
    sf = ScalarField(grid, np.array([[0.0, 0.25], [0.5, 1.0]]))
    buf = io.StringIO()
    write_csv(sf, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 5
    assert lines[1] == "0,0,0"
    assert lines[2] == "1,0,0.25"
    assert lines[3] == "0,1,0.5"


def test_csv_values_match_the_per_node_fstring():
    grid = Grid2D(-1.0, 1.0, 3, 0.0, 0.1, 2)
    values = np.array([[-0.0, 5e-324, 1e-5], [1.0 / 3.0, -2.5e-308, 1e16]])
    buf = io.StringIO()
    write_csv(ScalarField(grid, values), buf)
    xt, yt = strain.axis_text(grid)
    old = "x,y,value\n" + "".join(f"{x},{y},{v:.17g}\n" for y, row in zip(yt, values.tolist())
                                  for x, v in zip(xt, row))
    assert buf.getvalue() == old
    assert [line.rsplit(",", 1)[1] for line in buf.getvalue().splitlines()[1:]] == [
        "-0", "4.9406564584124654e-324", "1.0000000000000001e-05",
        "0.33333333333333331", "-2.4999999999999998e-308", "10000000000000000"]


def test_pgm_format():
    grid = Grid2D(0.0, 1.0, 2, 0.0, 1.0, 2)
    sf = ScalarField(grid, np.array([[0.0, 0.25], [0.5, 1.0]]))
    buf = io.StringIO()
    write_pgm(sf, buf)
    lines = buf.getvalue().splitlines()
    assert lines[:3] == ["P2", "2 2", "255"]
    # top row corresponds to ymax
    assert lines[3] == "128 255"
    assert lines[4] == "0 64"


def test_scalar_field_rejects_nonfinite():
    grid = Grid2D(0.0, 1.0, 2, 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        ScalarField(grid, np.array([[0.0, np.inf], [0.0, 0.0]]))


# -- the whole-grid extraction and writers against the scalar loops they replaced --

def _loop_extract(f, mode, grad_tol, curv_tol, projections=None):
    """The node-by-node extraction, kept as the reference.  Appends
    (ix, iy, |projection|) for every node that passes the curvature test to
    ``projections`` when given."""
    v = f.values
    dx, dy = f.grid.dx, f.grid.dy
    hits = []
    for iy in range(1, f.grid.ny - 1):
        for ix in range(1, f.grid.nx - 1):
            gx = (v[iy, ix + 1] - v[iy, ix - 1]) / (2.0 * dx)
            gy = (v[iy + 1, ix] - v[iy - 1, ix]) / (2.0 * dy)
            hxx = (v[iy, ix + 1] - 2.0 * v[iy, ix] + v[iy, ix - 1]) / (dx * dx)
            hyy = (v[iy + 1, ix] - 2.0 * v[iy, ix] + v[iy - 1, ix]) / (dy * dy)
            hxy = (
                v[iy + 1, ix + 1] - v[iy + 1, ix - 1] - v[iy - 1, ix + 1] + v[iy - 1, ix - 1]
            ) / (4.0 * dx * dy)
            lo, hi = _old_eigenvalues(hxx, hxy, hyy)
            lam = hi if mode == "trench" else lo
            if mode == "trench" and not lam > curv_tol:
                continue
            if mode == "ridge" and not lam < -curv_tol:
                continue
            ex, ey = _loop_eigenvector(hxx, hxy, hyy, lam)
            proj = abs(gx * ex + gy * ey)
            if projections is not None:
                projections.append((ix, iy, float(proj)))
            if proj < grad_tol:
                hits.append((ix, iy))
    hits.sort(key=lambda p: (p[1], p[0]))
    return hits


def _old_eigenvalues(sxx, sxy, syy):
    """The scalar closed form SymTensor2.eigenvalues had before it served
    arrays too, kept as the reference."""
    mean = 0.5 * (sxx + syy)
    d = sxx - syy
    rad = 0.5 * math.sqrt(d * d + 4.0 * sxy * sxy)
    return (mean - rad, mean + rad)


def _old_rates(a11, a12, a21, a22, sqrt):
    """The rate formula strain_rates (math.sqrt) and rate_field (np.sqrt)
    used to inline, kept as the reference: the shear enters unhalved."""
    mean = 0.5 * (a11 + a22)
    d = a11 - a22
    shear = a12 + a21
    rad = 0.5 * sqrt(d * d + shear * shear)
    return (mean - rad, mean + rad)


def _same_bits(a, b) -> bool:
    """Equal bit for bit, signed zeros included; any NaN matches any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.uint64), b[~nan].view(np.uint64)
    )


def _loop_eigenvector(hxx, hxy, hyy, lam):
    if abs(hxy) > 1e-300:
        vx, vy = hxy, lam - hxx
    elif abs(lam - hxx) <= abs(lam - hyy):
        vx, vy = 1.0, 0.0
    else:
        vx, vy = 0.0, 1.0
    norm = math.hypot(vx, vy)
    return (vx / norm, vy / norm)


def _loop_write_csv(f, stream):
    xs = f.grid.xs()
    ys = f.grid.ys()
    stream.write("x,y,value\n")
    for iy in range(f.grid.ny):
        for ix in range(f.grid.nx):
            stream.write(f"{xs[ix]:.17g},{ys[iy]:.17g},{f.values[iy, ix]:.17g}\n")


def _loop_write_pgm(f, stream):
    lo = f.min()
    hi = f.max()
    if hi > lo and math.isinf(255.0 / (hi - lo)):
        # a span below 255 / max double: the pixels of the field scaled by 2^600
        f = ScalarField(f.grid, f.values * 2.0**600)
        lo, hi = f.min(), f.max()
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    stream.write(f"P2\n{f.grid.nx} {f.grid.ny}\n255\n")
    for iy in range(f.grid.ny - 1, -1, -1):
        row = ((f.values[iy] - lo) * scale).round().astype(int)
        stream.write(" ".join(str(int(p)) for p in row) + "\n")


# Ordinary magnitudes mixed with signed zeros, subnormals, values near the
# 1e-300 off-diagonal cut and values whose differences overflow.
_special = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 2e-300, 1e-308, 1e300, -1e300, 1.0, -1.0]
)
_value = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e-6, 1e-6), _special)
_bound = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, -0.0, 0.1, 1.0 / 3.0, 1e-7]))


@st.composite
def _fields(draw, min_side=2):
    nx = draw(st.integers(min_side, 9))
    ny = draw(st.integers(min_side, 9))
    x0, y0 = draw(_bound), draw(_bound)
    wx = draw(st.sampled_from([1.0, 2.0, 0.3, 1e-3, 7.0]))
    wy = draw(st.sampled_from([1.0, 2.0, 0.3, 1e-3, 7.0]))
    grid = Grid2D(x0, x0 + wx, nx, y0, y0 + wy, ny)
    kind = draw(st.sampled_from(["random", "constant", "zero"]))
    if kind == "random":
        values = draw(st.lists(_value, min_size=nx * ny, max_size=nx * ny))
    elif kind == "constant":
        values = [draw(_value)] * (nx * ny)
    else:
        values = [0.0] * (nx * ny)
    return ScalarField(grid, np.array(values, dtype=float).reshape(ny, nx))


def _field3(rows) -> ScalarField:
    # 3x3 on the unit square: 4*dx*dy == 1, so the corners give the centre
    # node's hxy exactly.
    return ScalarField(Grid2D(0.0, 1.0, 3, 0.0, 1.0, 3), np.array(rows, dtype=float))


# The centre node's hxy sits on the 1e-300 cut; the two eigenvector branches
# give projections 0 and 2.5e-301 in ridge mode.
_CUT = _field3([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1e-300]])
# np.hypot and math.hypot differ in the last bit at the centre node, which
# moves its trench projection by one ulp.
_HYPOT = _field3(
    [[0.0, 0.0, 0.1615357394073358], [0.6745889310405622, 0.0, -0.2042340124879214],
     [0.0, 0.0, 0.0]]
)


@settings(max_examples=300, deadline=None)
@given(
    f=_fields(min_side=3),
    mode=st.sampled_from(["trench", "ridge"]),
    curv_tol=st.sampled_from([1e-6, 0.0, -1.0, 1e-300, 5.0]),
)
@example(f=_CUT, mode="ridge", curv_tol=-1.0)
@example(f=_CUT, mode="trench", curv_tol=-1.0)
@example(f=_field3([[0.0] * 3, [0.0] * 3, [0.0, 0.0, 2e-300]]), mode="trench", curv_tol=-1.0)
@example(f=_HYPOT, mode="trench", curv_tol=1e-6)
def test_extraction_matches_node_loop(f, mode, curv_tol):
    """grad_tol is placed on every computed projection and on the next float
    above it, where the strict ``<`` decides each node; any change in a
    projection, even by one ulp, changes one of these hit lists."""
    with np.errstate(all="ignore"):
        projections = []
        _loop_extract(f, mode, math.inf, curv_tol, projections)
        default_tol = strain.default_grad_tol(f)
        tols = {default_tol, 0.0, 1.0, math.inf}
        for _, _, p in projections:
            tols.update((p, math.nextafter(p, math.inf)))
        for grad_tol in tols:
            expected = [(ix, iy) for ix, iy, p in projections if p < grad_tol]
            got = extract_extremal_set(f, mode, grad_tol, curv_tol)
            assert got == expected, grad_tol
        assert extract_extremal_set(f, mode, None, curv_tol) == _loop_extract(
            f, mode, default_tol, curv_tol
        )
    assert all(type(i) is int for pair in got for i in pair)


def test_extraction_on_rate_fields_matches_node_loop():
    grid = Grid2D(-1.3, 0.9, 61, -0.8, 0.7, 47)
    fields = [VectorField2D.saddle(), cubic_example_field(), make_transformed_family(-1.0, [0.3])]
    for field in fields:
        for which in ("s1", "s2"):
            sf = rate_field(field, grid, which)
            for mode in ("trench", "ridge"):
                for tol in (None, 0.5, 3.0):
                    grad_tol = strain.default_grad_tol(sf) if tol is None else tol
                    expected = _loop_extract(sf, mode, grad_tol, 1e-6)
                    assert extract_extremal_set(sf, mode, grad_tol) == expected


@settings(max_examples=200, deadline=None)
@given(f=_fields())
def test_csv_and_pgm_match_row_loops(f):
    for new, old in ((write_csv, _loop_write_csv), (write_pgm, _loop_write_pgm)):
        a, b = io.StringIO(), io.StringIO()
        with np.errstate(all="ignore"):
            new(f, a)
            old(f, b)
        assert a.getvalue() == b.getvalue()


def _map_str_write_pgm(f, stream):
    """``write_pgm`` as it was before the pixel table, including the halved
    path for a span that overflows."""
    lo, hi, values = f.min(), f.max(), f.values
    if math.isinf(hi - lo):
        lo, hi, values = 0.5 * lo, 0.5 * hi, 0.5 * values
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pixels = ((values - lo) * scale).round().astype(int)
    stream.write(f"P2\n{f.grid.nx} {f.grid.ny}\n255\n")
    for row in pixels[::-1].tolist():
        stream.write(" ".join(map(str, row)) + "\n")


def _pgm_text(writer, f) -> str:
    buf = io.StringIO()
    with np.errstate(all="ignore"):
        writer(f, buf)
    return buf.getvalue()


@st.composite
def _pgm_fields(draw):
    """Fields of any finite values: ordinary, constant, overflowing spans
    (halved by the writer) and spans below 255 / max double."""
    nx, ny = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    pool = draw(st.sampled_from([
        st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-1.7e308, 1.7e308, 1e308, -1e308, 0.0, 1.0]),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-307, 2.5e-308])]))
    if draw(st.booleans()):
        values = draw(st.lists(pool, min_size=nx * ny, max_size=nx * ny))
    else:
        values = [draw(pool)] * (nx * ny)
    return ScalarField(Grid2D(0.0, 1.0, nx, 0.0, 1.0, ny),
                       np.array(values, dtype=float).reshape(ny, nx))


@settings(max_examples=300, deadline=None)
@given(f=_pgm_fields())
@example(f=ScalarField(Grid2D(0.0, 1.0, 2, 0.0, 1.0, 2), np.full((2, 2), -3.5)))
@example(f=ScalarField(Grid2D(0.0, 1.0, 3, 0.0, 1.0, 2),
                       np.array([[-1.7e308, 0.0, 1.7e308], [1.0, -1.0, 5e-324]])))
@example(f=ScalarField(Grid2D(0.0, 1.0, 2, 0.0, 1.0, 2), np.array([[0.0, 5e-324], [0.0, 0.0]])))
def test_pgm_table_writes_the_map_str_bytes(f):
    old = _pgm_text(_map_str_write_pgm, f)
    pixels = [int(p) for line in old.splitlines()[3:] for p in line.split()]
    if all(0 <= p <= 255 for p in pixels):
        assert _pgm_text(write_pgm, f) == old
    else:
        # 255 / span overflowed and the old writer printed the int64 minimum;
        # the span is now scaled by 2^600 first, exactly
        assert _pgm_text(write_pgm, f) == _pgm_text(
            _map_str_write_pgm, ScalarField(f.grid, f.values * 2.0**600))


def test_pgm_tiny_span_maps_ends():
    grid = Grid2D(0.0, 1.0, 3, 0.0, 1.0, 2)
    f = ScalarField(grid, np.array([[0.0, 5e-324, 1e-323], [1e-323, 1e-323, 0.0]]))
    assert _pgm_text(write_pgm, f) == "P2\n3 2\n255\n255 255 0\n0 128 255\n"


def test_pgm_overflowing_range_maps_ends():
    grid = Grid2D(0.0, 1.0, 3, 0.0, 1.0, 2)
    f = ScalarField(grid, np.array([[-1e308, 0.0, 1e308], [1e308, 1e308, -1e308]]))
    buf = io.StringIO()
    write_pgm(f, buf)
    assert buf.getvalue() == "P2\n3 2\n255\n255 255 0\n0 128 255\n"


# -- one eigen-solve for points, grids and extraction ----------------------------

# Signed zeros, subnormals, and magnitudes whose squares or sums overflow.
_entry = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, 1e154, -1e154, 1.4e154,
                     1e308, 1.7e308, -1.7e308, 1.0, -1.0]),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_entry, _entry, _entry, _entry), min_size=1, max_size=12))
def test_eigen_solve_matches_old_formulas(rows):
    a11, a12, a21, a22 = (np.array(col) for col in zip(*rows))
    with np.errstate(all="ignore"):
        got = SymTensor2(a11, 0.5 * (a12 + a21), a22).eigenvalues()
        want = _old_rates(a11, a12, a21, a22, np.sqrt)
    assert all(_same_bits(g, w) for g, w in zip(got, want))
    for x11, x12, x21, x22 in rows:
        got = SymTensor2(x11, 0.5 * (x12 + x21), x22).eigenvalues()
        assert [type(v) for v in got] == [float, float]
        assert all(_same_bits(g, w) for g, w in zip(got, _old_rates(x11, x12, x21, x22, math.sqrt)))
        got = SymTensor2(x11, x12, x22).eigenvalues()
        assert all(_same_bits(g, w) for g, w in zip(got, _old_eigenvalues(x11, x12, x22)))


_poly = st.dictionaries(
    st.sampled_from([(i, j) for i in range(4) for j in range(4 - i)]),
    st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])),
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(p=_poly, q=_poly, threads=st.sampled_from([1, 2]))
def test_strain_rates_match_rate_field_nodes(p, q, threads):
    f = VectorField2D(Poly2(p), Poly2(q))
    grid = Grid2D(-1.5, 0.5, 6, -0.3, 1.1, 5)
    s1 = rate_field(f, grid, "s1", threads).values
    s2 = rate_field(f, grid, "s2", threads).values
    for iy, y in enumerate(grid.ys().tolist()):
        for ix, x in enumerate(grid.xs().tolist()):
            r1, r2 = strain_rates(f, x, y)
            assert [type(r1), type(r2)] == [float, float]
            assert _same_bits(r1, s1[iy, ix]) and _same_bits(r2, s2[iy, ix])
            j = f.jacobian(x, y)
            assert _same_bits((r1, r2), _old_rates(j[0], j[1], j[2], j[3], math.sqrt))


def test_rate_field_overflow_is_a_numerical_error():
    f = VectorField2D(parse_polynomial("x*y - y^3"), parse_polynomial("x^2 + 0.3*y"))
    grid = Grid2D(-1.0, 0.5, 3, -1e308, 0.4, 3)
    with pytest.raises(NumericalError), np.errstate(over="ignore", invalid="ignore"):
        rate_field(f, grid, "s1")
