"""The compiled tangent step against the generated Python one: the same bits
on every array call, the same errors, and the same bytes wherever it falls
back to Python."""

import io
import math
import os
import shutil
import sys
import time
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ilekoop import _native, flowmap, strain, vectorfield
from ilekoop.errors import DomainError, NumericalError
from ilekoop.expr import Poly2, format_float, parse_polynomial
from ilekoop.families import (
    CubicParams,
    QuadraticParams,
    make_cubic_family,
    make_quadratic_family,
    make_transformed_family,
)
from ilekoop.flowmap import IntegratorConfig, ftle, ftle_field
from ilekoop.strain import Grid2D, ScalarField
from ilekoop.vectorfield import (
    SADDLE_Y_BOUND,
    VectorField2D,
    _STEP_SIZES,
    _field_terms,
    _rk4_factory,
    _rk4_lines,
)

CFG = IntegratorConfig(step=1e-3)
HAVE_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")


def _cubic():
    return make_cubic_family(CubicParams(2.0, 2.0 / 3.0, -1.0 / 3.0, -2.0))


def _fields_and_boxes():
    return [
        (_cubic(), (0.1, 0.9, 0.1, 0.9)),
        (make_quadratic_family(QuadraticParams(1.0, 1.0)), (0.1, 0.9, 0.1, 0.9)),
        (make_transformed_family(-1.0, [-0.5]), (0.2, 1.2, -0.5, 0.5)),
        (VectorField2D.saddle(), (-1.0, 1.0, -0.75, 0.75)),
        # mixed degrees and no family structure
        (VectorField2D(parse_polynomial("x + 0.3*y^2 - 0.2*x^3"),
                       parse_polynomial("-y + 0.4*x^2 + y^3")), (-0.5, 0.5, -0.5, 0.5)),
    ]


def _polys(f):
    return (f.p, f.q, *f._jac)


def _python_tangent(f):
    """The field's generated Python tangent, never the compiled one."""
    shapes, coeffs = _field_terms(_polys(f))
    return _rk4_factory(shapes, "tangent", f.is_saddle)(*coeffs)


def _identity(shape) -> tuple:
    """The flow-map gradient's four entries at time 0, as separate arrays."""
    return np.ones(shape), np.zeros(shape), np.zeros(shape), np.ones(shape)


def _python_only(monkeypatch):
    """Make every field built from now on run the generated Python tangent."""
    monkeypatch.setattr(_native, "_kernel", lambda shapes, saddle: None)


def _same(a, b) -> bool:
    """Equal shapes, NaN at the same places, and equal values with equal
    sign bits everywhere else (so -0.0 and 0.0 differ, as do -inf and inf)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    keep = ~np.isnan(a)
    return np.array_equal(a[keep], b[keep]) and np.array_equal(np.signbit(a[keep]),
                                                               np.signbit(b[keep]))


# -- the same bits --------------------------------------------------------------------

_EXPONENTS = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda ij: sum(ij) <= 4)
_COEFFS = st.sampled_from([1.0, -1.0, 2.0, -0.375]) | st.floats(-3.0, 3.0, allow_nan=False)
_COMPONENT = st.dictionaries(_EXPONENTS, _COEFFS, max_size=5)
_COORDS = st.floats(-1.5, 1.5, allow_nan=False) | st.sampled_from([-0.0, 1e150, -1e200])


@settings(max_examples=40, deadline=None)
@given(p=_COMPONENT, q=_COMPONENT, shape=st.sampled_from([(1,), (5,), (1, 3), (2, 3)]),
       t=st.floats(0.0005, 0.05) | st.floats(-0.05, -0.0005), data=st.data(),
       shared=st.booleans())
# zero field, unit constant Jacobian, and a plan whose last step is partial
@example(p={}, q={}, shape=(2, 3), t=-0.0237, data=None, shared=False)
@example(p={(1, 0): 1.0}, q={(0, 1): -1.0, (2, 0): 1.0}, shape=(5,), t=0.0213, data=None,
         shared=False)
@example(p={(0, 0): 1.0, (1, 1): 0.5}, q={(1, 0): 2.0}, shape=(1, 3), t=-0.035, data=None,
         shared=False)
# the identity as cauchy_green passes it: F11 and F22 one array, F12 and F21 another
@example(p={(0, 2): 1.0, (1, 0): -0.5}, q={(1, 1): 2.0, (0, 1): 1.0}, shape=(2, 3), t=-0.0237,
         data=None, shared=True)
def test_compiled_tangent_equals_the_python_tangent(p, q, shape, t, data, shared):
    """Each step of a plan (step 0.01) gives the bits of the generated Python
    tangent on 1-D and 2-D arrays, non-finite entries included, whether or
    not the gradient's entries start as shared arrays."""
    f = VectorField2D(Poly2(p), Poly2(q))
    size = int(np.prod(shape))
    if data is None:
        coords = np.linspace(-1.0, 1.0, 2 * size)
    else:
        coords = np.array(data.draw(st.lists(_COORDS, min_size=2 * size, max_size=2 * size)))
    x, y = coords[:size].reshape(shape), coords[size:].reshape(shape)
    one, zero = np.ones(shape), np.zeros(shape)
    python = _python_tangent(f)
    compiled = f._rk4("tangent")
    want = got = (x, y, *((one, zero, zero, one) if shared else _identity(shape)))
    with np.errstate(all="ignore"):
        for _, h in flowmap._steps(t, 0.01):
            want, got = python(*want, h), compiled(*got, h)
            assert all(map(_same, want, got)), h
    if HAVE_CC:
        assert _native._KERNELS[_field_terms(_polys(f))[0], False] is not None


@pytest.mark.parametrize("k", range(5))
def test_compiled_tangent_leaves_its_inputs_alone(k):
    """The state as ``cauchy_green`` passes it, one array of ones as F11 and
    F22 and one of zeros as F12 and F21, keeps its bits through a step."""
    f, (x0, x1, y0, y1) = _fields_and_boxes()[k]
    x, y = np.meshgrid(np.linspace(x0, x1, 5), np.linspace(y0, y1, 3))
    state = (x, y, np.ones(x.shape), np.zeros(x.shape))
    before = [v.tobytes() for v in state]
    f._rk4("tangent")(x, y, state[2], state[3], state[3], state[2], -0.01)
    assert [v.tobytes() for v in state] == before
    if HAVE_CC:
        assert _native._KERNELS[_field_terms(_polys(f))[0], f.is_saddle] is not None


def _in_order(part: list, whole: list) -> bool:
    """Whether ``part`` is a subsequence of ``whole``."""
    rest = iter(whole)
    return all(line in rest for line in part)


@settings(max_examples=100, deadline=None)
@given(p=_COMPONENT, q=_COMPONENT, saddle=st.booleans())
@example(p={}, q={}, saddle=False)
def test_tangent_runs_the_step_statements(p, q, saddle):
    """One statement form: the generated tangent's statements contain every
    statement of the plain step, in order, so the gradient's lines only add
    to the step's; and its C source runs the same list."""
    f = VectorField2D.saddle() if saddle else VectorField2D(Poly2(p), Poly2(q))
    shapes = _field_terms(_polys(f))[0]
    bodies = {}
    with mock.patch.object(vectorfield, "_compile",
                           lambda shapes, head, body, **names: bodies.setdefault(head, body)):
        for mode, count in (("step", 2), ("tangent", 6)):
            _rk4_factory.__wrapped__(shapes[:count], mode, saddle)
    step, tangent = (bodies[head][:-1] for head in sorted(bodies))
    assert tangent == _STEP_SIZES + _rk4_lines(shapes, "_check_domain({y})" if saddle else None)
    assert _in_order(step, tangent)
    guard = f"if (!(fabs({{y}}) < {SADDLE_Y_BOUND!r})) return 1" if saddle else None
    c_lines = [line.strip()[:-1] for line in _native._c_tangent(shapes, saddle).splitlines()]
    assert _in_order(_STEP_SIZES + _rk4_lines(shapes, guard), c_lines)


@pytest.mark.parametrize("k", range(5))
def test_ftle_field_bytes_equal_on_both_paths(monkeypatch, k):
    """At threads 1 and 2, with rows split into many blocks."""
    monkeypatch.setattr(flowmap, "_FTLE_CHUNK_NODES", 30)
    x0, x1, y0, y1 = _fields_and_boxes()[k][1]
    grid = Grid2D(x0, x1, 13, y0, y1, 11)
    compiled = [ftle_field(_fields_and_boxes()[k][0], grid, t, None, CFG, threads).values.tobytes()
                for t in (-0.05, 0.0437) for threads in (1, 2)]
    _python_only(monkeypatch)
    python = [ftle_field(_fields_and_boxes()[k][0], grid, t, None, CFG, threads).values.tobytes()
              for t in (-0.05, 0.0437) for threads in (1, 2)]
    assert compiled == python
    assert compiled[0] == compiled[1] and compiled[2] == compiled[3]


def test_saddle_guard_exit_has_one_text_on_both_paths(monkeypatch):
    """A stage that leaves |y| < 1 (here at the last of 4 nodes, by a long
    backward time) raises the array guard's text, whichever step ran."""
    xs, ys = np.array([0.5, -0.25, 0.0, 0.5]), np.array([0.25, -0.5, 0.0, 0.99])
    cfg = IntegratorConfig(step=0.05)
    texts = []
    for python_only in (False, True):
        if python_only:
            _python_only(monkeypatch)
        with pytest.raises(DomainError) as exc:
            ftle(VectorField2D.saddle(), (xs, ys), -25.0, cfg)
        texts.append(str(exc.value))
    assert texts == ["saddle field is only defined for |y| < 1"] * 2


@needs_cc
def test_saddle_kernel_refuses_what_the_guard_refuses():
    shapes, coeffs = _field_terms(_polys(VectorField2D.saddle()))
    kernel = _native._kernel(shapes, True)
    c, one, zero = np.array(coeffs + [0.0]), np.ones(2), np.zeros(2)
    for y, code in ((1.0, 1), (-1.0, 1), (np.nan, 1), (SADDLE_Y_BOUND, 1), (-np.inf, 1),
                    (np.nextafter(SADDLE_Y_BOUND, 0.0), 0), (0.5, 0)):
        got = _native._run(kernel, c, np.zeros(2), np.array([0.0, y]), one, zero, zero, one,
                           0.0)
        assert got[0] == code, y


def test_blow_up_stops_stepping_soon_on_the_python_step(monkeypatch):
    """``test_blow_up_stops_stepping_soon``'s grid, with the compiled step off."""
    _python_only(monkeypatch)
    f = VectorField2D(parse_polynomial("x^2"), Poly2())
    finite, tangent = [], f._rk4("tangent")

    def counted(*args):
        out = tangent(*args)
        finite.append(all(np.isfinite(v).all() for v in out))
        return out

    f._rk4s["tangent"] = counted
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="^trajectory became non-finite$"):
        ftle_field(f, Grid2D(0.0, 10.0, 3, -1.0, 1.0, 3), 10.0, None, CFG)
    assert 0 < finite.index(False) < len(finite) <= finite.index(False) + 64


def test_calls_the_kernel_cannot_take_run_python():
    """Floats, float32, non-contiguous and read-only arrays, empty arrays,
    mismatched shapes and a numpy step all give the Python tangent's bits."""
    f = _cubic()
    python, tangent = _python_tangent(f), f._rk4("tangent")
    x, y = np.linspace(0.1, 0.9, 6).reshape(2, 3), np.linspace(0.2, 0.7, 6).reshape(2, 3)
    grad = _identity(x.shape)
    frozen = x.copy()
    frozen.flags.writeable = False
    calls = [(0.5, 0.25, 1.0, 0.0, 0.0, 1.0, 0.01), (x, y, *grad, np.float64(0.01)),
             (x.astype(np.float32), y, *grad, 0.01), (x.T, y.T, *_identity(x.T.shape), 0.01),
             (frozen, y, *grad, 0.01), (x[:, :0], y[:, :0], *(v[:, :0] for v in grad), 0.01),
             (x, y, *(v[0] for v in grad), 0.01), (x, y, *grad, 0.01)]
    for call in calls:
        assert all(map(_same, python(*call), tangent(*call)))


# -- fallbacks and the cache ------------------------------------------------------------

_GRID = Grid2D(0.1, 0.9, 9, 0.1, 0.9, 7)


@pytest.mark.parametrize("fault", ["too long", "no compiler", "build fails", "probe mismatch"])
def test_fallback_gives_the_same_bytes(monkeypatch, tmp_path, fault):
    want = ftle_field(_cubic(), _GRID, -0.05, None, CFG).values.tobytes()
    monkeypatch.setattr(_native, "_KERNELS", {})
    monkeypatch.setattr(_native, "_CACHE", tmp_path)
    c_tangent, probe, probed = _native._c_tangent, _native._probe, []
    if fault == "too long":
        monkeypatch.setattr(_native, "_MAX_SOURCE_BYTES", 100)
    elif fault == "no compiler":
        monkeypatch.setattr(_native, "_COMPILE", ("ilekoop-no-such-cc", *_native._COMPILE[1:]))
    elif fault == "build fails":
        monkeypatch.setattr(_native, "_c_tangent", lambda shapes, saddle: "not C\n")
    else:  # a kernel that builds but divides by 6 a little wrongly
        monkeypatch.setattr(_native, "_c_tangent", lambda shapes, saddle: c_tangent(
            shapes, saddle).replace("h / 6.0", "h / 6.000000001"))
    monkeypatch.setattr(_native, "_probe", lambda *args: probed.append(probe(*args)) or probed[-1])
    assert ftle_field(_cubic(), _GRID, -0.05, None, CFG).values.tobytes() == want
    assert list(_native._KERNELS.values()) == [None]
    assert probed == ([False] if fault == "probe mismatch" and HAVE_CC else [])


@needs_cc
@pytest.mark.parametrize("bytecode", ["written", "dont_write_bytecode"])
def test_cached_kernel_loads_without_a_compiler(monkeypatch, tmp_path, bytecode):
    """A kernel is not bytecode: it is cached under ``sys.dont_write_bytecode``
    too, and a later load needs no compiler and marks it recently used."""
    shapes = _field_terms(_polys(_cubic()))[0]
    monkeypatch.setattr(sys, "dont_write_bytecode", bytecode == "dont_write_bytecode")
    monkeypatch.setattr(_native, "_CACHE", tmp_path / "cache")
    monkeypatch.setattr(_native, "_KERNELS", {})
    assert _native._kernel(shapes, False) is not None
    cached = list((tmp_path / "cache").iterdir())
    assert len(cached) == 1 and cached[0].name.startswith("tangent-") and cached[0].suffix == ".so"
    os.utime(cached[0], ns=(0, 0))
    monkeypatch.setattr(_native, "_KERNELS", {})
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    monkeypatch.setattr(_native, "_build", lambda *args: pytest.fail("built again"))
    assert _native._kernel(shapes, False) is not None
    assert cached[0].stat().st_mtime_ns > 0


@needs_cc
def test_private_builds_leave_nothing_behind(monkeypatch, tmp_path):
    """With a cache directory that cannot be made, the kernel loads from a
    temporary directory that is gone afterwards, and no cache file is
    written."""
    shapes = _field_terms(_polys(_cubic()))[0]
    (tmp_path / "tmp").mkdir()
    (tmp_path / "a-file").write_text("")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    target = tmp_path / "a-file" / "cache"
    monkeypatch.setattr(_native, "_CACHE", target)
    monkeypatch.setattr(_native, "_KERNELS", {})
    assert _native._kernel(shapes, False) is not None
    assert not target.exists()
    assert list((tmp_path / "tmp").iterdir()) == []


@needs_cc
def test_ftle_field_runs_the_compiled_step(monkeypatch):
    """With a compiler on PATH, no array call of ``ftle_field`` may reach the
    generated Python tangent: a broken build must not quietly cost the gain."""
    array_tangent = _native.array_tangent

    def python_refused(shapes, coeffs, saddle, python):
        def refused(*call):
            pytest.fail("an array call ran the Python tangent")

        return array_tangent(shapes, coeffs, saddle, refused)

    monkeypatch.setattr(_native, "array_tangent", python_refused)
    for f, (x0, x1, y0, y1) in _fields_and_boxes():
        ftle_field(f, Grid2D(x0, x1, 21, y0, y1, 21), -0.05, None, CFG)


@pytest.mark.parametrize("others", ["older", "newer"])
def test_publishing_keeps_the_most_recently_loaded_libraries(tmp_path, others):
    """Publishing into a cache of cap + 5 libraries deletes the six least
    recently loaded, never the one just published (even when the clock puts
    every other library after it), and nothing that is not a library."""
    cap = _native._CACHE_LIBRARIES
    cache = tmp_path / "cache"
    cache.mkdir()
    start = 0 if others == "older" else time.time_ns() + 86400 * 10**9
    libraries = []
    for k in range(cap + 5):
        libraries.append(cache / f"tangent-{k:032x}.so")
        libraries[-1].write_bytes(b"")
        os.utime(libraries[-1], ns=(start + k * 10**9,) * 2)
    (cache / "strain.cpython.pyc").write_bytes(b"")
    built = tmp_path / "built.so"
    built.write_bytes(b"library")
    published = cache / "csv-new.so"
    _native._publish(built, published)
    assert sorted(cache.glob("*.so")) == sorted([published, *libraries[6:]])
    assert published.read_bytes() == b"library"
    assert (cache / "strain.cpython.pyc").exists()
    assert len(list(cache.glob("*.so"))) == cap


# -- the CSV formatter ------------------------------------------------------------------

def _formatted(values) -> list:
    """The compiled formatter's text of each value, through a one-row grid."""
    values = np.array(values, dtype=np.float64).reshape(1, -1)
    blocks = _native.csv_blocks(values, ["x"] * values.size, ["y"])
    return [line.removeprefix("x,y,") for line in "".join(blocks).splitlines()]


@needs_cc
@settings(max_examples=1000, deadline=None)
@given(v=st.floats(allow_nan=False, allow_infinity=False))
@example(v=0.0)
@example(v=-0.0)
@example(v=5e-324)
@example(v=2.2250738585072014e-308)
@example(v=1.7976931348623157e308)
@example(v=1.0 + 2.0**-17)  # a tie: 18 significant digits ending in 5, rounded to even
@example(v=1e-4)  # the last fixed-point value ...
@example(v=math.nextafter(1e-4, 0.0))  # ... and the first in exponent notation
@example(v=1e16)
@example(v=1e17)
@example(v=math.nextafter(1e17, 0.0))
@example(v=1e22)
@example(v=1e23)
def test_formatter_writes_format_float(v):
    """Every finite double, either sign: the bytes of ``format_float``."""
    assert _formatted([v, -v]) == [format_float(v), format_float(-v)]


@needs_cc
def test_formatter_on_many_doubles():
    """Random bit patterns, normal values over 80 decades, and exact ties
    odd / 2^j, whose 18th significant digit is a 5 followed by nothing."""
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(50_000) * 10.0 ** rng.integers(-40, 40, 50_000)
    ties = (rng.integers(1, 2**52, 50_000) | 1) / 2.0 ** rng.integers(1, 53, 50_000)
    for values in (bits[np.isfinite(bits)], scaled, ties):
        assert _formatted(values) == [format_float(v) for v in values.tolist()]
    assert _formatted([np.inf, -np.inf, np.nan, -np.nan]) == ["inf", "-inf", "nan", "nan"]


def _template_csv(f) -> str:
    """``write_csv`` with no formatter: the one-``%``-per-row writer."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "csv_blocks", lambda *args: None)
        return _csv(f)


def _csv(f) -> str:
    out = io.StringIO()
    strain.write_csv(f, out)
    return out.getvalue()


_ANY_DOUBLE = st.floats(allow_nan=False, allow_infinity=False)
_SLOW_PATH = st.sampled_from([5e-324, -2.5e-310, 1e-300, -3e-7, 1e39, -1.7976931348623157e308])


@needs_cc
@settings(max_examples=60, deadline=None)
@given(nx=st.integers(2, 9), ny=st.integers(2, 9), data=st.data(),
       box=st.sampled_from([(0.1, 0.9, -0.5, 0.5), (-1.2345678901234567e-300, -1.1e-300,
                                                     1.0000000000000002e300, 1.5e300)]))
def test_compiled_csv_equals_the_template_writer(nx, ny, data, box):
    """Random fields, values of the snprintf path (subnormal, below 1e-6,
    above 1e38) among them, on grids with 24-character axis texts, with
    blocks of one row, a few rows, or the whole grid."""
    values = data.draw(st.lists(_ANY_DOUBLE | _SLOW_PATH, min_size=nx * ny, max_size=nx * ny))
    f = ScalarField(Grid2D(box[0], box[1], nx, box[2], box[3], ny),
                    np.array(values).reshape(ny, nx))
    want = _template_csv(f)
    for budget in (1, 150 * nx, _native._CSV_BLOCK_BYTES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_native, "_CSV_BLOCK_BYTES", budget)
            assert _csv(f) == want
    assert _native._KERNELS["csv"] is not None


@needs_cc
@pytest.mark.parametrize("ny", [1, 6, 7, 8])
def test_csv_blocks_straddle_rows(monkeypatch, ny):
    """Three rows of 300-character axis texts per block: the last block is
    full, short or one row; a row longer than the budget is one block."""
    xt, yt = ["1" * 300, "-2" * 150], [f"{k}" * 300 for k in range(ny)]
    values = np.linspace(-1.0, 1.0, 2 * ny).reshape(ny, 2)
    want = [f"{x},{y},{format_float(v)}\n" for y, row in zip(yt, values.tolist())
            for x, v in zip(xt, row)]
    row = 600 + 2 + 2 * (301 + _native._VALUE_BYTES + 1)
    for budget, rows in ((3 * row, 3), (100, 1)):
        monkeypatch.setattr(_native, "_CSV_BLOCK_BYTES", budget)
        blocks = list(_native.csv_blocks(values, xt, yt))
        assert "".join(blocks) == "".join(want)
        assert [b.count("\n") for b in blocks] == [2 * min(rows, ny - r) for r in range(0, ny, rows)]


@needs_cc
def test_csv_blocks_refuse_values_that_do_not_match_the_texts():
    """The kernel reads one axis text per column and row, so a mismatch
    never reaches it."""
    for values in (np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(4)):
        with pytest.raises(ValueError, match="^values do not match the axis texts$"):
            list(_native.csv_blocks(values, ["a", "b"], ["c", "d"]))


@pytest.mark.parametrize("fault", ["no compiler", "probe fails"])
def test_csv_fallback_gives_the_same_bytes(monkeypatch, tmp_path, fault):
    """No compiler, or a formatter that rounds ties up: the template writer's
    bytes, and no library loaded."""
    f = ScalarField(Grid2D(0.1, 0.9, 9, -0.5, 0.5, 7),
                    np.linspace(-2.0, 3.0, 63).reshape(7, 9) ** 3 * 1e-3)
    want = _template_csv(f)
    monkeypatch.setattr(_native, "_KERNELS", {})
    monkeypatch.setattr(_native, "_CACHE", tmp_path)
    probe, probed = _native._probe_csv, []
    if fault == "no compiler":
        monkeypatch.setattr(_native, "_COMPILE", ("ilekoop-no-such-cc", *_native._COMPILE[1:]))
    else:
        assert _native._C_CSV.count("(q & 1)") == 1
        monkeypatch.setattr(_native, "_C_CSV", _native._C_CSV.replace("(q & 1)", "1"))
    monkeypatch.setattr(_native, "_probe_csv", lambda kernel: probed.append(probe(kernel))
                        or probed[-1])
    assert _csv(f) == want
    assert _native._KERNELS == {"csv": None}
    assert probed == ([False] if fault == "probe fails" and HAVE_CC else [])
