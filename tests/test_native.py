"""The compiled tangent plan, pullback march and text library against the
generated Python code and the Python writers: the same bits on every call,
the same errors, and the same bytes wherever they fall back to Python."""

import contextlib
import ctypes
import io
import math
import os
import platform
import shutil
import sys
import time
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ilekoop import _native, _native_arrays, cli, flowmap, strain, vectorfield
from ilekoop.errors import DomainError, NumericalError
from ilekoop.expr import Poly2, format_float, parse_polynomial
from ilekoop.families import (
    CubicParams,
    QuadraticParams,
    make_cubic_family,
    make_quadratic_family,
    make_transformed_family,
)
from ilekoop.flowmap import IntegratorConfig, cauchy_green, ftle, ftle_field
from ilekoop.koopman import DataSurface, pullback_eigenfunction
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
needs_x86_64_cc = pytest.mark.skipif(not HAVE_CC or platform.machine() not in ("x86_64", "AMD64"),
                                     reason="the tangent kernel is cloned on x86-64 only")


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
    """Make every field built from now on run the generated Python tangent
    through ``flowmap._advance``."""
    monkeypatch.setattr(_native_arrays, "_kernel", lambda shapes, saddle: None)


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


#: The compiled tangent test's fields, as P's and Q's terms, each run with its
#: own coefficients or random ones: the zero field, fields with a unit
#: constant Jacobian entry and with coefficients of exactly 1.0, five-term
#: components up to degree 4, and a field whose Q is zero.  Only these few
#: kernels build.
_TANGENT_FIELDS = [
    ({}, {}),
    ({(1, 0): 1.0}, {(0, 1): -1.0, (2, 0): 1.0}),
    ({(0, 0): 1.0, (1, 1): 0.5}, {(1, 0): 2.0}),
    ({(0, 2): 1.0, (1, 0): -0.5}, {(1, 1): 2.0, (0, 1): 1.0}),
    ({(0, 0): 0.25, (1, 0): -1.0, (0, 1): 1.5, (2, 1): 0.5, (0, 4): -0.375},
     {(1, 1): 2.0, (3, 0): -0.75, (2, 2): 1.0, (0, 3): 0.125, (4, 0): -2.5}),
    ({(2, 0): -1.25, (1, 2): 3.0}, {}),
]


def _python_plan(python, x, y, t, step) -> tuple:
    """The state after ``flowmap._steps(t, step)`` from (x, y) and the
    identity under the generated Python tangent ``python``."""
    state = (x, y, *_identity(x.shape))
    with np.errstate(all="ignore"):
        for _, h in flowmap._steps(t, step):
            state = python(*state, h)
    return state


def _plan(kernel, coeffs, x, y, t, step) -> tuple:
    """One call of the plan ``kernel``: its code and the final state."""
    with np.errstate(all="ignore"):
        return _native_arrays._run(kernel, np.array(coeffs + [0.0]), x, y,
                                   *flowmap._signed_plan(t, step))


@needs_cc
@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, len(_TANGENT_FIELDS) - 1),
       shape=st.sampled_from([(1,), (5,), (1, 3), (2, 3), (3, 200)]),
       t=st.floats(0.0005, 0.05) | st.floats(-0.05, -0.0005), data=st.data())
# zero field, unit constant Jacobian, and a plan whose last step is partial
@example(k=0, shape=(2, 3), t=-0.0237, data=None)
@example(k=1, shape=(5,), t=0.0213, data=None)
@example(k=2, shape=(1, 3), t=-0.035, data=None)
# three blocks, the last one short
@example(k=4, shape=(3, 200), t=0.0437, data=None)
def test_compiled_tangent_equals_the_python_tangent(k, shape, t, data):
    """A whole plan (step 0.01) gives the bits of the generated Python
    tangent, stepped through ``flowmap._steps``, on 1-D and 2-D arrays of
    one block or several, over random coefficients (or the field's own) on a
    fixed set of term structures; where the Python state ends non-finite,
    the plan stops after its last step instead."""
    f = VectorField2D(*map(Poly2, _TANGENT_FIELDS[k]))
    shapes, coeffs = _field_terms(_polys(f))
    if data is not None and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(_COEFFS, min_size=len(coeffs), max_size=len(coeffs)))
    size = int(np.prod(shape))
    if data is None:
        coords = np.linspace(-1.0, 1.0, 2 * size)
    else:  # a few drawn coordinates, repeated over large shapes
        count = min(2 * size, 24)
        coords = np.resize(data.draw(st.lists(_COORDS, min_size=count, max_size=count)), 2 * size)
    x, y = coords[:size].reshape(shape), coords[size:].reshape(shape)
    want = _python_plan(_rk4_factory(shapes, "tangent", False)(*coeffs), x, y, t, 0.01)
    code, got = _plan(_native_arrays._kernel(shapes, False), coeffs, x, y, t, 0.01)
    if all(np.isfinite(v).all() for v in want):
        assert code == 0 and all(map(_same, want, got))
    else:
        assert code == 1 + len(list(flowmap._steps(t, 0.01)))


@pytest.mark.parametrize("k", range(5))
def test_compiled_tangent_leaves_its_inputs_alone(k):
    """The nodes as ``cauchy_green`` passes them keep their bits through a
    plan."""
    f, (x0, x1, y0, y1) = _fields_and_boxes()[k]
    x, y = np.meshgrid(np.linspace(x0, x1, 5), np.linspace(y0, y1, 3))
    before = [x.tobytes(), y.tobytes()]
    grad = f._rk4("plan")(x, y, 4, -0.01, -0.0037)
    assert [x.tobytes(), y.tobytes()] == before
    if HAVE_CC:
        assert grad is not None
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
    guard = f"bad |= !(fabs({{y}}) < {SADDLE_Y_BOUND!r})" if saddle else None
    c_lines = [line.strip()[:-1] for line in _native_arrays._c_plan(shapes, saddle).splitlines()]
    assert _in_order(_STEP_SIZES + _rk4_lines(shapes, guard), c_lines)


@pytest.mark.parametrize("k", range(5))
def test_ftle_field_bytes_equal_on_both_paths(monkeypatch, k):
    """At threads 1 and 2, with rows split into many blocks."""
    monkeypatch.setattr(strain, "_CHUNK_NODES", 30)
    x0, x1, y0, y1 = _fields_and_boxes()[k][1]
    grid = Grid2D(x0, x1, 13, y0, y1, 11)
    compiled = [ftle_field(_fields_and_boxes()[k][0], grid, t, None, CFG, threads).values.tobytes()
                for t in (-0.05, 0.0437) for threads in (1, 2)]
    _python_only(monkeypatch)
    python = [ftle_field(_fields_and_boxes()[k][0], grid, t, None, CFG, threads).values.tobytes()
              for t in (-0.05, 0.0437) for threads in (1, 2)]
    assert compiled == python
    assert compiled[0] == compiled[1] and compiled[2] == compiled[3]


#: The four fields of the plan bits test on their boxes: cubic, quadratic,
#: transformed and saddle.
_PLAN_FIELDS = _fields_and_boxes()[:4]


def _ftle_bytes(k, side, t, threads, step=1e-3) -> bytes:
    f, (x0, x1, y0, y1) = _PLAN_FIELDS[k]
    grid = Grid2D(x0, x1, side, y0, y1, side)
    return ftle_field(f, grid, t, None, IntegratorConfig(step=step), threads).values.tobytes()


@pytest.mark.parametrize("k", range(4))
def test_plan_bytes_equal_the_python_path_on_the_grids(monkeypatch, k):
    """Each field's 41 x 41 and 101 x 101 grids at t = -0.05 and 0.0437 and
    threads 1 and 2 (eight of the 32 cases), then plans with no full step
    (|t| < step) and with no partial step (r == 0) in each time direction:
    the compiled plan gives the bytes of the generated Python tangent."""
    cases = [(side, t, threads, 1e-3) for side in (41, 101) for t in (-0.05, 0.0437)
             for threads in (1, 2)]
    cases += [(21, t, 1, 0.01) for t in (0.0041, -0.0063, 0.05, -0.05)]
    assert [flowmap._step_plan(t, step) for *_, t, _, step in [(0, *c) for c in cases[-4:]]] == [
        (0, 0.0041), (0, 0.0063), (5, 0.0), (5, 0.0)]
    compiled = [_ftle_bytes(k, *case) for case in cases]
    _python_only(monkeypatch)
    assert compiled == [_ftle_bytes(k, *case) for case in cases]


def _cli_outcome(argv, tmp_path, capsys) -> tuple:
    """``run_command``'s exit code, stderr and output files."""
    out = tmp_path / "out.csv"
    with np.errstate(over="ignore", invalid="ignore"):  # the command line ignores these warnings
        code = cli.run_command([*argv, "--out", str(out)])
    return code, capsys.readouterr().err, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("argv,text", [
    (["--field", "expr:x^3;y^3", "--grid", "0.5:1.5:21,0.5:1.5:21", "--time", "5"],
     "error: trajectory became non-finite\n"),
    (["--field", "saddle", "--grid", "-1:1:21,-0.9:0.9:21", "--time", "-25", "--step", "0.05"],
     "error: saddle field is only defined for |y| < 1\n"),
])
def test_ftle_errors_exit_2_on_both_paths(monkeypatch, tmp_path, capsys, argv, text):
    """A grid that blows up, and a saddle grid that leaves the strip: exit 2
    with the Python path's text, whether the plan ran compiled or not."""
    compiled = _cli_outcome(["ftle", *argv], tmp_path, capsys)
    _python_only(monkeypatch)
    assert _cli_outcome(["ftle", *argv], tmp_path, capsys) == compiled == (2, text, None)


def test_blow_up_in_the_first_block_and_the_strip_left_in_a_later_one(monkeypatch):
    """A saddle grid whose first rows (the first block) overflow in x after
    about 55 steps and whose last rows start outside the strip: the kernel
    stops at its first check, in the first block, and the Python plan, which
    steps every node together, raises the guard's error at the first step,
    on both paths."""
    f = VectorField2D.saddle()
    grid = Grid2D(1e308, 1.7e308, 41, 0.0, 1.5, 41)
    if HAVE_CC:
        shapes, coeffs = _field_terms(_polys(f))
        y, x = np.meshgrid(grid.ys(), grid.xs(), indexing="ij")
        assert np.count_nonzero(y < 1.0) > _native_arrays._PLAN_BLOCK_NODES and y.max() >= 1.0
        code = _plan(_native_arrays._kernel(shapes, True), coeffs, x, y, 0.1, CFG.step)[0]
        assert code == 1 + flowmap._FINITE_CHECK_STEPS
    texts = []
    for python_only in (False, True):
        if python_only:
            _python_only(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError) as exc:
            ftle_field(f, grid, 0.1, None, CFG)
        texts.append(str(exc.value))
    assert texts == ["saddle field is only defined for |y| < 1"] * 2


@needs_cc
def test_loaded_libraries_keep_subnormal_arithmetic():
    """A library linked to flush subnormals to zero would turn that on for
    the whole process: after the march, plan and text libraries load,
    subnormal arithmetic still works."""
    f = _cubic()
    loaded = [_native._march_kernel(_field_terms((f.p, f.q))[0], False),
              _native_arrays._kernel(_field_terms(_polys(f))[0], False), _native_arrays._library()]
    assert np.float64(5e-324) * 1.0 != 0.0
    assert math.ulp(0.0) * 2.0 == 1e-323
    assert np.array([5e-324]) * 3.0 == np.array([1.5e-323])
    assert None not in loaded


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
    """One step of length 0: the kernel stops after it (code 2) exactly where
    a stage's y fails the guard."""
    shapes, coeffs = _field_terms(_polys(VectorField2D.saddle()))
    kernel = _native_arrays._kernel(shapes, True)
    c = np.array(coeffs + [0.0])
    for y, code in ((1.0, 2), (-1.0, 2), (np.nan, 2), (SADDLE_Y_BOUND, 2), (-np.inf, 2),
                    (np.nextafter(SADDLE_Y_BOUND, 0.0), 0), (0.5, 0)):
        got = _native_arrays._run(kernel, c, np.zeros(2), np.array([0.0, y]), 1, 0.0, 0.0)
        assert got[0] == code, y


@pytest.mark.parametrize("bad", [1.0, np.nan])
@pytest.mark.parametrize("at", [0, 18, 36])
def test_saddle_refuses_from_any_node(monkeypatch, at, bad):
    """One y outside the strip, or NaN, at the first, a middle or the last
    of 37 nodes, more than a vector holds: the kernel stops after the first
    step, and the FTLE of those nodes (one block of ``ftle_field``) raises the guard's
    text on both paths, as does ``ftle_field`` on grids whose first row is
    outside or whose last row leaves the strip at a stage."""
    f = VectorField2D.saddle()
    xs, ys = np.linspace(-0.5, 0.5, 37), np.linspace(-0.6, 0.6, 37)
    ys[at] = bad
    if HAVE_CC:
        shapes, coeffs = _field_terms(_polys(f))
        got = _native_arrays._run(_native_arrays._kernel(shapes, True), np.array(coeffs + [0.0]),
                                  xs, ys, 5, -0.01, 0.0)
        assert got[0] == 2
    grids = [Grid2D(-0.5, 0.5, 37, -1.0, 0.5, 3),
             Grid2D(-0.5, 0.5, 37, -0.5, np.nextafter(SADDLE_Y_BOUND, 0.0), 3)]
    for python_only in (False, True):
        if python_only:
            _python_only(monkeypatch)
        for run in [lambda: ftle(f, (xs, ys), -0.05, CFG)] + [
                lambda g=g: ftle_field(f, g, -0.05, None, CFG) for g in grids]:
            with pytest.raises(DomainError, match=r"^saddle field is only defined for \|y\| < 1$"):
                run()


def _cpu_features() -> dict:
    """numpy's table of the CPU features this machine runs."""
    from numpy._core import _multiarray_umath

    return _multiarray_umath.__cpu_features__


def _with_flags(monkeypatch, cache, *flags) -> None:
    """Build with ``flags`` added after ``-ffp-contract=off``, into the
    ``cache`` directory, with no kernel loaded yet."""
    k = _native._COMPILE.index("-ffp-contract=off") + 1
    monkeypatch.setattr(_native, "_COMPILE", (*_native._COMPILE[:k], *flags,
                                              *_native._COMPILE[k:]))
    monkeypatch.setattr(_native, "_CACHE", cache)
    monkeypatch.setattr(_native, "_KERNELS", {})


@needs_x86_64_cc
def test_probe_refuses_contracted_kernels(monkeypatch, tmp_path):
    """A build that fuses multiply-adds gives other bits in its vector
    lanes, and the probe refuses it on the cubic, the quadratic and the
    saddle.  (A ``-ffast-math`` library is not loaded here: loading one
    sets flush-to-zero for the whole process.)"""
    if not _cpu_features().get("FMA3"):
        pytest.skip("no clone this CPU runs has fused multiply-adds")
    _with_flags(monkeypatch, tmp_path, "-ffp-contract=fast")
    for f, _ in _fields_and_boxes()[:2] + _fields_and_boxes()[3:4]:
        assert _native_arrays._kernel(_field_terms(_polys(f))[0], f.is_saddle) is None


@needs_x86_64_cc
@pytest.mark.parametrize("march", ["x86-64-v4", "x86-64-v3", "default"])
def test_each_clone_gives_the_python_bits(monkeypatch, tmp_path, march):
    """The plan source without its clones attribute, built for one clone's
    target (one the CPU runs, by numpy's table), gives the Python tangent's
    bits on every field at node counts that run vector bodies and
    remainders, in one block or several, on 1-D and 2-D arrays, in both
    time directions, and stops where a node's x is not finite."""
    level = {"x86-64-v4": "X86_V4", "x86-64-v3": "X86_V3"}.get(march)
    if level and not _cpu_features().get(level):
        pytest.skip(f"this CPU does not run {march}")
    _with_flags(monkeypatch, tmp_path, *([f"-march={march}"] if level else []))
    rng = np.random.default_rng(22)
    for f, _ in _fields_and_boxes():
        shapes, coeffs = _field_terms(_polys(f))
        source = _native_arrays._c_plan(shapes, f.is_saddle).replace(_native_arrays._CLONES, "")
        kernel, = _native._load("plan", source, _native_arrays._PLAN_TYPES, lambda kernel: True)
        python = _python_tangent(f)
        for shape in [(1,), (7,), (9,), (17,), (37,), (1, 7), (3, 3), (17, 1), (1, 37), (2, 300)]:
            x, y = rng.uniform(-0.9, 0.9, shape), rng.uniform(-0.9, 0.9, shape)
            for t in (0.0341, -0.0259):
                code, got = _plan(kernel, coeffs, x, y, t, 0.01)
                assert code == 0 and all(map(_same, _python_plan(python, x, y, t, 0.01), got))
            for bad in (np.inf, np.nan):
                x_bad = x.copy()
                x_bad.flat[x.size // 2] = bad
                assert _plan(kernel, coeffs, x_bad, y, 0.0341, 0.01)[0] == 1 + 4, (shape, bad)


def test_blow_up_stops_stepping_soon_on_the_python_step(monkeypatch):
    """``test_blow_up_stops_stepping_soon``'s grid, with the compiled plan
    off; and the compiled plan stops within ``_FINITE_CHECK_STEPS`` steps
    of the first non-finite state too."""
    f = VectorField2D(parse_polynomial("x^2"), Poly2())
    shapes, coeffs = _field_terms(_polys(f))
    kernel = _native_arrays._kernel(shapes, False)
    _python_only(monkeypatch)
    finite, tangent = [], f._rk4("tangent")

    def counted(*args):
        out = tangent(*args)
        finite.append(all(np.isfinite(v).all() for v in out))
        return out

    f._rk4s["tangent"] = counted
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalError, match="^trajectory became non-finite$"):
        ftle_field(f, Grid2D(0.0, 10.0, 3, -1.0, 1.0, 3), 10.0, None, CFG)
    first = finite.index(False)  # steps 1 .. first ran finite
    assert 0 < first < len(finite) <= first + flowmap._FINITE_CHECK_STEPS
    if HAVE_CC:
        y, x = np.meshgrid(np.linspace(-1.0, 1.0, 3), np.linspace(0.0, 10.0, 3), indexing="ij")
        ran = _plan(kernel, coeffs, x, y, 10.0, CFG.step)[0] - 1
        assert first < ran <= first + flowmap._FINITE_CHECK_STEPS
        assert ran == len(finite)


def test_calls_the_kernel_cannot_take_run_python(monkeypatch):
    """Float32, non-contiguous and read-only arrays, empty arrays and
    mismatched shapes are not plans the kernel takes, and ``cauchy_green``
    gives the Python tangent's bits on them, as on floats."""
    x, y = np.linspace(0.1, 0.9, 6).reshape(2, 3), np.linspace(0.2, 0.7, 6).reshape(2, 3)
    frozen = x.copy()
    frozen.flags.writeable = False
    refused = [(x.astype(np.float32), y), (x.T, y.T), (frozen, y), (x[:, :0], y[:, :0]),
               (x, y[0]), (list(x), y)]
    plan = _cubic()._rk4("plan")
    assert all(plan(*call, 23, -1e-3, -7e-4) is None for call in refused)
    assert (plan(x, y, 23, -1e-3, -7e-4) is None) is not HAVE_CC
    calls = [(0.5, 0.25), *refused[:-1]]
    compiled = [cauchy_green(_cubic(), call, -0.0237, CFG) for call in calls]
    _python_only(monkeypatch)
    for call, got in zip(calls, compiled):
        want = cauchy_green(_cubic(), call, -0.0237, CFG)
        assert all(map(_same, want._fields(), got._fields()))


# -- fallbacks and the cache ------------------------------------------------------------

_GRID = Grid2D(0.1, 0.9, 9, 0.1, 0.9, 7)


@pytest.mark.parametrize("fault", ["too long", "no compiler", "build fails", "probe mismatch"])
def test_fallback_gives_the_same_bytes(monkeypatch, tmp_path, fault):
    want = ftle_field(_cubic(), _GRID, -0.05, None, CFG).values.tobytes()
    monkeypatch.setattr(_native, "_KERNELS", {})
    monkeypatch.setattr(_native, "_CACHE", tmp_path)
    c_plan, probe, probed = _native_arrays._c_plan, _native_arrays._probe, []
    if fault == "too long":
        monkeypatch.setattr(_native, "_MAX_SOURCE_BYTES", 100)
    elif fault == "no compiler":
        monkeypatch.setattr(_native, "_COMPILE", ("ilekoop-no-such-cc", *_native._COMPILE[1:]))
    elif fault == "build fails":
        monkeypatch.setattr(_native_arrays, "_c_plan", lambda shapes, saddle: "not C\n")
    else:  # a kernel that builds but divides by 6 a little wrongly
        monkeypatch.setattr(_native_arrays, "_c_plan", lambda shapes, saddle: c_plan(
            shapes, saddle).replace("h / 6.0", "h / 6.000000001"))
    monkeypatch.setattr(_native_arrays, "_probe",
                        lambda *args: probed.append(probe(*args)) or probed[-1])
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
    assert _native_arrays._kernel(shapes, False) is not None
    cached = list((tmp_path / "cache").iterdir())
    assert len(cached) == 1 and cached[0].name.startswith("plan-") and cached[0].suffix == ".so"
    os.utime(cached[0], ns=(0, 0))
    monkeypatch.setattr(_native, "_KERNELS", {})
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    monkeypatch.setattr(_native, "_build", lambda *args: pytest.fail("built again"))
    assert _native_arrays._kernel(shapes, False) is not None
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
    assert _native_arrays._kernel(shapes, False) is not None
    assert not target.exists()
    assert list((tmp_path / "tmp").iterdir()) == []


@needs_cc
def test_ftle_field_runs_the_compiled_step(monkeypatch):
    """With a compiler on PATH, no array call of ``ftle_field`` may reach
    ``flowmap._advance``: a broken build must not quietly cost the gain."""
    advance = flowmap._advance

    def python_refused(rk4, t, step, x, *state):
        if isinstance(x, np.ndarray):
            pytest.fail("an array call ran the Python tangent")
        return advance(rk4, t, step, x, *state)

    monkeypatch.setattr(flowmap, "_advance", python_refused)
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


# -- the pullback march -----------------------------------------------------------------

def _normal_form():
    """The benchmark's normal-form pullback field."""
    return VectorField2D(Poly2({(1, 0): -0.5}),
                         Poly2({(1, 0): 1.0, (0, 1): -0.5, (3, 0): -0.5}))


#: The march test's term structures, each field with its own coefficients:
#: the benchmark's two pullback fields, the two families, a field of mixed
#: degrees and one that blows up (x' = x^2).  Only these few kernels build.
_MARCH_FIELDS = [_normal_form(), VectorField2D.saddle(), _cubic(),
                 make_quadratic_family(QuadraticParams(1.0, 1.0)), _fields_and_boxes()[4][0],
                 VectorField2D(parse_polynomial("x^2"), Poly2())]

_NEAR_BOUND = st.sampled_from([math.nextafter(SADDLE_Y_BOUND, 0.0), SADDLE_Y_BOUND - 1e-9,
                               0.999, 1.0 - 2e-12]).flatmap(lambda y: st.sampled_from([y, -y]))


def _march_outcome(march, call) -> str:
    """The march's result as text (floats round-trip exactly), or the text
    of the DomainError it raised."""
    try:
        return repr(march(*call))
    except DomainError as exc:
        return f"DomainError: {exc}"


@needs_cc
@settings(max_examples=300, deadline=None)
@given(k=st.integers(0, len(_MARCH_FIELDS) - 1), data=st.data(),
       x=st.floats(-1.5, 1.5) | st.sampled_from([-0.0, 1e200, -1e300]),
       y=st.floats(-0.95, 0.95) | _NEAR_BOUND, offset=st.tuples(st.floats(-0.3, 0.3),
                                                                 st.floats(-0.3, 0.3)),
       angle=st.floats(0.0, 2.0 * math.pi), sign=st.sampled_from([-1.0, 1.0]),
       step=st.sampled_from([1e-3, 5e-3, 0.05, 0.6, 4.0]), n=st.integers(1, 400),
       line=st.sampled_from(["near", "landing", "crossed"]))
# the benchmark's lines, a bisection that leaves the strip and a start one ulp inside it
@example(k=0, data=None, x=0.75, y=0.3, offset=(0.25, -0.3), angle=math.pi / 2, sign=-1.0,
         step=5e-3, n=500, line="near")
@example(k=1, data=None, x=0.5, y=0.25, offset=(-0.5, 0.25), angle=0.0, sign=-1.0, step=4.0,
         n=4, line="near")
@example(k=1, data=None, x=0.3, y=math.nextafter(SADDLE_Y_BOUND, 0.0), offset=(-0.3, -0.5),
         angle=0.0, sign=-1.0, step=5e-3, n=500, line="near")
def test_compiled_march_equals_the_python_march(k, data, x, y, offset, angle, sign, step, n,
                                                line):
    """The compiled march gives the generated Python march's crossing bit
    for bit, or None, or -1 where the Python march raises, over random
    coefficients (or the field's own), starts, steps, both time signs and
    lines near the start, through the state after one step (d == 0.0) or
    between the states after one and two steps; the saddle's starts include
    points near its bound.  Its wrapper gives the Python march's result or
    error text."""
    f = _MARCH_FIELDS[k]
    shapes, coeffs = _field_terms((f.p, f.q))
    if data is not None and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(_COEFFS, min_size=len(coeffs), max_size=len(coeffs)))
    python = _rk4_factory(shapes, "march", f.is_saddle)(*coeffs)
    kernel = _native._march_kernel(shapes, f.is_saddle)
    assert kernel is not None
    ux, uy, bx, by = math.cos(angle), math.sin(angle), x + offset[0], y + offset[1]
    with contextlib.suppress(DomainError):  # the saddle's steps may leave its strip
        rk4 = _rk4_factory(shapes, "step", f.is_saddle)(*coeffs)
        if line == "landing":
            bx, by = rk4(x, y, sign * step)
        elif line == "crossed":
            x1, y1 = rk4(x, y, sign * step)
            x2, y2 = rk4(x1, y1, sign * step)
            ux, uy, bx, by = y1 - y2, x2 - x1, 0.5 * (x1 + x2), 0.5 * (y1 + y2)
    call = (x, y, step, sign, n, -uy * (x - bx) + ux * (y - by), ux, uy, bx, by)
    want = _march_outcome(python, call)
    got = _native._marched(kernel, (ctypes.c_double * len(coeffs))(*coeffs), call)
    assert repr(got) == ("-1" if want.startswith("DomainError") else want)
    assert _march_outcome(_native.compiled_march(shapes, coeffs, f.is_saddle, python), call) == want


@needs_x86_64_cc
def test_march_probe_refuses_contracted_kernels(monkeypatch, tmp_path):
    """A march built for fused multiply-adds (``-ffp-contract=fast`` with
    ``-mfma``; the x86-64 baseline has none) gives other bits in some
    bisections, and the probe refuses it on the benchmark's two pullback
    fields, though both build."""
    if not _cpu_features().get("FMA3"):
        pytest.skip("this CPU has no fused multiply-adds")
    _with_flags(monkeypatch, tmp_path, "-ffp-contract=fast", "-mfma")
    for f in (_normal_form(), VectorField2D.saddle()):
        assert _native._march_kernel(_field_terms((f.p, f.q))[0], f.is_saddle) is None
    assert len(list(tmp_path.glob("march-*.so"))) == 2


def _pullbacks() -> list:
    """Pullback values on the benchmark's two fields and lines, on new
    fields (each builds its march on first use)."""
    steps = IntegratorConfig(step=5e-3)
    cases = [(_normal_form(), DataSurface((1.0, 0.0), (0.0, 1.0), lambda s: 1.0), -1.0,
              [(0.75, 0.3), (1.3, -0.6)]),
             (VectorField2D.saddle(), DataSurface((0.0, 0.5), (1.0, 0.0), lambda s: 1.0), -2.0,
              [(0.4, 0.3), (-1.2, 0.7)])]
    return [pullback_eigenfunction(f, surf, lam, x, steps, t_max=2.5)
            for f, surf, lam, points in cases for x in points]


@pytest.mark.parametrize("fault", ["too long", "no compiler", "build fails", "probe mismatch"])
def test_march_fallback_gives_the_same_values(monkeypatch, tmp_path, fault):
    """No kernel (a source over the cap, no compiler, a failed build or a
    probe that refuses a kernel that divides by 6 a little wrongly): the
    generated Python march gives the same values."""
    want = _pullbacks()
    monkeypatch.setattr(_native, "_KERNELS", {})
    monkeypatch.setattr(_native, "_CACHE", tmp_path)
    c_march, probe, probed = _native._c_march, _native._probe_march, []
    if fault == "too long":
        monkeypatch.setattr(_native, "_MAX_SOURCE_BYTES", 100)
    elif fault == "no compiler":
        monkeypatch.setattr(_native, "_COMPILE", ("ilekoop-no-such-cc", *_native._COMPILE[1:]))
    elif fault == "build fails":
        monkeypatch.setattr(_native, "_c_march", lambda shapes, saddle: "not C\n")
    else:
        monkeypatch.setattr(_native, "_c_march", lambda shapes, saddle: c_march(
            shapes, saddle).replace("h / 6.0", "h / 6.000000001"))
    monkeypatch.setattr(_native, "_probe_march",
                        lambda *args: probed.append(probe(*args)) or probed[-1])
    assert list(map(repr, _pullbacks())) == list(map(repr, want))
    assert list(_native._KERNELS.values()) == [None, None]
    assert probed == ([False, False] if fault == "probe mismatch" and HAVE_CC else [])


# -- the text library ------------------------------------------------------------------

def _formatted(values) -> list:
    """The text library's text of each value, through a one-row grid on axes
    of zeros, which its axis texts of the same values must equal."""
    values = np.array(values, dtype=np.float64).reshape(1, -1)
    blocks = _native_arrays.csv_blocks(values, np.zeros(values.size), np.zeros(1))
    texts = [line.removeprefix("0,0,") for line in "".join(blocks).splitlines()]
    assert _native_arrays.axis_texts(values.ravel()) == texts
    return texts


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


def _written(writer, f) -> str:
    out = io.StringIO()
    writer(f, out)
    return out.getvalue()


def _writers(f) -> tuple:
    """``axis_text``, ``write_csv`` and ``write_pgm`` of the field ``f``."""
    return strain.axis_text(f.grid), _written(strain.write_csv, f), _written(strain.write_pgm, f)


def _python_writers(f) -> tuple:
    """:func:`_writers` with no text library: the Python writers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native_arrays, "_library", lambda: None)
        return _writers(f)


_ANY_DOUBLE = st.floats(allow_nan=False, allow_infinity=False)
_SLOW_PATH = st.sampled_from([5e-324, -2.5e-310, 1e-300, -3e-7, 1e39, -1.7976931348623157e308])


#: Value strategies of the writer test: any doubles (those of the snprintf
#: path among them), a constant field (PGM scale 0), values below 1e-289
#: (scaled by 2^600 for the PGM) and fields whose span overflows (halved).
_FIELD_VALUES = {
    "any": lambda n: st.lists(_ANY_DOUBLE | _SLOW_PATH, min_size=n, max_size=n),
    "constant": lambda n: _ANY_DOUBLE.map(lambda v: [v] * n),
    "tiny": lambda n: st.lists(st.floats(-1e-295, 1e-295), min_size=n, max_size=n),
    "overflow": lambda n: st.lists(_ANY_DOUBLE, min_size=n - 2, max_size=n - 2).map(
        lambda v: [-1.7976931348623157e308, *v, 1.5e308]),
}


@needs_cc
@settings(max_examples=60, deadline=None)
@given(nx=st.integers(2, 9), ny=st.integers(2, 9), data=st.data(),
       kind=st.sampled_from(sorted(_FIELD_VALUES)),
       box=st.sampled_from([(0.1, 0.9, -0.5, 0.5), (-1.2345678901234567e-300, -1.1e-300,
                                                     1.0000000000000002e300, 1.5e300)]))
def test_compiled_csv_equals_the_template_writer(nx, ny, data, kind, box):
    """Random fields on grids with 24-character axis texts: ``axis_text``,
    ``write_csv`` (with blocks of one row, a few rows, or the whole grid)
    and ``write_pgm`` give the Python writers' bytes."""
    values = data.draw(_FIELD_VALUES[kind](nx * ny))
    f = ScalarField(Grid2D(box[0], box[1], nx, box[2], box[3], ny),
                    np.array(values).reshape(ny, nx))
    want = _python_writers(f)
    for budget in (1, 150 * nx, _native_arrays._CSV_BLOCK_BYTES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_native_arrays, "_CSV_BLOCK_BYTES", budget)
            assert _writers(f) == want
    assert _native._KERNELS["text"] is not None


@needs_cc
@pytest.mark.parametrize("values", [
    np.arange(256.0).reshape(16, 16),  # every level once
    np.arange(256.0).reshape(8, 32)[::-1] * -1e-3,  # every level, the rows reversed
    np.array([[0.0, 1.0], [2.0, 3.0]]),
    np.full((3, 4), -2.5),  # scale 0
    np.array([[1e-300, -2e-300], [3e-301, 0.0]]),  # 255 / span overflows: scaled by 2^600
    np.array([[-1.7976931348623157e308, 0.0], [1.0, 1.7976931348623157e308]]),  # halved
])
def test_text_library_writes_the_python_bytes(values):
    """``axis_text``, ``write_csv`` and ``write_pgm`` on fixed fields: the
    Python writers' bytes."""
    ny, nx = values.shape
    f = ScalarField(Grid2D(-1.0, 2.0 / 3.0, nx, 0.1, 0.7, ny), values)
    assert _writers(f) == _python_writers(f)
    if nx == 16:
        assert set(_written(strain.write_pgm, f).split()[4:]) == set(map(str, range(256)))


@needs_cc
@pytest.mark.parametrize("ny", [1, 6, 7, 8])
def test_csv_blocks_straddle_rows(monkeypatch, ny):
    """Three rows per block: the last block is full, short or one row; a row
    longer than the budget is one block."""
    xs, ys = np.array([0.5, -0.25]), np.arange(ny) + 0.125
    values = np.linspace(-1.0, 1.0, 2 * ny).reshape(ny, 2)
    want = [f"{format_float(x)},{format_float(y)},{format_float(v)}\n"
            for y, row in zip(ys.tolist(), values.tolist()) for x, v in zip(xs.tolist(), row)]
    row = len("0.5,-0.25,") + 2 * (len("0.125,") + _native_arrays._VALUE_BYTES + 1)
    for budget, rows in ((3 * row, 3), (row - 1, 1)):
        monkeypatch.setattr(_native_arrays, "_CSV_BLOCK_BYTES", budget)
        blocks = list(_native_arrays.csv_blocks(values, xs, ys))
        assert "".join(blocks) == "".join(want)
        assert [b.count("\n") for b in blocks] == [2 * min(rows, ny - r)
                                                   for r in range(0, ny, rows)]


@needs_cc
def test_csv_blocks_refuse_values_that_do_not_match_the_texts():
    """The kernel reads one axis text per column and row, so a mismatch
    never reaches it."""
    for values in (np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(4)):
        with pytest.raises(ValueError, match="^values do not match the axis texts$"):
            list(_native_arrays.csv_blocks(values, np.zeros(2), np.zeros(2)))


@pytest.mark.parametrize("fault", ["no compiler", "probe fails"])
def test_csv_fallback_gives_the_same_bytes(monkeypatch, tmp_path, fault):
    """No compiler, or a formatter that rounds ties up: the Python writers'
    axis texts, CSV and PGM bytes, and no library loaded."""
    f = ScalarField(Grid2D(0.1, 0.9, 9, -0.5, 0.5, 7),
                    np.linspace(-2.0, 3.0, 63).reshape(7, 9) ** 3 * 1e-3)
    want = _python_writers(f)
    monkeypatch.setattr(_native, "_KERNELS", {})
    monkeypatch.setattr(_native, "_CACHE", tmp_path)
    probe, probed = _native_arrays._probe_text, []
    if fault == "no compiler":
        monkeypatch.setattr(_native, "_COMPILE", ("ilekoop-no-such-cc", *_native._COMPILE[1:]))
    else:
        assert _native_arrays._C_TEXT.count("(q & 1)") == 1
        monkeypatch.setattr(_native_arrays, "_C_TEXT",
                            _native_arrays._C_TEXT.replace("(q & 1)", "1"))
    monkeypatch.setattr(_native_arrays, "_probe_text", lambda *lib: probed.append(probe(*lib))
                        or probed[-1])
    assert _writers(f) == want
    assert _native._KERNELS == {"text": None}
    assert probed == ([False] if fault == "probe fails" and HAVE_CC else [])
