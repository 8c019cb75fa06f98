"""The compiled FTLE tangent step.

``_c_tangent`` emits a field's generated RK4 tangent statements as one C
function over every node of an array.  A node's state is six doubles (x, y
and the four entries of the flow-map gradient), so each Python statement is
one C statement, unchanged.  This module builds the function once per term
structure with the system compiler (no contraction, no reassociation: the
numpy step's bits), caches it in ``ilekoop/__pycache__/`` (a private
temporary directory where that cannot be written), loads it with ctypes,
probes it against the generated Python step and hands it array calls.  The
saddle's bound is written into the source, as it is into the Python step.
No compiler, a source too long to build quickly, a failed build or probe,
and every call the kernel cannot take run the Python step instead, with the
same bytes.  Only a field's first array call to
``VectorField2D._rk4("tangent")`` imports this module; float calls never do.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

from .vectorfield import _BOUND, _rk4_factory, _step_lines

#: The build command; the source arrives on stdin.
_COMPILE = ("cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-x", "c", "-")

#: A build that takes longer is abandoned (the Python step runs instead).
_BUILD_TIMEOUT_S = 60.0

#: Longer sources are not built.  The build time grows faster than the
#: source (gcc 12, 2 vCPUs, dense fields: 0.17 s at 14 KB, degree 4; 1.3 s at
#: 59 KB, degree 10; 14 s at 218 KB, degree 20), and the fields of the
#: families and the saddle stay under 20 KB.
_MAX_SOURCE_BYTES = 65536

_CACHE = Path(__file__).resolve().parent / "__pycache__"

_ARGTYPES = (ctypes.c_long, ctypes.c_double) + (ctypes.c_void_p,) * 8

# (shapes, saddle) -> the probed kernel, or None where none could be had.
# Filled once per key under the lock, so threads never build twice.
_KERNELS: dict = {}
_LOCK = threading.Lock()


def array_tangent(shapes: tuple, coeffs: list, saddle: bool, python):
    """``tangent(x, y, f11, f12, f21, f22, h)`` for the field whose (P, Q,
    P_x, P_y, Q_x, Q_y) have the term structures ``shapes`` and the
    coefficients ``coeffs`` (``vectorfield._field_terms``), guarded if it is
    the ``saddle``: the compiled kernel where the six state entries are
    float64 arrays of x's shape, C-contiguous, aligned and writable
    (``flags.carray``), x is not empty and h is a float; and ``python``, the
    generated Python tangent, for any other call.  A kernel's guard failure
    re-runs the call in ``python``, which raises the guard's own
    DomainError.  ``python`` itself where no kernel loads."""
    kernel = _kernel(shapes, saddle)
    if kernel is None:
        return python
    c = np.array(coeffs + [0.0])  # one spare entry: _address needs a non-empty array

    def tangent(*call):
        *state, h = call
        x = state[0]
        if type(h) is float and type(x) is np.ndarray and x.size and all(
                type(v) is np.ndarray and v.dtype == np.float64 and v.shape == x.shape
                and v.flags.carray for v in state):
            code, new = _run(kernel, c, *call)
            if not code:
                return new
        return python(*call)

    return tangent


def _run(kernel, c: np.ndarray, *call) -> tuple:
    """One call ``(x, y, f11, f12, f21, f22, h)`` of ``kernel``: its return
    code (1: the guard failed) and the new state, views of one new (6, ...)
    array."""
    *state, h = call
    out = np.empty((6, *state[0].shape))
    code = kernel(state[0].size, h, *map(_address, (c, *state, out)))
    return code, tuple(out)


def _c_tangent(shapes: tuple, saddle: bool) -> str:
    """C source of the ``"tangent"`` function of ``vectorfield._rk4_factory``
    for ``shapes`` over ``n`` nodes: ``int ilekoop_tangent(n, h, c, X, Y,
    F11, F12, F21, F22, out)``.  ``c`` holds the coefficients in the
    factory's argument order, the six state arrays hold n nodes each and
    ``out`` is (6, n): xn, yn, f11n, f12n, f21n, f22n.  Only ``out`` is
    written, so state arrays may share memory (``flowmap.cauchy_green``
    passes one array of ones as F11 and F22 and one of zeros as F12 and F21).

    Each node runs ``vectorfield._step_lines``, the Python step's own list: every
    statement of it is already a C statement (``a = b * c``, ``a += b * c *
    d``, ``a *= 2.0``) of the same operations in the same order.  Built
    without contraction or reassociation, every exactly-rounded operation of
    a node so gives the bits of the numpy step.  On the ``saddle`` a stage
    whose y fails ``fabs(y) < SADDLE_Y_BOUND`` (NaN too) ends the call with 1
    where the Python step raises; otherwise it returns 0."""
    lines = _step_lines(shapes, f"if (!(fabs({{y}}) < {_BOUND})) return 1" if saddle else None)
    names = [a for a in dict.fromkeys(line.partition(" ")[0] for line in lines) if a != "if"]
    args = [f"c{m}_{k}" for m, shape in enumerate(shapes) for k in range(len(shape))]
    const = "".join(f"    const double {a} = c[{k}];\n" for k, a in enumerate(args))
    state = ("x", "y", "f11", "f12", "f21", "f22")
    load = f"const double {', '.join(f'{v} = {v.upper()}[i]' for v in state)};"
    store = " ".join(f"out[{k} * n + i] = {v}n;" for k, v in enumerate(state))
    return ("#include <math.h>\n\n"
            "int ilekoop_tangent(long n, double h, const double *c, const double *X,\n"
            "                    const double *Y, const double *F11, const double *F12,\n"
            "                    const double *F21, const double *F22, double *out)\n{\n" + const
            + "    for (long i = 0; i < n; i++) {\n"
            + "".join(f"        {s}\n" for s in (load, f"double {', '.join(names)};",
                                                 *(f"{line};" for line in lines), store))
            + "    }\n    return 0;\n}\n")


def _address(a: np.ndarray) -> int:
    """The address of a non-empty, C-contiguous, aligned and writable
    (``flags.carray``) array's data, taken through the buffer protocol: a
    fifth of the time of ``a.ctypes.data``."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _kernel(shapes: tuple, saddle: bool):
    with _LOCK:
        if (shapes, saddle) not in _KERNELS:
            _KERNELS[shapes, saddle] = _load(shapes, saddle)
        return _KERNELS[shapes, saddle]


def _load(shapes: tuple, saddle: bool):
    """The probed kernel for ``shapes`` from the cache, else freshly built;
    None if it cannot be built or fails the probe."""
    source = _c_tangent(shapes, saddle)
    if len(source) > _MAX_SOURCE_BYTES:
        return None
    key = "\0".join((source, " ".join(_COMPILE), sysconfig.get_platform()))
    path = _CACHE / f"tangent-{hashlib.sha256(key.encode()).hexdigest()[:32]}.so"
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        lib = _build(source, path)
    if lib is None:
        return None
    kernel = lib.ilekoop_tangent
    kernel.argtypes, kernel.restype = _ARGTYPES, ctypes.c_int
    return kernel if _probe(kernel, shapes, saddle) else None


def _build(source: str, path: Path):
    """Compile ``source``, cache it as ``path`` where that can be written, and
    load it; None if the compiler is missing, fails or times out."""
    import subprocess  # only a build needs it

    with tempfile.TemporaryDirectory() as private:
        built = Path(private) / path.name
        try:
            subprocess.run([*_COMPILE, "-o", str(built)], input=source.encode(),
                           capture_output=True, timeout=_BUILD_TIMEOUT_S, check=True)
        except (OSError, subprocess.SubprocessError):
            return None
        try:
            _publish(built, path)
        except OSError:
            pass  # an unwritable cache: this process keeps the private copy
        return ctypes.CDLL(str(built))  # the mapping outlives the deleted file


def _publish(built: Path, path: Path) -> None:
    """Copy ``built`` to ``path`` under a temporary name in the same
    directory, then rename it, so no process ever loads a partial file."""
    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tangent-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(built.read_bytes())
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# The probe: four nodes (a negative zero among them), from the identity
# gradient, two full steps and a partial one each way.
_PROBE_X = (0.25, -0.375, -0.0, 0.4375)
_PROBE_Y = (-0.125, 0.5, 0.0625, -0.0)
_PROBE_STEPS = ((0.01, 0.01, 0.0037), (-0.01, -0.01, -0.0041))


def _probe(kernel, shapes: tuple, saddle: bool) -> bool:
    """Whether ``kernel`` reproduces the generated Python tangent of
    ``shapes`` bit for bit on the probe, with fixed coefficients of either
    sign, and (on the ``saddle``) refuses a node at y = 2."""
    count = sum(map(len, shapes))
    coeffs = [0.625 - 0.25 * (k % 5) for k in range(count)]
    python = _rk4_factory(shapes, "tangent", saddle)(*coeffs)
    c = np.array(coeffs + [0.0])
    x0, y0 = np.array(_PROBE_X), np.array(_PROBE_Y)
    one, zero = np.ones(x0.shape), np.zeros(x0.shape)
    for steps in _PROBE_STEPS:
        want = got = (x0, y0, one, zero, zero, one)
        for h in steps:
            want = python(*want, h)
            code, got = _run(kernel, c, *got, h)
            if code or [v.tobytes() for v in want] != [v.tobytes() for v in got]:
                return False
    y_out = np.array([0.0, 2.0, 0.0, 0.0])
    return not saddle or _run(kernel, c, x0, y_out, one, zero, zero, one, 0.01)[0] == 1
