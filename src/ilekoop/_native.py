"""Compiled kernels: the build, cache, load and probe path, the C emitter, and
the pullback march.

A kernel library is one C source of one or more functions (the text
library has three), built once per source with the system compiler,
``cc -O3 -fPIC -shared -ffp-contract=off`` (no contraction, no
reassociation: the bits of the Python code it replaces), cached in
``ilekoop/__pycache__/`` (at most ``_CACHE_LIBRARIES``, the least recently
loaded pruned first; a private temporary directory where the cache cannot be
written), loaded with ctypes and probed against the Python code, once per
process.  No compiler, a source too long to build quickly, a failed build or
probe, and every call a kernel cannot take run the Python code instead,
with the same bytes.

:func:`_c_function` writes a field's generated RK4 statements
(``vectorfield._STEP_SIZES`` and ``vectorfield._rk4_lines``) into C: every
statement is chained (``a = b + c * d``), so each Python statement is one C
statement, unchanged.  It serves the FTLE tangent plan
(``ilekoop._native_arrays``, which with the text library is the only part
that needs numpy) and :func:`compiled_march`, the pullback's whole crossing
search on floats: the fixed-step march, its first sign change and the
bisection, called through ctypes with plain doubles.  This module loads no
numpy, so ``pullback`` runs compiled without it; a field's first march
imports this module, and its first array ``cauchy_green`` or a grid's text
imports ``ilekoop._native_arrays``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import sysconfig
import tempfile
import threading
from pathlib import Path

from .errors import DomainError
from .vectorfield import (SADDLE_Y_BOUND, VectorField2D, _BISECT_START, _BOUND, _DISTANCE,
                          _MARCH_START, _field_terms, _rk4_factory, _rk4_lines)

#: The build command; the source arrives on stdin.
_COMPILE = ("cc", "-O3", "-fPIC", "-shared", "-ffp-contract=off", "-x", "c", "-")

#: A build that takes longer is abandoned (the Python code runs instead).
_BUILD_TIMEOUT_S = 60.0

#: Longer sources are not built.  The build time grows faster than the
#: source, and the cap keeps it within about a quarter of _BUILD_TIMEOUT_S
#: (gcc 12, 2 vCPUs, a tangent plan kernel's three clones at -O3, best of 2:
#: 0.94 s at 8.8 KB, the cubic family; 15.4 s at 42.7 KB, a dense field of
#: degree 10, the densest under the cap; 19.8 s at 50.7 KB, degree 11).
#: The fields of the families and the saddle stay under 10 KB.
_MAX_SOURCE_BYTES = 45056

_CACHE = Path(__file__).resolve().parent / "__pycache__"

#: The most libraries the cache keeps; publishing one more deletes the least
#: recently loaded.  A family's tangent plan kernel takes 36-64 KB.
_CACHE_LIBRARIES = 64

# key -> the probed kernels, None where none could be had: (shapes, saddle) for
# a tangent plan, ("march", shapes, saddle) for a march, "text" for the text library.
_KERNELS: dict = {}
_LOCK = threading.Lock()


def _c_function(head: str, shapes: tuple, body: list) -> str:
    """C source of the function ``head`` (its declaration, the attributes
    and the preprocessor lines before it included) over the coefficients
    c<m>_<k> of the term structures ``shapes``, bound as constants from its
    array ``c`` in ``vectorfield._field_terms`` order, then ``body``, whose
    lines carry their own indentation.  :func:`_c_statements` writes the
    generated statements into such a body."""
    args = [f"c{m}_{k}" for m, shape in enumerate(shapes) for k in range(len(shape))]
    return ("#include <math.h>\n\n" + head + "\n{\n"
            + "".join(f"    const double {a} = c[{k}];\n" for k, a in enumerate(args))
            + "".join(f"{line}\n" for line in body) + "}\n")


def _c_statements(lines: list, indent: str) -> list:
    """The generated statements ``lines`` as C lines at ``indent``."""
    return [f"{indent}{line};" for line in lines]


def _c_names(lines: list) -> list:
    """The names that the generated statements ``lines`` assign
    (``a = ...``), each once, in order of first assignment: the doubles a C
    function declares for them."""
    return list(dict.fromkeys(a for a, eq, _ in (line.split(" ", 2) for line in lines)
                              if eq == "="))


def _cached(key, load):
    """``load()``'s result, made once per ``key`` and process under the lock,
    so threads never build twice."""
    with _LOCK:
        if key not in _KERNELS:
            _KERNELS[key] = load()
        return _KERNELS[key]


def _load(name: str, source: str, types: dict, probe):
    """The C functions ``ilekoop_<f>`` of the library ``name`` built from
    ``source``, one for each ``f`` of ``types`` (f -> restype, then
    argtypes), as a tuple in that order: from the cache, else freshly built;
    None if it cannot be built or ``probe(*functions)`` refuses them."""
    if len(source) > _MAX_SOURCE_BYTES:
        return None
    key = "\0".join((source, " ".join(_COMPILE), sysconfig.get_platform()))
    path = _CACHE / f"{name}-{hashlib.sha256(key.encode()).hexdigest()[:32]}.so"
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        lib = _build(source, path)
    else:
        with contextlib.suppress(OSError):  # a read-only cache keeps its order
            os.utime(path)  # the least recently loaded library is pruned first
    if lib is None:
        return None
    functions = []
    for f, (restype, *argtypes) in types.items():
        functions.append(getattr(lib, f"ilekoop_{f}"))
        functions[-1].restype, functions[-1].argtypes = restype, argtypes
    return tuple(functions) if probe(*functions) else None


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
    directory, then rename it, so no process ever loads a partial file; then
    prune the cache."""
    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.stem}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(built.read_bytes())
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    _prune(path)


def _prune(kept: Path) -> None:
    """Delete the least recently loaded libraries of ``kept``'s directory
    beyond ``_CACHE_LIBRARIES``, never ``kept`` itself.  A library another
    process still maps stays mapped; a later process rebuilds it."""
    libraries = []
    for lib in kept.parent.glob("*.so"):
        with contextlib.suppress(OSError):  # another process removed it meanwhile
            if lib != kept:
                libraries.append((lib.stat().st_mtime_ns, lib.name, lib))
    for *_, lib in sorted(libraries, reverse=True)[_CACHE_LIBRARIES - 1:]:
        with contextlib.suppress(OSError):
            lib.unlink()


# -- the pullback march ------------------------------------------------------------------

# restype, then argtypes: x, y, step, sign, n, d_prev, ux, uy, bx, by, c, out
_MARCH_TYPES = {"march": ((ctypes.c_long,) + (ctypes.c_double,) * 4 + (ctypes.c_long,)
                          + (ctypes.c_double,) * 5 + (ctypes.POINTER(ctypes.c_double),) * 2)}


def compiled_march(shapes: tuple, coeffs: list, saddle: bool, python):
    """``march(x, y, step, sign, n, d_prev, ux, uy, bx, by)`` (see
    ``vectorfield._rk4_factory``) for the field whose (P, Q) have the term
    structures ``shapes`` and the coefficients ``coeffs``, guarded if it is
    the ``saddle``: the compiled kernel, or ``python``, the generated Python
    march, where none loads.  A bisection stage that leaves the saddle's
    strip re-runs the call in ``python``, which raises the guard's own
    DomainError."""
    kernel = _march_kernel(shapes, saddle)
    if kernel is None:
        return python
    c = (ctypes.c_double * len(coeffs))(*coeffs)

    def march(*call):
        found = _marched(kernel, c, call)
        return python(*call) if found == -1 else found

    return march


def _marched(kernel, c, call: tuple):
    """One ``call`` of the march ``kernel`` with the coefficients ``c``: the
    Python march's crossing ``(whole, mid, x, y)`` or None, or -1 where a
    bisection stage left the saddle's strip."""
    out = (ctypes.c_double * 3)()
    code = kernel(*call, c, out)
    return (code - 1, *out) if code > 0 else (None if code == 0 else -1)


def _march_kernel(shapes: tuple, saddle: bool):
    """The probed march kernel of ``shapes``, or None."""
    kernels = _cached(("march", shapes, saddle), lambda: _load(
        "march", _c_march(shapes, saddle), _MARCH_TYPES,
        lambda kernel: _probe_march(kernel, shapes, saddle)))
    return kernels and kernels[0]


def _c_march(shapes: tuple, saddle: bool) -> str:
    """C source of the ``"march"`` function of ``vectorfield._rk4_factory``
    for ``shapes``: ``long ilekoop_march(x, y, step, sign, n, d_prev, ux,
    uy, bx, by, c, out)``, with ``c`` the coefficients in the factory's
    argument order.  For the Python march's crossing ``(whole, mid, xc,
    yc)`` it returns 1 + whole and writes (mid, xc, yc) to ``out``; where
    the Python march returns None it returns 0, and where a bisection stage
    fails ``fabs(y) < SADDLE_Y_BOUND`` on the ``saddle`` (and the Python
    march raises) it returns -1.

    It runs the Python march's own statements (``vectorfield._MARCH_START``,
    ``_BISECT_START``, ``_rk4_lines`` and ``_DISTANCE``), every one already
    a C statement, with the saddle's guards in C (a march stage outside
    ``-B < y < B`` returns 0, a bisection stage outside ``fabs(y) < B``
    returns -1) and the Python march's control lines, one for one.  Built
    without contraction or reassociation, every operation gives the Python
    float's bits.  It is scalar: no clones, no ``ivdep``."""
    march = _rk4_lines(shapes, f"if (!(-{_BOUND} < {{y}} && {{y}} < {_BOUND})) return 0"
                       if saddle else None)
    bisect = _BISECT_START + _rk4_lines(shapes, f"if (!(fabs({{y}}) < {_BOUND})) return -1"
                                        if saddle else None)
    names = ["lo", "hi"] + _c_names(_MARCH_START + march + bisect + [_DISTANCE])
    head = ("long ilekoop_march(double x, double y, double step, double sign, long n,\n"
            "                   double d_prev, double ux, double uy, double bx, double by,\n"
            "                   const double *c, double *out)")
    return _c_function(head, shapes, [
        f"    double {', '.join(names)};",
        "    long k;",
        *_c_statements(_MARCH_START, "    "),
        "    for (k = 1; k <= n; k++) {",
        *_c_statements(march, "        "),
        "        if (!(xn - xn == 0.0 && yn - yn == 0.0)) return 0;",
        f"        {_DISTANCE};",
        "        if (d == 0.0) { out[0] = 0.0; out[1] = xn; out[2] = yn; return k + 1; }",
        "        if (d * d_prev < 0.0) break;",
        "        x = xn; y = yn; d_prev = d;",
        "    }",
        "    if (k > n) return 0;",
        "    lo = 0.0; hi = step;",
        "    for (;;) {",
        *_c_statements(bisect, "        "),
        "        if (!(hi - lo > 1e-10)) { out[0] = mid; out[1] = xn; out[2] = yn; return k; }",
        f"        {_DISTANCE};",
        "        if (d == 0.0) lo = hi = mid;",
        "        else if (d * d_prev < 0.0) hi = mid;",
        "        else lo = mid;",
        "    }",
    ])


def _probe_march(kernel, shapes: tuple, saddle: bool) -> bool:
    """Whether ``kernel`` gives the generated Python march's result on every
    call of :func:`_march_probe_calls`, bit for bit, and returns -1 where
    the Python march raises DomainError: with fixed coefficients of either
    sign and, on the ``saddle``, also with its own."""
    sets = [[0.625 - 0.25 * (k % 5) for k in range(sum(map(len, shapes)))]]
    if saddle:
        f = VectorField2D.saddle()
        sets.append(_field_terms((f.p, f.q))[1])
    for coeffs in sets:
        python = _rk4_factory(shapes, "march", saddle)(*coeffs)
        c = (ctypes.c_double * len(coeffs))(*coeffs)
        for call in _march_probe_calls(_rk4_factory(shapes, "step", saddle)(*coeffs)):
            try:
                want = python(*call)
            except DomainError:
                want = -1
            if repr(_marched(kernel, c, call)) != repr(want):
                return False
    return True


def _march_probe_calls(rk4) -> list:
    """Calls of a march, in both time directions, whose results cover its
    cases on any field: from each of eight starts, a crossing that the
    bisection finds (a line between the states after 3 and 4 steps of 0.2,
    by the Python step ``rk4``) and a step that lands on the line
    (d == 0.0); then no crossing within 8 steps and a state that overflows.
    Steps of 0.2 are long enough that fused multiply-adds change the bits of
    some bisections.  On the saddle the calls add, with its own
    coefficients, a start one ulp inside the bound, which a march stage
    leaves, and a bisection that leaves the strip: from (0.5, 0.25) in
    backward steps of 4 to the line y = 0.5."""
    starts = []
    for sign in (1.0, -1.0):
        for x0, y0 in ((0.1 + 0.2 * i, 0.1 * i - 0.35) for i in range(8)):
            states = [(x0, y0)]
            for _ in range(4):
                states.append(rk4(*states[-1], sign * 0.2))
            (x1, y1), (x3, y3), (x4, y4) = states[1], states[3], states[4]
            starts += [(x0, y0, 0.2, sign, 8, y3 - y4, x4 - x3, 0.5 * (x3 + x4), 0.5 * (y3 + y4)),
                       (x0, y0, 0.2, sign, 8, 0.6, 0.8, x1, y1)]
        starts += [(0.3, -0.2, 0.01, sign, 8, 1.0, 0.0, 10.0, 10.0),
                   (1.7e308, 0.25, 0.01, sign, 8, 1.0, 0.0, 0.0, 0.0),
                   (0.25, math.nextafter(SADDLE_Y_BOUND, 0.0), 0.01, sign, 8, 1.0, 0.0, 0.0, 0.0),
                   (0.5, 0.25, 4.0, sign, 4, 1.0, 0.0, 0.0, 0.5)]
    return [(x, y, step, sign, n, -uy * (x - bx) + ux * (y - by), ux, uy, bx, by)
            for x, y, step, sign, n, ux, uy, bx, by in starts]
