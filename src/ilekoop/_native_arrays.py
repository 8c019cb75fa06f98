"""Compiled kernels on arrays: the FTLE tangent step and the CSV formatter.

``_c_tangent`` emits a field's generated RK4 tangent statements, through
``_native._c_function``, as one C function over every node of an array.  A
node's state is six doubles (x, y and the four entries of the flow-map
gradient), and every generated statement is one C statement, unchanged.  The
saddle's bound is written into the source, as it is into the Python step.
The node loop has no exit, so gcc runs it in SIMD lanes, and on x86-64 the
function is cloned for x86-64-v4, x86-64-v3 and the baseline, of which the
loader picks the widest the CPU runs: a cubic field's kernel builds in about
0.3 s (gcc 12, 2 vCPUs), once per checkout.  ``_C_CSV`` is the fixed source
of the CSV formatter: it writes rows ``x,y,value`` of a grid with each value
in the bytes of ``format_float`` (``f"{v:.17g}"``), exactly, from 128-bit
integer arithmetic for about 1e-6 <= |v| < 1e38 and through ``snprintf``
(which glibc rounds exactly) outside that range.

Both are built, cached, loaded and probed by ``ilekoop._native``.  No
compiler (or no ``__int128``), a failed build or probe, and every call a
kernel cannot take run the Python code instead, with the same bytes: the
generated Python step, or ``strain.write_csv``'s one ``%`` per row.  This
is the part of the compiled kernels that needs numpy: only a field's first
array call to ``VectorField2D._rk4("tangent")`` and ``write_csv`` import it.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from . import _native
from .expr import format_float
from .vectorfield import _BOUND, _STEP_SIZES, _rk4_factory, _rk4_lines

#: The tangent kernel's clones on x86-64, where the compiler has the attribute.
_CLONES = '__attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))'

# restype, then argtypes
_TANGENT_TYPES = (ctypes.c_int, ctypes.c_long, ctypes.c_double) + (ctypes.c_void_p,) * 8


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
    written, and it is ``restrict``: ``_run`` allocates it, so it never
    shares memory with an input, while the state arrays may share memory
    with one another (``flowmap.cauchy_green`` passes one array of ones as
    F11 and F22 and one of zeros as F12 and F21).

    Each node runs the Python tangent's own list, ``vectorfield._STEP_SIZES``
    and ``vectorfield._rk4_lines``: every statement of it is already a C
    statement (``a = b + c * d``) of the same operations in the same order.
    Built without contraction or reassociation, every exactly-rounded
    operation of a node so gives the bits of the numpy step, in a SIMD lane
    as in a scalar register.  The node loop has no exit, and ``#pragma GCC
    ivdep`` states what ``restrict`` promises, that no node reads what
    another writes: without it gcc 12 leaves the loop scalar.  On x86-64
    the function is cloned for ``_CLONES``, and the loader picks the widest
    clone the CPU runs.  On the ``saddle`` a stage whose y fails
    ``fabs(y) < SADDLE_Y_BOUND`` (NaN too) sets a flag, and the call returns
    1 where the Python step raises; otherwise it returns 0."""
    guard = f"bad |= !(fabs({{y}}) < {_BOUND})" if saddle else None
    lines = _STEP_SIZES + _rk4_lines(shapes, guard)
    state = ("x", "y", "f11", "f12", "f21", "f22")
    load = f"const double {', '.join(f'{v} = {v.upper()}[i]' for v in state)};"
    store = " ".join(f"out[{k} * n + i] = {v}n;" for k, v in enumerate(state))
    head = ("#if defined(__x86_64__) && defined(__has_attribute)\n"
            "#if __has_attribute(target_clones)\n"
            f"#define CLONES {_CLONES}\n"
            "#endif\n#endif\n#ifndef CLONES\n#define CLONES\n#endif\n\n"
            "CLONES int ilekoop_tangent(long n, double h, const double *c, const double *X,\n"
            "                           const double *Y, const double *F11, const double *F12,\n"
            "                           const double *F21, const double *F22,\n"
            "                           double *restrict out)")
    return _native._c_function(head, shapes, [
        "    int bad = 0;",
        "#pragma GCC ivdep",
        "    for (long i = 0; i < n; i++) {",
        f"        {load}",
        f"        double {', '.join(_native._c_names(lines))};",
        *_native._c_statements(lines, "        "),
        f"        {store}",
        "    }",
        "    return bad;",
    ])


def _address(a: np.ndarray) -> int:
    """The address of a non-empty, C-contiguous, aligned and writable
    (``flags.carray``) array's data, taken through the buffer protocol: a
    fifth of the time of ``a.ctypes.data``."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _kernel(shapes: tuple, saddle: bool):
    """The probed tangent kernel of ``shapes``, or None."""
    return _native._cached((shapes, saddle), lambda: _native._load(
        "tangent", _c_tangent(shapes, saddle), _TANGENT_TYPES,
        lambda kernel: _probe(kernel, shapes, saddle)))


# The probe: 40 nodes from the identity gradient, more than a vector of any
# clone holds: four special ones (a negative zero among them), then a 6 x 6
# spread over [-0.8, 0.8] x [-0.75, 0.75]; eight full steps and a partial
# one each way.
_PROBE_X = (0.25, -0.375, -0.0, 0.4375, *np.repeat(np.linspace(-0.8, 0.8, 6), 6).tolist())
_PROBE_Y = (-0.125, 0.5, 0.0625, -0.0, *np.tile(np.linspace(-0.75, 0.75, 6), 6).tolist())
_PROBE_STEPS = ((0.01,) * 8 + (0.0037,), (-0.01,) * 8 + (-0.0041,))


def _probe(kernel, shapes: tuple, saddle: bool) -> bool:
    """Whether ``kernel`` reproduces the generated Python tangent of
    ``shapes`` bit for bit on the probe, with fixed coefficients of either
    sign, and (on the ``saddle``) refuses a call whose middle node is at
    y = 2."""
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
    y_out = np.zeros(x0.shape)
    y_out[y_out.size // 2] = 2.0
    return not saddle or _run(kernel, c, x0, y_out, one, zero, zero, one, 0.01)[0] == 1


# -- the CSV formatter ------------------------------------------------------------------

#: Bytes of CSV text per formatter call (at least one row): the peak memory
#: of writing a grid grows with this, not with the grid.
_CSV_BLOCK_BYTES = 1 << 16

#: The longest text of one value, as of -2.2250738585072014e-308.
_VALUE_BYTES = 24

_CSV_TYPES = (ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_void_p,
              ctypes.c_char_p, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p, ctypes.c_void_p)

# ilekoop_csv(nx, r0, r1, v, xt, xo, yt, yo, out) writes rows r0 .. r1 - 1 of
# the C-contiguous (ny, nx) array v as lines "<x text><y text><value>\n" and
# returns the bytes written.  Axis text k is t[o[k]] .. t[o[k + 1] - 1], comma
# included.  A value is f"{v:.17g}": for 1e-6 <= |v| < 1e38 (about) from the
# exact 128-bit integer floor(|v| 10^k) with k = 16 - E and its remainder,
# rounded half to even; otherwise from snprintf, which glibc rounds exactly.
_C_CSV = r"""#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

typedef unsigned __int128 u128;

static const uint64_t P10[20] = {
    1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u, 100000000u, 1000000000u,
    10000000000u, 100000000000u, 1000000000000u, 10000000000000u, 100000000000000u,
    1000000000000000u, 10000000000000000u, 100000000000000000u, 1000000000000000000u,
    10000000000000000000u};

static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

static u128 pow10_128(int k) /* 0 <= k <= 22 */
{
    return k < 20 ? P10[k] : (u128)P10[k - 19] * P10[19];
}

/* floor(m 2^e 10^k) as *q and the sign of its remainder less one half as
   *half; 0 where 128-bit integers cannot give them exactly. */
static int scaled(uint64_t m, int e, int k, uint64_t *q, int *half)
{
    u128 n, d, quotient, rest;
    if (k < -22 || k > 22 || e < -127 || e > 74)
        return 0;
    if (k >= 0 && e < 0) { /* m 10^k < 2^127, divided by 2^-e */
        n = (u128)m * pow10_128(k);
        quotient = n >> -e;
        rest = n - (quotient << -e);
        d = (u128)1 << (-e - 1);
        *half = (rest > d) - (rest < d);
    } else if (k >= 0) { /* then |v| >= 2^52, so k <= 1 */
        if (e > 8)
            return 0;
        quotient = (u128)m * pow10_128(k) << e;
        *half = -1;
    } else { /* m 2^e < 2^127, divided by 10^-k */
        n = (u128)m << e;
        d = pow10_128(-k);
        quotient = n / d;
        rest = 2 * (n - quotient * d);
        *half = (rest > d) - (rest < d);
    }
    if (quotient >> 64)
        return 0;
    *q = (uint64_t)quotient;
    return 1;
}

/* f"{v:.17g}" at p; the end of the text. */
static char *g17(double v, char *p)
{
    uint64_t bits, m, q;
    int half, E, n;
    char d[17], slow[32];
    memcpy(&bits, &v, 8);
    m = bits & ((UINT64_C(1) << 52) - 1);
    int be = (int)(bits >> 52 & 0x7ff);
    if (be == 0x7ff && m)
        return memcpy(p, "nan", 3), p + 3;
    if (bits >> 63)
        *p++ = '-';
    if (be == 0x7ff)
        return memcpy(p, "inf", 3), p + 3;
    if (be == 0 && m == 0)
        return *p++ = '0', p;
    if (be == 0)
        goto by_snprintf;
    m |= UINT64_C(1) << 52;
    /* 2^(be - 1023) <= |v|, so E starts at or below floor(log10 |v|) */
    E = (int)floor((be - 1023) * 0.30102999566398120);
    for (;;) {
        if (!scaled(m, be - 1075, 16 - E, &q, &half))
            goto by_snprintf;
        if (q < UINT64_C(10000000000000000))
            E--;
        else if (q >= UINT64_C(100000000000000000))
            E++;
        else
            break;
    }
    if (half > 0 || (half == 0 && (q & 1)))
        q++;
    if (q == UINT64_C(100000000000000000)) { /* rounded up to 10^(E + 1) */
        q = UINT64_C(10000000000000000);
        E++;
    }
    uint64_t hi = q / 100000000, lo = q % 100000000;
    d[0] = (char)('0' + hi / 100000000);
    hi %= 100000000;
    for (int i = 7; i > 0; i -= 2, hi /= 100, lo /= 100) {
        memcpy(d + i, PAIRS + 2 * (hi % 100), 2);
        memcpy(d + 8 + i, PAIRS + 2 * (lo % 100), 2);
    }
    for (n = 17; d[n - 1] == '0'; n--)
        ;
    if (E < -4 || E >= 17) {
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            p = (char *)memcpy(p, d + 1, n - 1) + n - 1;
        }
        *p++ = 'e';
        *p++ = E < 0 ? '-' : '+';
        E = E < 0 ? -E : E;
        if (E >= 100)
            *p++ = (char)('0' + E / 100);
        return (char *)memcpy(p, PAIRS + 2 * (E % 100), 2) + 2;
    }
    if (E < 0) {
        p = (char *)memcpy(p, "0.000", 1 - E) + 1 - E;
        return (char *)memcpy(p, d, n) + n;
    }
    p = (char *)memcpy(p, d, E + 1) + E + 1;
    if (n > E + 1) {
        *p++ = '.';
        p = (char *)memcpy(p, d + E + 1, n - E - 1) + n - E - 1;
    }
    return p;
by_snprintf:
    n = snprintf(slow, sizeof slow, "%.17g", fabs(v));
    return (char *)memcpy(p, slow, n) + n;
}

long ilekoop_csv(long nx, long r0, long r1, const double *v, const char *xt,
                 const int64_t *xo, const char *yt, const int64_t *yo, char *out)
{
    char *p = out;
    for (long r = r0; r < r1; r++)
        for (long i = 0; i < nx; i++) {
            p = (char *)memcpy(p, xt + xo[i], xo[i + 1] - xo[i]) + (xo[i + 1] - xo[i]);
            p = (char *)memcpy(p, yt + yo[r], yo[r + 1] - yo[r]) + (yo[r + 1] - yo[r]);
            p = g17(v[r * nx + i], p);
            *p++ = '\n';
        }
    return p - out;
}
"""


def csv_blocks(values: np.ndarray, xtexts: list, ytexts: list):
    """The CSV lines ``x,y,value`` of the (ny, nx) ``values``, row-major,
    with ``x`` and ``y`` the axis texts ``xtexts[ix]`` and ``ytexts[iy]`` and
    ``value`` the node's ``format_float`` text (``"%.17g" % v`` if not
    finite), as an iterator of ASCII strings of at most about
    ``_CSV_BLOCK_BYTES`` each (and at least one row); None where no formatter
    loads."""
    kernel = _native._cached("csv", lambda: _native._load("csv", _C_CSV, _CSV_TYPES, _probe_csv))
    return None if kernel is None else _blocks(kernel, values, xtexts, ytexts)


def _blocks(kernel, values: np.ndarray, xtexts: list, ytexts: list):
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.shape != (len(ytexts), len(xtexts)):  # the kernel reads one text per row and column
        raise ValueError("values do not match the axis texts")
    ny, nx = values.shape
    (xt, xo), (yt, yo) = (_joined(texts) for texts in (xtexts, ytexts))
    # every row fits: its texts, then the longest y text and value per node
    row_bytes = len(xt) + nx * (int(np.diff(yo).max()) + _VALUE_BYTES + 1)
    rows = max(1, _CSV_BLOCK_BYTES // row_bytes)
    out = bytearray(rows * row_bytes)
    for r0 in range(0, ny, rows):
        size = kernel(nx, r0, min(r0 + rows, ny), values.ctypes.data, xt, xo.ctypes.data, yt,
                      yo.ctypes.data, _address(out))
        yield str(memoryview(out)[:size], "ascii")


def _joined(texts: list) -> tuple:
    """The texts, each with a comma, as one ASCII string and the int64 offsets
    of their starts and of the end."""
    texts = [t + "," for t in texts]
    offsets = np.zeros(len(texts) + 1, np.int64)
    np.cumsum([len(t) for t in texts], out=offsets[1:])
    return "".join(texts).encode("ascii"), offsets


#: The formatter's probe: both zeros, the least subnormal, the least normal
#: and the largest double, a tie (1 + 2^-17), each side of both switches to
#: exponent notation, 1e22 and 1e23 at the edge of exact powers of ten, two
#: values beyond the integer range and three ordinary ones.
_FORMAT_PROBE = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 1.0 + 2.0**-17, 1e-4, math.nextafter(1e-4, 0.0), 1e16, 1e17,
                 math.nextafter(1e17, 0.0), 1e22, 1e23, -1.5e-7, 6.02214076e39, -0.1, 3.0,
                 -123456.789)


def _probe_csv(kernel) -> bool:
    """Whether ``kernel`` writes the probe values, as a two-row grid, in the
    bytes of ``format_float``."""
    values = np.array(_FORMAT_PROBE).reshape(2, -1)
    xtexts, ytexts = [f"x{i}" for i in range(values.shape[1])], ["y0", "-y1"]
    want = "".join(f"{x},{y},{format_float(v)}\n"
                   for y, row in zip(ytexts, values.tolist()) for x, v in zip(xtexts, row))
    return "".join(_blocks(kernel, values, xtexts, ytexts)) == want
