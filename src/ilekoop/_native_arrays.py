"""Compiled kernels on arrays: the FTLE tangent plan and the text library.

``_c_plan`` emits a field's generated RK4 tangent statements, through
``_native._c_function``, as one C function that runs a whole step plan
(``flowmap._step_plan``'s n full steps, then the partial one) over every
node of an array and returns the flow-map gradient.  A node's state is six
doubles (x, y and the four entries of the gradient), and every generated
statement is one C statement, unchanged.  Nodes go in blocks of
``_PLAN_BLOCK_NODES``, whose state stays in the L1 cache, with the steps as
the outer loop and the nodes inside; the saddle's bound is written into the
source, as it is into the Python step.  The node loop has no exit, so gcc
runs it in SIMD lanes, and on x86-64 the function is cloned for
x86-64-v4, x86-64-v3 and the baseline, of which the loader picks the widest
the CPU runs: a cubic field's kernel builds in about 0.9 s (gcc 12, 2
vCPUs), once per checkout.  ``_C_TEXT`` is the fixed source of the text
library: a grid's CSV rows ``x,y,value``, its axis texts and its PGM pixel
rows.  Each value is in the bytes of ``format_float`` (``f"{v:.17g}"``),
exactly, from 128-bit integer arithmetic for about 1e-6 <= |v| < 1e38 and
through ``snprintf`` (which glibc rounds exactly) outside that range.

Both are built, cached, loaded and probed by ``ilekoop._native``.  No
compiler (or no ``__int128``), a failed build or probe, and every call a
kernel cannot take run the Python code instead, with the same bytes:
``flowmap._advance`` over the generated Python tangent, and ``strain``'s
own writers.  This is the part of the compiled kernels that needs numpy:
only a field's first array ``cauchy_green`` and a grid's text import it.
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

#: Nodes per block of the plan kernel: six doubles a node, 12 KB a block,
#: which an L1 data cache of 32 KB or more holds.  The plan is bound by its
#: arithmetic: blocks of 32 to 4,096 nodes all ran a cubic 101x101 plan of 50
#: steps in 5.3-5.5 ms (2 vCPUs, medians of 25 interleaved).
_PLAN_BLOCK_NODES = 256

# restype, then argtypes: count, n, step, r, c, X, Y, out
_PLAN_TYPES = {"plan": (ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_double,
                        ctypes.c_double) + (ctypes.c_void_p,) * 4}


def tangent_plan(shapes: tuple, coeffs: list, saddle: bool):
    """``plan(x, y, n, h, r)`` for the field whose (P, Q, P_x, P_y, Q_x, Q_y)
    have the term structures ``shapes`` and the coefficients ``coeffs``
    (``vectorfield._field_terms``), guarded if it is the ``saddle``: the
    flow-map gradient (f11, f12, f21, f22), as arrays of x's shape, after n
    steps of h and then, unless r is 0.0, one of r from the nodes (x, y) and
    the identity, run by the compiled plan kernel where x and y are float64
    arrays of one shape, C-contiguous, aligned and writable
    (``flags.carray``), and x is not empty.  None for any other call, where
    no kernel loads, and where the kernel stopped (a stage left the saddle's
    strip, or the state was not finite at a check): there
    ``flowmap._advance`` runs the plan in the generated Python tangent, with
    its own errors."""
    kernel = _kernel(shapes, saddle)
    c = np.array(coeffs + [0.0])  # one spare entry: _address needs a non-empty array

    def plan(x, y, n, h, r):
        if kernel is None or not (type(x) is np.ndarray and x.size and all(
                type(v) is np.ndarray and v.dtype == np.float64 and v.shape == x.shape
                and v.flags.carray for v in (x, y))):
            return None
        code, state = _run(kernel, c, x, y, n, h, r)
        return None if code else state[2:]

    return plan


def _run(kernel, c: np.ndarray, x: np.ndarray, y: np.ndarray, n: int, h: float,
         r: float) -> tuple:
    """One call of the plan ``kernel``: its return code (0, or 1 + the steps
    it ran before it stopped) and the final state (x, y, f11, f12, f21,
    f22), views of one new (6, ...) array."""
    out = np.empty((6, *x.shape))
    code = kernel(x.size, n, h, r, *map(_address, (c, x, y, out)))
    return code, tuple(out)


def _c_plan(shapes: tuple, saddle: bool) -> str:
    """C source of the ``"tangent"`` function of ``vectorfield._rk4_factory``
    for ``shapes``, run over a whole step plan: ``long ilekoop_plan(count,
    n, step, r, c, X, Y, out)``.  ``c`` holds the coefficients in the
    factory's argument order, ``X`` and ``Y`` hold ``count`` nodes, and
    ``out`` (6, count) gets their state x, y, f11, f12, f21, f22 after n
    steps of ``step`` and, unless ``r`` is 0.0, one of ``r``, from the
    identity gradient.  Only ``out`` is written, and it is ``restrict``: ``_run``
    allocates it, so it never shares memory with an input.

    Each node runs the Python tangent's own list, ``vectorfield._STEP_SIZES``
    and ``vectorfield._rk4_lines``: every statement of it is already a C
    statement (``a = b + c * d``) of the same operations in the same order.
    Built without contraction or reassociation, every exactly-rounded
    operation of a node so gives the bits of the numpy step, in a SIMD lane
    as in a scalar register.  The nodes go in blocks of ``_PLAN_BLOCK_NODES``
    whose state is a local array: the steps are the outer loop, and the node
    loop inside has no exit.  ``#pragma GCC ivdep`` states that no node
    reads what another writes: without it gcc 12 leaves the loop scalar.  On
    x86-64 the function is cloned for ``_CLONES``, and the loader picks the
    widest clone the CPU runs.

    It stops where the Python plan (``flowmap._advance``) raises: on the
    ``saddle`` after a step in which a stage's y failed ``fabs(y) <
    SADDLE_Y_BOUND`` (NaN too), and where a block's state is not finite
    after every ``flowmap._FINITE_CHECK_STEPS``-th step or the last.  It
    then returns 1 + the steps it ran in that block; otherwise 0."""
    from .flowmap import _FINITE_CHECK_STEPS  # loaded already: only cauchy_green builds a plan

    guard = f"bad |= !(fabs({{y}}) < {_BOUND})" if saddle else None
    lines = _STEP_SIZES + _rk4_lines(shapes, guard)
    state = ("x", "y", "f11", "f12", "f21", "f22")
    load = f"const double {', '.join(f'{v} = s[{k}][i]' for k, v in enumerate(state))};"
    store = " ".join(f"s[{k}][i] = {v}n;" for k, v in enumerate(state))
    head = ("#if defined(__x86_64__) && defined(__has_attribute)\n"
            "#if __has_attribute(target_clones)\n"
            f"#define CLONES {_CLONES}\n"
            "#endif\n#endif\n#ifndef CLONES\n#define CLONES\n#endif\n\n"
            f"#define BLOCK {_PLAN_BLOCK_NODES}\n\n"
            "/* whether the first m nodes of a block's state are finite */\n"
            "static int all_finite(double s[6][BLOCK], long m)\n{\n"
            "    int ok = 1;\n"
            "    for (int j = 0; j < 6; j++)\n"
            "        for (long i = 0; i < m; i++)\n"
            "            ok &= s[j][i] - s[j][i] == 0.0;\n"
            "    return ok;\n}\n\n"
            "CLONES long ilekoop_plan(long count, long n, double step, double r, const double *c,\n"
            "                         const double *X, const double *Y, double *restrict out)")
    return _native._c_function(head, shapes, [
        "    double s[6][BLOCK];",
        "    const long steps = n + (r != 0.0);",
        "    for (long b = 0; b < count; b += BLOCK) {",
        "        const long m = count - b < BLOCK ? count - b : BLOCK;",
        "        for (long i = 0; i < m; i++) {",
        "            s[0][i] = X[b + i]; s[1][i] = Y[b + i];",
        "            s[2][i] = 1.0; s[3][i] = 0.0; s[4][i] = 0.0; s[5][i] = 1.0;",
        "        }",
        "        long k = 0;",
        "        while (k < steps) {",
        "            const double h = k < n ? step : r;",
        "            int bad = 0;",
        "#pragma GCC ivdep",
        "            for (long i = 0; i < m; i++) {",
        f"                {load}",
        f"                double {', '.join(_native._c_names(lines))};",
        *_native._c_statements(lines, "                "),
        f"                {store}",
        "            }",
        "            k++;",
        f"            if (bad || (k % {_FINITE_CHECK_STEPS} == 0 && !all_finite(s, m)))",
        "                return 1 + k;",
        "        }",
        "        if (!all_finite(s, m))",
        "            return 1 + k;",
        "        for (int j = 0; j < 6; j++)",
        "            for (long i = 0; i < m; i++)",
        "                out[j * count + b + i] = s[j][i];",
        "    }",
        "    return 0;",
    ])


def _address(a) -> int:
    """The address of a non-empty, C-contiguous, aligned and writable
    (``flags.carray``) array's or a bytearray's data, taken through the
    buffer protocol: a fifth of the time of ``a.ctypes.data``."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _kernel(shapes: tuple, saddle: bool):
    """The probed plan kernel of ``shapes``, or None."""
    kernels = _native._cached((shapes, saddle), lambda: _native._load(
        "plan", _c_plan(shapes, saddle), _PLAN_TYPES,
        lambda kernel: _probe(kernel, shapes, saddle)))
    return kernels and kernels[0]


# The probe: 40 nodes, more than a vector of any clone holds: four special
# ones (a negative zero among them), then a 6 x 6 spread over [-0.8, 0.8] x
# [-0.75, 0.75]; eight full steps and a partial one each way.
_PROBE_X = (0.25, -0.375, -0.0, 0.4375, *np.repeat(np.linspace(-0.8, 0.8, 6), 6).tolist())
_PROBE_Y = (-0.125, 0.5, 0.0625, -0.0, *np.tile(np.linspace(-0.75, 0.75, 6), 6).tolist())
_PROBE_PLANS = ((8, 0.01, 0.0037), (8, -0.01, -0.0041))


def _probe(kernel, shapes: tuple, saddle: bool) -> bool:
    """Whether ``kernel`` reproduces the generated Python tangent of
    ``shapes`` bit for bit on the probe, with fixed coefficients of either
    sign, stops after the last step where a node's x is NaN, and (on the
    ``saddle``) stops after the first step where the middle node is at
    y = 2."""
    count = sum(map(len, shapes))
    coeffs = [0.625 - 0.25 * (k % 5) for k in range(count)]
    python = _rk4_factory(shapes, "tangent", saddle)(*coeffs)
    c = np.array(coeffs + [0.0])
    x0, y0 = np.array(_PROBE_X), np.array(_PROBE_Y)
    one, zero = np.ones(x0.shape), np.zeros(x0.shape)
    for n, h, r in _PROBE_PLANS:
        want = (x0, y0, one, zero, zero, one)
        for step in (h,) * n + (r,):
            want = python(*want, step)
        code, got = _run(kernel, c, x0, y0, n, h, r)
        if code or [v.tobytes() for v in want] != [v.tobytes() for v in got]:
            return False
    x_nan, y_out = x0.copy(), y0.copy()
    x_nan[x0.size // 2] = math.nan
    y_out[y0.size // 2] = 2.0
    return (_run(kernel, c, x_nan, y0, 8, 0.01, 0.0037)[0] == 1 + 9
            and (not saddle or _run(kernel, c, x0, y_out, 8, 0.01, 0.0)[0] == 2))


# -- the text library -------------------------------------------------------------------

#: Bytes of CSV text per formatter call (at least one row): the peak memory
#: of writing a grid grows with this, not with the grid.
_CSV_BLOCK_BYTES = 1 << 16

#: The longest text of one value, as of -2.2250738585072014e-308.
_VALUE_BYTES = 24

# restype, then argtypes
_TEXT_TYPES = {
    "csv": (ctypes.c_long,) * 4 + (ctypes.c_void_p,) * 6,  # nx, r0, r1, v, xt, xo, yt, yo, out
    "axis": (ctypes.c_long, ctypes.c_long) + (ctypes.c_void_p,) * 3,  # n, v, out, offsets
    "pgm": (ctypes.c_long, ctypes.c_long, ctypes.c_long) + (ctypes.c_void_p,) * 2,  # nx, ny, p, out
}

# ilekoop_csv(nx, r0, r1, v, xt, xo, yt, yo, out) writes rows r0 .. r1 - 1 of
# the C-contiguous (ny, nx) array v as lines "<x text><y text><value>\n" and
# returns the bytes written.  Axis text k is t[o[k]] .. t[o[k + 1] - 1], comma
# included: what ilekoop_axis(n, v, t, o) writes for the n coordinates v.
# ilekoop_pgm(nx, ny, p, out) writes the rows of the C-contiguous (ny, nx)
# int64 pixels p, the last row first, as decimal levels 0-255 each followed
# by a space, or by a newline at the row's end; -1 for a level outside 0-255.
# A value is f"{v:.17g}": for 1e-6 <= |v| < 1e38 (about) from the exact
# 128-bit integer floor(|v| 10^k) with k = 16 - E and its remainder, rounded
# half to even; otherwise from snprintf, which glibc rounds exactly.
_C_TEXT = r"""#include <math.h>
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

long ilekoop_axis(long n, const double *v, char *out, int64_t *offsets)
{
    char *p = out;
    offsets[0] = 0;
    for (long k = 0; k < n; k++) {
        p = g17(v[k], p);
        *p++ = ',';
        offsets[k + 1] = p - out;
    }
    return p - out;
}

long ilekoop_pgm(long nx, long ny, const int64_t *pixels, char *out)
{
    char *p = out;
    for (long r = ny - 1; r >= 0; r--)
        for (long i = 0; i < nx; i++) {
            int64_t level = pixels[r * nx + i];
            if (level < 0 || level > 255)
                return -1;
            if (level >= 100)
                *p++ = (char)('0' + level / 100);
            if (level >= 10)
                *p++ = PAIRS[2 * (level % 100)];
            *p++ = PAIRS[2 * (level % 100) + 1];
            *p++ = i + 1 < nx ? ' ' : '\n';
        }
    return p - out;
}
"""


def _library():
    """The probed text library's functions (csv, axis, pgm), or None."""
    return _native._cached("text", lambda: _native._load("text", _C_TEXT, _TEXT_TYPES, _probe_text))


def csv_blocks(values: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """The CSV lines ``x,y,value`` of the (ny, nx) ``values`` on the axis
    coordinates ``xs`` and ``ys``, row-major, each number in the bytes of
    ``format_float`` (a value's ``"%.17g" % v`` if not finite), as an
    iterator of ASCII strings of at most about ``_CSV_BLOCK_BYTES`` each
    (and at least one row); None where no text library loads."""
    lib = _library()
    return None if lib is None else _blocks(lib, values, xs, ys)


def _blocks(lib, values: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    csv, axis, _ = lib
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.shape != (len(ys), len(xs)):  # the kernel reads one text per row and column
        raise ValueError("values do not match the axis texts")
    ny, nx = values.shape
    (xt, xo), (yt, yo) = _axis(axis, xs), _axis(axis, ys)
    # every row fits: its texts, then the longest y text and value per node
    row_bytes = int(xo[-1]) + nx * (int(np.diff(yo).max()) + _VALUE_BYTES + 1)
    rows = max(1, _CSV_BLOCK_BYTES // row_bytes)
    out = bytearray(rows * row_bytes)
    for r0 in range(0, ny, rows):
        size = csv(nx, r0, min(r0 + rows, ny), values.ctypes.data, _address(xt),
                   xo.ctypes.data, _address(yt), yo.ctypes.data, _address(out))
        yield str(memoryview(out)[:size], "ascii")


def _axis(axis, values) -> tuple:
    """The texts of the coordinates ``values``, each with a comma, in one
    buffer, and the int64 offsets of their starts and of the end."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    text = bytearray(len(values) * (_VALUE_BYTES + 1) + 1)  # + 1: _address needs a byte
    offsets = np.empty(len(values) + 1, np.int64)
    axis(len(values), values.ctypes.data, _address(text), offsets.ctypes.data)
    return text, offsets


def axis_texts(values) -> list | None:
    """``format_float`` of each finite coordinate of ``values``; None where
    no text library loads."""
    lib = _library()
    return None if lib is None else _texts(lib[1], values)


def _texts(axis, values) -> list:
    text, offsets = _axis(axis, values)
    return str(memoryview(text)[:int(offsets[-1])], "ascii").split(",")[:-1]


def pgm_rows(pixels: np.ndarray) -> str | None:
    """The rows of the (ny, nx) integer ``pixels``, the last row first, as
    PGM text: each row's levels in decimal, separated by spaces, and a
    newline.  None where no text library loads or a level is outside
    0-255."""
    lib = _library()
    return None if lib is None else _pgm(lib[2], pixels)


def _pgm(pgm, pixels: np.ndarray) -> str | None:
    pixels = np.ascontiguousarray(pixels, dtype=np.int64)
    ny, nx = pixels.shape
    out = bytearray(4 * pixels.size + 1)  # + 1: _address needs a byte
    size = pgm(nx, ny, pixels.ctypes.data, _address(out))
    return None if size < 0 else str(memoryview(out)[:size], "ascii")


#: The formatter's probe: both zeros, the least subnormal, the least normal
#: and the largest double, a tie (1 + 2^-17), each side of both switches to
#: exponent notation, 1e22 and 1e23 at the edge of exact powers of ten, two
#: values beyond the integer range and three ordinary ones.
_FORMAT_PROBE = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 1.0 + 2.0**-17, 1e-4, math.nextafter(1e-4, 0.0), 1e16, 1e17,
                 math.nextafter(1e17, 0.0), 1e22, 1e23, -1.5e-7, 6.02214076e39, -0.1, 3.0,
                 -123456.789)


def _probe_text(*lib) -> bool:
    """Whether the library writes the probe values as a two-row grid, on
    axes of the probe values, and as axis texts in the bytes of
    ``format_float``, writes every level 0-255 as PGM rows in the bytes of
    ``str``, and refuses the levels -1 and 256."""
    _, axis, pgm = lib
    values = np.array(_FORMAT_PROBE).reshape(2, -1)
    xs, ys = values[1], values[:, 0]
    want = "".join(f"{format_float(x)},{format_float(y)},{format_float(v)}\n"
                   for y, row in zip(ys.tolist(), values.tolist())
                   for x, v in zip(xs.tolist(), row))
    pixels = np.arange(256).reshape(8, 32)
    rows = "".join(" ".join(map(str, row)) + "\n" for row in pixels[::-1].tolist())
    return ("".join(_blocks(lib, values, xs, ys)) == want
            and _texts(axis, values.ravel()) == list(map(format_float, _FORMAT_PROBE))
            and _pgm(pgm, pixels) == rows
            and _pgm(pgm, np.array([[-1]])) is None and _pgm(pgm, np.array([[256]])) is None)
