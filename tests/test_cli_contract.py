"""The CLI contract as a property: whatever numbers the flags carry (floats,
and small integers for sample, node, term and thread counts), every
subcommand exits 0, 1 or 2, never prints a traceback, starts the stderr of a
failure with ``error: `` and leaves no output file behind, and prints strict
JSON (no NaN/Infinity) on success."""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ilekoop import cli

#: Values that break naive numeric code.
SPECIAL = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -1.0, 1e-320]


def num(normal: float):
    """Text of either a working value or one of SPECIAL."""
    return st.one_of(st.just(normal), st.sampled_from(SPECIAL)).map(repr)


def nums(*normals: float, sep: str = ","):
    return st.tuples(*(num(v) for v in normals)).map(sep.join)


def count():
    """Text of a small integer flag value: nothing large is allocated or threaded."""
    return st.integers(-1, 5).map(str)


def grid():
    # at most 5x5 nodes keep every request cheap
    return st.tuples(num(-0.5), num(0.5), count(), num(-0.4), num(0.4), count()).map(
        lambda b: f"{b[0]}:{b[1]}:{b[2]},{b[3]}:{b[4]}:{b[5]}"
    )


FIELDS = st.sampled_from(["saddle", "expr:x*y - y^3;x^2 + 0.3*y", "expr:0.5*x;-0.5*y"])


@st.composite
def requests(draw):
    """(argv, points-file text or None) for one subcommand."""
    cmd = draw(st.sampled_from(
        ["ile", "ftle", "keig-check", "pullback", "quadratic", "cubic", "transformed",
         "carleman", "series", "oned"]
    ))
    if cmd == "ile":
        argv = ["ile", "--field", draw(FIELDS), f"--grid={draw(grid())}", "--out", "f.csv",
                "--pgm", "f.pgm", f"--curv-tol={draw(num(1e-6))}", "--threads", draw(count())]
        if draw(st.booleans()):
            argv += ["--extract", draw(st.sampled_from(["ridge", "trench"])),
                     f"--grad-tol={draw(num(1e-2))}"]
        return argv, None
    if cmd == "ftle":
        return ["ftle", "--field", draw(FIELDS), f"--grid={draw(grid())}", "--out", "f.csv",
                f"--time={draw(num(-0.1))}", f"--step={draw(num(1e-2))}",
                f"--delta={draw(num(1e-5))}", "--pgm", "f.pgm", "--threads", draw(count())], None
    if cmd == "keig-check":
        argv = ["keig-check", "--field", draw(FIELDS), "--g", "x*y - 0.5",
                f"--lambda={draw(num(1.0))}", "--samples", str(draw(st.integers(-1, 10))),
                f"--box={draw(nums(-0.5, 0.5, sep=':'))},{draw(nums(-0.4, 0.4, sep=':'))}"]
        if draw(st.booleans()):
            argv.append("--exact")
        return argv, None
    if cmd == "pullback":
        h = draw(st.one_of(num(1.0), st.just("s^2 + 1")))
        return ["pullback", "--field", draw(FIELDS), f"--line={draw(nums(0.0, 0.5, 1.0, 0.0))}",
                f"--h={h}", f"--lambda={draw(num(-1.0))}", "--points", "pts.txt",
                "--out", "phi.csv", f"--step={draw(num(1e-2))}",
                f"--tmax={draw(num(1.0))}"], draw(nums(0.1, 0.2))
    if cmd == "quadratic":
        return ["family", "quadratic", f"--lambda={draw(num(1.0))}",
                f"--a20={draw(num(1.0))}"], None
    if cmd == "cubic":
        return ["family", "cubic", f"--lambda={draw(num(2.0))}", f"--c={draw(num(0.5))}",
                f"--k={draw(num(-0.3))}", f"--a00={draw(num(-2.0))}"], None
    if cmd == "transformed":
        return ["family", "transformed", f"--lambda={draw(num(-1.0))}",
                f"--coeffs={draw(nums(-0.5, 0.25))}"], None
    if cmd == "carleman":
        return ["carleman", f"--lambda={draw(num(-1.0))}", f"--c={draw(num(-1.0))}",
                f"--x0={draw(nums(1.0, 0.0))}", f"--time={draw(num(1.0))}"], None
    if cmd == "series":
        return ["series", "--target", draw(st.sampled_from(["s1", "3y2", "y"])),
                "--N", str(draw(st.integers(-1, 8))), f"--y={draw(num(0.3))}"], None
    return ["oned", "--f", "x - x^3", f"--xmin={draw(num(-1.0))}",
            f"--xmax={draw(num(1.0))}", "--n", draw(count())], None


def _no_constants(name):
    raise ValueError(f"non-JSON constant {name}")


def _run_main(directory, argv, points):
    """Run ``ilekoop argv`` through the entry point, with ``directory`` as
    the working directory; returns (exit code, stdout, stderr).  Warnings
    the entry point lets through are printed ahead of stderr, as in a real
    process."""
    cwd, saved_argv = os.getcwd(), sys.argv
    os.chdir(directory)
    sys.argv = ["ilekoop", *argv]
    out, err = io.StringIO(), io.StringIO()
    try:
        if points is not None:
            with open("pts.txt", "w", encoding="ascii") as fh:
                fh.write(points + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    cli.main()
                except SystemExit as exc:
                    code = exc.code
    finally:
        os.chdir(cwd)
        sys.argv = saved_argv
    shown = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), shown + err.getvalue()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(request=requests())
def test_cli_contract(request):
    argv, points = request
    with tempfile.TemporaryDirectory() as directory:
        code, out, err = _run_main(directory, argv, points)
        written = set(os.listdir(directory)) - {"pts.txt"}
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        assert err.startswith("error: "), err
        assert out == ""
        assert not written, written  # no --out or --pgm file
    elif out:
        json.loads(out, parse_constant=_no_constants)
