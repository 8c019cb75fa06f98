"""End-to-end command-line tests: formats, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilekoop import cli, flowmap, series, strain
from ilekoop.cli import run_command
from ilekoop.errors import NumericalError
from ilekoop.expr import Poly2, parse_polynomial
from ilekoop.series import decompose_monomial

from test_expr import full_degree_terms
from test_series import _old_monomial_eigenfunction, _old_partial_sum


def run(argv, capsys):
    code = run_command(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_cubic_example_coefficients(capsys):
    code, out, _ = run(
        [
            "family",
            "cubic",
            "--lambda", "2",
            "--c", "0.66666666666666663",
            "--k", "-0.33333333333333331",
            "--a00", "-2",
        ],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "polynomial"
    p = Poly2.from_json_terms(obj["p"])
    q = Poly2.from_json_terms(obj["q"])
    ref_p = parse_polynomial("-2 + x + (x+y)^2") - (1.0 / 3.0) * parse_polynomial("(x+y)^3")
    ref_q = parse_polynomial("1 + y - (x+y)^2") + (1.0 / 3.0) * parse_polynomial("(x+y)^3")
    assert p.max_coeff_diff(ref_p) < 1e-12
    assert q.max_coeff_diff(ref_q) < 1e-12


def test_keig_check_on_family_output(capsys, tmp_path):
    code, out, _ = run(
        ["family", "cubic", "--lambda", "2", "--c", "0.66666666666666663",
         "--k", "-0.33333333333333331", "--a00", "-2"],
        capsys,
    )
    field_file = tmp_path / "field.json"
    field_file.write_text(out)
    code, out, _ = run(
        ["keig-check", "--field", str(field_file), "--g", "(x+y-1)^2",
         "--lambda", "2", "--samples", "100"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["samples"] == 100
    assert report["max_abs_residual"] < 1e-9


@pytest.mark.parametrize("samples, max_abs, rms", [
    (1, "0.22744375", "0.22744375"),
    (5, "0.33388240740740743", "0.18800254666439406"),
    (7, "0.33388240740740743", "0.18397377985833344"),
])
def test_keig_check_non_square_sample_counts(capsys, samples, max_abs, rms):
    # 1, 5 and 7 points stop partway through a 2x2 and two 3x3 lattices
    code, out, _ = run(["keig-check", "--field", "expr:x*y - y^3;x^2 + 0.3*y", "--g", "x^2 + y",
                        "--lambda", "1.5", "--samples", str(samples), "--box=-0.5:0.7,-0.4:0.3"],
                       capsys)
    assert code == 0
    assert out == (f'{{"lambda": 1.5, "max_abs_residual": {max_abs}, "rms_residual": {rms}, '
                   f'"samples": {samples}}}\n')


def _old_sample_box(n, box):
    """``cli._sample_box`` as written before it was one comprehension."""
    xmin, xmax, ymin, ymax = box
    side = max(2, int(math.ceil(math.sqrt(n))))
    pts = []
    for iy in range(side):
        for ix in range(side):
            if len(pts) >= n:
                return pts
            fx = (ix + 0.5) / side
            fy = (iy + 0.5) / side
            pts.append((xmin + fx * (xmax - xmin), ymin + fy * (ymax - ymin)))
    return pts


def test_sample_box_equals_the_old_loop():
    for box in ((-0.5, 0.7, -0.4, 0.3), (-1.0, 1.0, -1.0, 1.0), (0.1, 0.9, 1e-3, 3e5)):
        for n in range(1, 50):
            assert cli._sample_box(n, box) == _old_sample_box(n, box)


def test_keig_check_exact_mode(capsys):
    code, out, _ = run(
        ["keig-check", "--field", "expr:-y + (x+y)^2;x + 2*y - (x+y)^2",
         "--g", "2*x + 2*y", "--lambda", "1", "--exact"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["exact"] is True
    assert report["max_abs_residual"] == 0.0


def test_ile_saddle_csv(capsys, tmp_path):
    out_file = tmp_path / "s1.csv"
    code, _, _ = run(
        ["ile", "--field", "saddle", "--grid", "-1:1:5,-0.5:0.5:5",
         "--rate", "s1", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 26  # header + 25 nodes
    center = [ln for ln in lines[1:] if ln.split(",")[1] == "0"]
    assert len(center) == 5
    assert all(ln.split(",")[2] == "-1" for ln in center)


def test_ile_stdin_round_trip(capsys, tmp_path, monkeypatch):
    code, field_json, _ = run(["family", "quadratic", "--lambda", "1", "--a20", "1"], capsys)
    assert code == 0
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    field_file = tmp_path / "field.json"
    field_file.write_text(field_json)
    code, _, _ = run(
        ["ile", "--field", str(field_file), "--grid", "0:1:9,0:1:9", "--rate", "s2",
         "--out", str(out_a)],
        capsys,
    )
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(field_json))
    code, _, _ = run(
        ["ile", "--field", "-", "--grid", "0:1:9,0:1:9", "--rate", "s2", "--out", str(out_b)],
        capsys,
    )
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_ile_extract_output(capsys, tmp_path):
    out_file = tmp_path / "s1.csv"
    code, out, _ = run(
        ["ile", "--field", "expr:0.5*x;-0.5*y", "--grid", "-1:1:9,-1:1:9",
         "--rate", "s1", "--out", str(out_file), "--extract", "trench"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "trench"
    assert report["points"] == []  # constant field has no curvature


@pytest.mark.parametrize(
    "flag,value",
    [("--grad-tol", "nan"), ("--grad-tol", "inf"), ("--curv-tol", "inf"),
     ("--curv-tol", "-inf"), ("--curv-tol", "nan")],
)
def test_ile_nonfinite_tolerance_exit_code(capsys, tmp_path, flag, value):
    out_file = tmp_path / "s1.csv"
    code, out, err = run(
        ["ile", "--field", "saddle", "--grid", "-1:1:5,-0.5:0.5:5", "--out", str(out_file),
         "--extract", "trench", f"{flag}={value}"],
        capsys,
    )
    assert code == 1
    assert flag in err and out == ""
    assert not out_file.exists()


def test_ile_threads_byte_identical(capsys, tmp_path):
    files = {}
    for threads in ("1", "3"):
        f = tmp_path / f"s1_{threads}.csv"
        g = tmp_path / f"s1_{threads}.pgm"
        code, _, _ = run(
            ["ile", "--field", "saddle", "--grid", "-1:1:24,-0.7:0.7:23",
             "--rate", "s1", "--out", str(f), "--pgm", str(g), "--threads", threads],
            capsys,
        )
        assert code == 0
        files[threads] = (f.read_bytes(), g.read_bytes())
    assert files["1"] == files["3"]


def test_ftle_threads_byte_identical(capsys, tmp_path):
    files = {}
    for threads in ("1", "4"):
        f = tmp_path / f"ftle_{threads}.csv"
        code, _, _ = run(
            ["ftle", "--field", "saddle", "--time", "-0.1", "--step", "1e-2",
             "--delta", "1e-5", "--grid", "-1:1:12,-0.6:0.6:11",
             "--out", str(f), "--threads", threads],
            capsys,
        )
        assert code == 0
        files[threads] = f.read_bytes()
    assert files["1"] == files["4"]


def test_ftle_values_against_formula(capsys, tmp_path):
    out_file = tmp_path / "ftle.csv"
    code, _, _ = run(
        ["ftle", "--field", "saddle", "--time", "-0.5", "--step", "1e-3",
         "--delta", "1e-5", "--grid", "0:1:3,0:0.5:3", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    rows = out_file.read_text().splitlines()[1:]
    t = -0.5
    for row in rows:
        x, y, v = (float(p) for p in row.split(","))
        denom = (1 - y * y) * math.exp(2 * t) + y * y
        expected = -math.log(math.exp(4 * t) / denom**3) / (2 * t)
        assert v == pytest.approx(expected, abs=1e-5)


def test_repeat_invocation_byte_identical(capsys, tmp_path):
    blobs = []
    for tag in ("a", "b"):
        f = tmp_path / f"{tag}.csv"
        code, out, _ = run(
            ["ile", "--field", "expr:x^2 - y;x*y", "--grid", "-2:2:7,-2:2:7",
             "--rate", "s2", "--out", str(f)],
            capsys,
        )
        assert code == 0
        blobs.append((f.read_bytes(), out))
    assert blobs[0] == blobs[1]


def test_pullback_command(capsys, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,0.3\n2.0,-0.1\n1.0,0.7\n")
    out_file = tmp_path / "phi.csv"
    code, field_json, _ = run(
        ["family", "transformed", "--lambda", "-1", "--coeffs", "-0.5"], capsys
    )
    field_file = tmp_path / "field.json"
    field_file.write_text(field_json)
    code, _, _ = run(
        ["pullback", "--field", str(field_file), "--line", "1,0,0,1", "--h", "1",
         "--lambda", "-1", "--points", str(pts), "--out", str(out_file), "--tmax", "10"],
        capsys,
    )
    assert code == 0
    rows = out_file.read_text().splitlines()
    assert rows[0] == "x,y,value"
    for row, x1 in zip(rows[1:], (0.5, 2.0, 1.0)):
        assert float(row.split(",")[2]) == pytest.approx(x1 * x1, abs=1e-8)


def test_pullback_polynomial_data_function(capsys, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("1.0,0.25\n")
    out_file = tmp_path / "phi.csv"
    code, _, _ = run(
        ["pullback", "--field", "expr:0.5*x;-0.5*y", "--line", "1,0,0,1",
         "--h", "s^2 + 1", "--lambda", "0", "--points", str(pts), "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    # the point sits on the line at parameter s = 0.25
    value = float(out_file.read_text().splitlines()[1].split(",")[2])
    assert value == pytest.approx(0.25**2 + 1.0, abs=1e-12)


@pytest.mark.parametrize("line", ["0,0.5,1.5e308,1.5e308", "0,0.5,1e-320,1e-320"])
def test_pullback_line_with_an_extreme_direction(capsys, tmp_path, line):
    # the first direction's norm overflowed to inf, so every value was h(0);
    # the second's subnormal norm was off in the 5th digit
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,0.25\n0.25,0.3\n0.3,1.2\n")
    outputs = []
    for direction in ("0,0.5,1,1", line):
        code, _, err = run(
            ["pullback", "--field", "expr:0.5*x;-0.5*y", "--line", direction, "--h", "s^2 + 1",
             "--lambda", "0.5", "--points", str(pts), "--out", str(tmp_path / "phi.csv")],
            capsys,
        )
        assert code == 0, err
        outputs.append((tmp_path / "phi.csv").read_bytes())
    assert outputs[1] == outputs[0]


def test_carleman_command(capsys):
    code, out, _ = run(
        ["carleman", "--lambda", "-1", "--c", "-1", "--x0", "1,0", "--time", "1"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["x1"] == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert obj["x2"] == pytest.approx(math.exp(-1.5), rel=1e-12)
    assert obj["s1_evolution_relative_error"] < 1e-12


def test_carleman_zero_start_reports_null(capsys):
    code, out, _ = run(
        ["carleman", "--lambda", "1", "--c", "1", "--x0", "0,1", "--time", "1"], capsys
    )
    assert code == 0
    assert json.loads(out)["s1_evolution_relative_error"] is None


def test_series_command(capsys):
    code, out, _ = run(["series", "--target", "3y2", "--N", "10", "--y", "0.5"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["coefficients"]) == 10
    assert obj["coefficients"][1] == pytest.approx(-1.0 / 3.0, abs=1e-14)
    last = obj["partial_sums"][-1]
    assert last["N"] == 10
    assert last["error"] <= 2.6e-5


def test_series_s1_target(capsys):
    code, out, _ = run(["series", "--target", "s1", "--N", "10", "--y", "0.5"], capsys)
    assert code == 0
    obj = json.loads(out)
    last = obj["partial_sums"][-1]
    assert last["value"] == pytest.approx(-0.25, abs=2.6e-5)


def test_series_y_target(capsys):
    code, out, _ = run(["series", "--target", "y", "--N", "8", "--y", "0.4"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["coefficients"][0] == pytest.approx(3.0**-0.5, abs=1e-12)
    assert obj["eigenvalues"][:2] == [-1.0, -3.0]
    assert obj["partial_sums"][-1]["error"] < 1e-3


def test_series_divergent_height(capsys):
    code, _, err = run(["series", "--target", "3y2", "--N", "5", "--y", "0.8"], capsys)
    assert code == 2
    assert "diverges" in err


def test_oned_command_trivial_case(capsys):
    code, out, _ = run(["oned", "--f", "x", "--xmin", "-1", "--xmax", "1", "--n", "201"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["lambda_trivial"] is True
    assert obj["lambda_star"] == 0.0


def test_oned_command_nontrivial(capsys):
    code, out, _ = run(
        ["oned", "--f", "x - x^3", "--xmin", "-1", "--xmax", "1", "--n", "201"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["lambda_trivial"] is False
    assert obj["resnorm"] > 0.1


def test_seventeen_digit_output(capsys):
    code, out, _ = run(
        ["family", "cubic", "--lambda", "2", "--c", "0.66666666666666663",
         "--k", "-0.33333333333333331", "--a00", "-2"],
        capsys,
    )
    assert code == 0
    assert "0.33333333333333331" in out


def test_usage_error_exit_code(capsys):
    code, _, err = run(["ile", "--field", "saddle", "--grid", "bogus", "--out", "x"], capsys)
    assert code == 1
    code, _, _ = run(["no-such-command"], capsys)
    assert code == 1
    code, _, _ = run(["ile", "--field", "saddle", "--grid", "0:1:5,0:1:5",
                      "--out", "x", "--unknown-flag"], capsys)
    assert code == 1


def test_bad_expression_exit_code(capsys, tmp_path):
    out_file = tmp_path / "out.csv"
    code, _, err = run(
        ["ile", "--field", "expr:x^-1;y", "--grid", "0:1:5,0:1:5", "--out", str(out_file)],
        capsys,
    )
    assert code == 1
    assert "exponent" in err


def test_domain_error_exit_code(capsys, tmp_path):
    out_file = tmp_path / "out.csv"
    code, _, err = run(
        ["ile", "--field", "saddle", "--grid", "0:1:5,0:2:5", "--out", str(out_file)],
        capsys,
    )
    assert code == 2
    assert "|y| < 1" in err


def test_keig_check_refuses_saddle_samples_outside_the_strip(capsys):
    # ile exits 2 on this box; keig-check printed a residual with exit 0
    code, out, err = run(["keig-check", "--field", "saddle", "--g", "x*y", "--lambda", "0",
                          "--box", "-1:1,-2:2"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: saddle field is only defined for |y| < 1 (got y=-1.8)\n"


@pytest.mark.parametrize(
    "term",
    ['{"i": 1, "j": 0, "c": NaN}', '{"i": 1, "j": 0, "c": Infinity}',
     '{"i": 1, "j": 0, "c": -1e999}', '{"i": -1, "j": 0, "c": 1}', '{"i": 1.7, "j": 0, "c": 1}',
     '{"i": 1, "j": true, "c": 1}', '{"i": 100000000, "j": 0, "c": 1}',
     # json.loads raised RecursionError, which printed a traceback
     pytest.param("[" * 100000 + "]" * 100000, id="nested-100000-deep")],
)
def test_bad_field_json_exit_code(capsys, tmp_path, monkeypatch, term):
    text = '{"kind": "polynomial", "p": [' + term + '], "q": [{"i": 0, "j": 1, "c": -1}]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    out_file = tmp_path / "out.csv"
    code, _, err = run(
        ["ile", "--field", "-", "--grid", "0:1:5,0:1:5", "--out", str(out_file)], capsys
    )
    assert code == 1
    assert err.startswith("error: ")
    assert not out_file.exists()


def test_non_ascii_digit_exit_code(capsys):
    code, out, err = run(["keig-check", "--field", "expr:x;y", "--g", "3\u0663*x",
                          "--lambda", "1"], capsys)
    assert (code, out) == (1, "")
    assert "non-ASCII character (at offset 1)" in err


def test_full_degree_polynomial_commands(capsys, tmp_path):
    # every monomial up to the degree cap: 2,145 terms, which overflowed the stack
    _, text = full_degree_terms()
    code, out, _ = run(["keig-check", "--field", "expr:x;y", "--g", text, "--lambda", "1",
                        "--exact"], capsys)
    assert code == 0
    # (x d/dx + y d/dy - 1) scales c*x^i*y^j by i + j - 1: only the linear terms vanish
    assert json.loads(out)["samples"] == 2145 - 2
    code, _, _ = run(["ile", "--field", f"expr:{text};y", "--grid", "0:0.5:4,0:0.5:4",
                      "--out", str(tmp_path / "out.csv")], capsys)
    assert code == 0
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 17


@pytest.mark.parametrize("expr", ["1e999*x", "(1e200)^2*x", "x - 1e300*1e300*y", "1^2000000*x"])
def test_overflowing_expression_exit_code(capsys, tmp_path, expr):
    out_file = tmp_path / "out.csv"
    code, _, err = run(
        ["ile", "--field", f"expr:{expr};y", "--grid", "0:1:5,0:1:5", "--out", str(out_file)],
        capsys,
    )
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["ftle", "--time", "inf"],
        ["ftle", "--time=-inf"],
        ["ftle", "--time", "nan"],
        ["ftle", "--time", "1e6", "--step", "1e-9"],
        ["ftle", "--time", "1e6", "--step", "1e-9", "--threads", "2"],
    ],
)
def test_bad_ftle_time_exit_code(capsys, tmp_path, argv):
    out_file = tmp_path / "ftle.csv"
    code, _, err = run(
        argv + ["--field", "saddle", "--grid", "-0.5:0.5:3,-0.5:0.5:3", "--out", str(out_file)],
        capsys,
    )
    assert code == 1
    assert "1e8 steps" in err


def test_ftle_delta_has_no_effect(capsys, tmp_path):
    # at x = +-1, 1 +- 1e-17 rounds back to 1, which once collapsed the
    # finite difference; the tangent step takes no offset
    outputs = []
    for extra in ([], ["--delta", "1e-17"], ["--delta", "1e-5"]):
        out_file = tmp_path / "f.csv"
        code, out, err = run(["ftle", "--field", "saddle", "--grid=-1:1:3,-0.5:0.5:3", "--time",
                              "0.01", *extra, "--out", str(out_file)], capsys)
        assert (code, out, err) == (0, "", "")
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_underflowing_ftle_exit_code(capsys, tmp_path):
    # the flow-map gradient underflows to 0: a clamp on log 0 printed
    # -345.38776394910684 at every node
    out_file = tmp_path / "f.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["ftle", "--field", "expr:-1000*x;-1000*y", "--time", "1",
                              "--step", "1e-3", "--delta", "1e-5", "--grid=-1:1:3,-1:1:3",
                              "--out", str(out_file)], capsys)
    assert (code, out, err) == (2, "", "error: FTLE is not finite at some grid node\n")
    assert not out_file.exists()
    # log(0) = -inf is the documented value, not a numpy warning
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "extra", [["--tmax", "inf"], ["--tmax", "nan"], ["--tmax", "0"], ["--tmax", "-1"],
              ["--tmax", "1e6", "--step", "1e-9"]]
)
def test_bad_pullback_tmax_exit_code(capsys, tmp_path, extra):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,0.2\n")
    code, _, err = run(
        ["pullback", "--field", "saddle", "--line", "0,0.5,1,0", "--h", "1", "--lambda", "-1",
         "--points", str(pts), "--out", str(tmp_path / "phi.csv")] + extra,
        capsys,
    )
    assert code == 1
    assert err.startswith("error: ")


def _run_process(argv, stdin_bytes=None):
    # The child imports the same ilekoop as this process, installed or not.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ilekoop.cli", *argv],
        input=stdin_bytes,
        capture_output=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_subprocess_pipe_round_trip(tmp_path):
    # real OS pipe: family output fed to ile over stdin
    fam = _run_process(["family", "quadratic", "--lambda", "1", "--a20", "1"])
    assert fam.returncode == 0
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    field_file = tmp_path / "field.json"
    field_file.write_bytes(fam.stdout)
    direct = _run_process(
        ["ile", "--field", str(field_file), "--grid", "0:1:7,0:1:7", "--rate", "s2",
         "--out", str(out_a)]
    )
    piped = _run_process(
        ["ile", "--field", "-", "--grid", "0:1:7,0:1:7", "--rate", "s2", "--out", str(out_b)],
        stdin_bytes=fam.stdout,
    )
    assert direct.returncode == 0 and piped.returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_subprocess_runs_are_byte_identical(tmp_path):
    # separate interpreters (fresh hash seeds) must emit identical bytes
    blobs = []
    for tag in ("a", "b"):
        f = tmp_path / f"{tag}.csv"
        proc = _run_process(
            ["ile", "--field", "expr:x^2 - y;x*y", "--grid", "-2:2:9,-2:2:9",
             "--rate", "s1", "--out", str(f), "--extract", "trench"]
        )
        assert proc.returncode == 0
        blobs.append((f.read_bytes(), proc.stdout))
    assert blobs[0] == blobs[1]
    series_runs = {
        _run_process(["series", "--target", "s1", "--N", "8", "--y", "0.4"]).stdout
        for _ in range(2)
    }
    assert len(series_runs) == 1


def test_subprocess_exit_codes():
    assert _run_process(["ile", "--field", "saddle"]).returncode == 1
    bad_domain = _run_process(
        ["ile", "--field", "saddle", "--grid", "0:1:4,0:2:4", "--out", "/dev/null"]
    )
    assert bad_domain.returncode == 2


def test_pgm_output(capsys, tmp_path):
    csv_file = tmp_path / "f.csv"
    pgm_file = tmp_path / "f.pgm"
    code, _, _ = run(
        ["ile", "--field", "saddle", "--grid", "-1:1:4,-0.5:0.5:3",
         "--rate", "s1", "--out", str(csv_file), "--pgm", str(pgm_file)],
        capsys,
    )
    assert code == 0
    lines = pgm_file.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "4 3"
    assert lines[2] == "255"
    assert len(lines) == 6


def test_pullback_failure_leaves_no_output(capsys, tmp_path):
    # The second point has no crossing; the first one succeeds on its own.
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,0.2\n0.1,0.0\n")
    out_file = tmp_path / "phi.csv"
    code, out, err = run(
        ["pullback", "--field", "saddle", "--line", "0,0.5,1,0", "--h", "1", "--lambda", "-1",
         "--points", str(pts), "--out", str(out_file)],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""
    assert not out_file.exists()


def test_cached_parser_gives_standalone_results(capsys):
    """The parser is built once per process; earlier requests, including a
    usage error, must not change what a later one prints."""
    requests = [
        ["ile", "--field", "saddle", "--grid", "0:1:5,0:1:5", "--out", "x", "--bogus"],
        ["series", "--target", "s1", "--N", "3", "--y", "0.25"],
        ["oned", "--f", "x - x^3", "--xmin", "-1", "--xmax", "1", "--n", "7"],
    ]
    alone = []
    for argv in requests:
        cli._parser.cache_clear()
        alone.append(run(argv, capsys))
    cli._parser.cache_clear()
    together = [run(argv, capsys) for argv in requests]
    assert together == alone
    assert [code for code, _, _ in alone] == [1, 0, 0]


def _reference_extract_json(sf, mode, grad_tol, curv_tol):
    hits = strain.extract_extremal_set(sf, mode, grad_tol, curv_tol)
    xs, ys = sf.grid.xs(), sf.grid.ys()
    return cli._json_text(
        {
            "mode": mode,
            "grad_tol": grad_tol,
            "curv_tol": curv_tol,
            "points": [
                {"ix": ix, "iy": iy, "x": float(xs[ix]), "y": float(ys[iy])} for ix, iy in hits
            ],
        }
    ) + "\n"


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from(["saddle", "expr:x*y - y^3;x^2 + 0.3*y", "expr:0.5*x;-0.5*y"]),
    x0=st.floats(-1.0, 0.0),
    y0=st.floats(-0.9, 0.0),
    nx=st.integers(3, 30),
    ny=st.integers(3, 30),
    mode=st.sampled_from(["trench", "ridge"]),
    grad_tol=st.one_of(st.none(), st.floats(1e-3, 10.0)),
)
def test_extract_json_matches_generic_rendering(
    field, x0, y0, nx, ny, mode, grad_tol, tmp_path_factory
):
    out_file = tmp_path_factory.mktemp("ile") / "s1.csv"
    grid_text = f"{x0!r}:{x0 + 1.7!r}:{nx},{y0!r}:{y0 + 0.8!r}:{ny}"
    argv = ["ile", "--field", field, "--grid", grid_text, "--out", str(out_file),
            "--extract", mode]
    if grad_tol is not None:
        argv += ["--grad-tol", repr(grad_tol)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run_command(argv) == 0
    sf = strain.rate_field(cli._load_field(field), cli._parse_grid(grid_text))
    tol = grad_tol if grad_tol is not None else strain.default_grad_tol(sf)
    assert stdout.getvalue() == _reference_extract_json(sf, mode, tol, 1e-6)


# -- arithmetic failures, non-finite numbers and the series range -------------

NF_FIELD = "expr:-0.5*x;x - 0.5*y - 0.5*x^3"  # the normal form with lam = -1, c3 = -0.5


@pytest.mark.parametrize(
    "argv",
    [
        ["carleman", "--lambda", "1", "--c", "1", "--x0", "1,0", "--time", "1e6"],
        ["carleman", "--lambda", "1e308", "--c", "1", "--x0", "1,0", "--time", "10"],
        ["family", "cubic", "--lambda", "1", "--c", "1", "--k", "1e-320", "--a00", "0"],
    ],
)
def test_arithmetic_error_exit_code(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_pullback_overflow_exit_code(capsys, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,0.2\n")  # the backward orbit meets x1 = 1 at t = -2 ln 2
    out_file = tmp_path / "phi.csv"
    code, _, err = run(
        ["pullback", "--field", NF_FIELD, "--line", "1,0,0,1", "--h", "1", "--lambda", "1000",
         "--points", str(pts), "--out", str(out_file)],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out_file.exists()


def test_arithmetic_errors_map_to_exit_2(capsys, monkeypatch):
    # the y decomposition overflows in 3.0 ** (power / 2.0) past N ~ 1000,
    # which --N no longer reaches; the mapping itself is checked here
    def overflow(*_):
        raise OverflowError("math range error")

    monkeypatch.setattr(series, "decompose_monomial", overflow)
    code, _, err = run(["series", "--target", "y", "--N", "5", "--y", "0.3"], capsys)
    assert (code, err) == (2, "error: math range error\n")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["family", "cubic", "--lambda", "nan", "--c", "1", "--k", "1", "--a00", "0"], "--lambda"),
        (["family", "transformed", "--lambda", "inf", "--coeffs", "1"], "--lambda"),
        (["family", "transformed", "--lambda", "1", "--coeffs", "1,nan"], "--coeffs"),
        (["family", "quadratic", "--lambda", "1", "--a20=-inf"], "--a20"),
        (["carleman", "--lambda", "nan", "--c", "1", "--x0", "1,0", "--time", "1"], "--lambda"),
        (["carleman", "--lambda", "1", "--c", "1", "--x0", "nan,0", "--time", "1"], "--x0"),
        (["carleman", "--lambda", "1", "--c", "1", "--x0", "1,0", "--time", "inf"], "--time"),
        (["keig-check", "--field", "saddle", "--g", "x", "--lambda", "nan", "--exact"],
         "--lambda"),
        (["keig-check", "--field", "saddle", "--g", "x", "--lambda", "1", "--box",
          "-1:inf,-0.5:0.5"], "--box"),
        (["oned", "--f", "x^3", "--xmin", "nan", "--xmax", "1", "--n", "3"], "--xmin"),
        (["series", "--target", "s1", "--N", "3", "--y", "nan"], "--y"),
        (["ftle", "--field", "saddle", "--time", "0.1", "--step", "nan", "--grid",
          "-0.5:0.5:3,-0.5:0.5:3", "--out", "never.csv"], "--step"),
        (["ile", "--field", "saddle", "--grid", "-inf:1:3,-0.5:0.5:3", "--out", "never.csv"],
         "--grid"),
    ],
)
def test_nonfinite_number_exit_code(capsys, argv, flag):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error: ") and flag in err
    assert out == ""
    assert not os.path.exists("never.csv")


@pytest.mark.parametrize(
    "option,value",
    [("--h", "nan"), ("--line", "1,0,inf,1"), ("--lambda", "nan"), ("--step", "inf"),
     ("--points", None)],
)
def test_pullback_nonfinite_number_exit_code(capsys, tmp_path, option, value):
    pts = tmp_path / "pts.csv"
    pts.write_text("1.5,nan\n" if value is None else "1.5,0.2\n")
    out_file = tmp_path / "phi.csv"
    args = {"--field": NF_FIELD, "--line": "1,0,0,1", "--h": "1", "--lambda": "-1",
            "--points": str(pts), "--out": str(out_file)}
    if value is not None:
        args[option] = value
    argv = ["pullback"] + [f"{k}={v}" for k, v in args.items()]
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error: ") and option in err
    assert not out_file.exists()


def test_nonfinite_result_exit_code(capsys):
    # finite inputs whose result overflows: refused before anything is printed
    code, out, err = run(["oned", "--f", "x^3", "--xmin", "-1e200", "--xmax", "1e200",
                          "--n", "5"], capsys)
    assert code == 2
    assert err.startswith("error: ") and out == ""
    with pytest.raises(NumericalError):
        cli._json_text({"value": [1.0, math.nan]})


@pytest.mark.parametrize("n", ["0", "-1", "65", "1000"])
@pytest.mark.parametrize("target", ["s1", "3y2", "y"])
def test_series_n_range(capsys, target, n):
    code, out, err = run(["series", "--target", target, "--N", n, "--y", "0.3"], capsys)
    assert code == 1
    assert err.startswith("error: ") and "--N" in err and out == ""


@pytest.mark.parametrize("target", ["s1", "3y2", "y"])
def test_series_n_range_ends(capsys, target):
    for n in ("1", "64"):
        code, out, _ = run(["series", "--target", target, "--N", n, "--y", "0.3"], capsys)
        assert code == 0
        assert len(json.loads(out)["partial_sums"]) == int(n)


@pytest.mark.parametrize("argv,flag", [
    (["keig-check", "--field", "saddle", "--g", "x*y", "--lambda", "1", "--samples"], "--samples"),
    (["oned", "--f", "x - x^3", "--xmin", "-1", "--xmax", "1", "--n"], "--n"),
])
def test_sample_counts_are_capped(capsys, monkeypatch, argv, flag):
    """At the cap the command samples that many points (the sampled report
    only counts them here, to stay cheap); one more is a usage error."""
    from ilekoop import families, koopman
    seen = []
    monkeypatch.setattr(koopman, "residual_report",
                        lambda f, cand, pts: seen.append(len(pts)) or {"samples": len(pts)})
    monkeypatch.setattr(families, "one_d_residual",
                        lambda fpoly, lam, xs: seen.append(len(xs)) or (0.0, 0.0))
    cap = cli._MAX_SAMPLES
    code, out, err = run([*argv, str(cap)], capsys)
    assert (code, err) == (0, "") and json.loads(out) and set(seen) == {cap}
    seen.clear()
    code, out, err = run([*argv, str(cap + 1)], capsys)
    assert (code, out, seen) == (1, "", [])
    assert err.startswith(f"error: {flag} must be ") and str(cap + 1) in err
    assert err.count("\n") == 1


def _old_series_sums(target, n_max, y):
    """The per-N loop the series command used to run, with the old formulas."""
    if target == "y":
        terms = decompose_monomial(0, 1, n_max)
        sums = []
        for n in range(1, n_max + 1):
            total = 0.0
            for lam, c in terms[:n]:
                total += c * _old_monomial_eigenfunction(0, lam, 1.0, y)
            sums.append(total)
        return sums
    offset = -1.0 if target == "s1" else 0.0
    return [offset + _old_partial_sum(n, y) for n in range(1, n_max + 1)]


@pytest.mark.parametrize("target", ["s1", "3y2", "y"])
def test_series_partial_sums_equal_per_n_loop(capsys, target):
    for y in (-0.45, 0.0, 0.3, 0.5):
        for n_max in (1, 2, 7, 12, 20, 28):
            code, out, _ = run(
                ["series", "--target", target, "--N", str(n_max), f"--y={y!r}"], capsys
            )
            assert code == 0
            got = [row["value"] for row in json.loads(out)["partial_sums"]]
            want = _old_series_sums(target, n_max, y)
            assert [float(v).hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("argv", [
    ["ile", "--field", "expr:x*y - y^3;x^2 + 0.3*y", "--grid=-1.0:0.5:3,-1e+308:0.4:3"],
    ["ftle", "--field", "expr:360*x;0", "--time", "1", "--grid", "0:1:3,0:1:3"],
])
def test_overflowing_grid_result_exit_code(capsys, tmp_path, argv):
    # finite inputs whose rate or FTLE overflows: a numeric error, not a usage error
    out_file = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, out, err = run([*argv, "--out", str(out_file)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("is not finite at some grid node\n")
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["ile", "ftle"])
@pytest.mark.parametrize("grid", ["-0.5:0.5:2,-1e+308:1e+308:2", "-1.7e308:1.7e308:3,0:1:3"])
def test_overflowing_grid_span_exit_code(capsys, tmp_path, command, grid):
    # np.linspace would give such an axis a NaN node, found only once --out was open
    argv = [command, "--field", "expr:0.5*x;-0.5*y", f"--grid={grid}"]
    if command == "ftle":
        argv += ["--time", "-0.05"]
    out_file = tmp_path / "x.csv"
    code, out, err = run([*argv, "--out", str(out_file)], capsys)
    assert (code, out, err) == (2, "", "error: grid width or height overflows a double\n")
    assert not out_file.exists()


@pytest.mark.parametrize("value", ["0", "-5"])
def test_keig_check_samples_must_be_positive(capsys, value):
    code, out, err = run(["keig-check", "--field", "saddle", "--g", "x*y", "--lambda", "1",
                          "--samples", value], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: argument --samples: ") and err.count("\n") == 1


def test_carleman_overflow_is_one_error_line(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            ["carleman", "--lambda", "1e308", "--c", "1", "--x0", "1,0", "--time", "10"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: normal-form endpoint overflows a double\n"


@pytest.mark.parametrize("argv,code", [
    # extraction needs a 3x3 grid
    (["ile", "--field", "saddle", "--grid", "-1:1:2,-0.5:0.5:5", "--extract", "ridge"], 1),
    # the default grad_tol overflows, so the JSON cannot be written
    (["ile", "--field", "expr:1e150*x^3;0", "--grid", "0:1:3,0:2e-161:3", "--rate", "s2",
      "--extract", "ridge"], 2),
])
def test_ile_extract_failure_leaves_no_output(capsys, tmp_path, argv, code):
    csv, pgm = tmp_path / "z.csv", tmp_path / "z.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got, out, err = run([*argv, "--out", str(csv), "--pgm", str(pgm)], capsys)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not csv.exists() and not pgm.exists()


def test_pullback_crossing_past_tmax_exit_code(capsys, tmp_path):
    # the march's last 0.003 step ends at 0.702 > --tmax; the crossing at 0.701 is none
    pts = tmp_path / "pts.csv"
    pts.write_text(f"{math.exp(-0.3505)!r},0.2\n")
    out_file = tmp_path / "phi.csv"
    code, out, err = run(
        ["pullback", "--field", NF_FIELD, "--line", "1,0,0,1", "--h", "1", "--lambda", "-1",
         "--points", str(pts), "--out", str(out_file), "--step", "0.003", "--tmax", "0.7"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: orbit from ") and err.count("\n") == 1
    assert not out_file.exists()


@pytest.mark.parametrize("message,shown", [
    ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type "
     "float64", "Unable to allocate 74.5 GiB"),
    ("", "out of memory"),
])
@pytest.mark.parametrize("command", ["ile", "ftle"])
def test_memory_error_exit_code(capsys, tmp_path, monkeypatch, command, message, shown):
    # a grid too large for memory fails in the grid sampler; nothing is allocated here
    def no_memory(*_):
        raise MemoryError(message) if message else MemoryError

    module = strain if command == "ile" else flowmap
    monkeypatch.setattr(module, "_sample_grid", no_memory)
    argv = ["--field", "saddle", "--grid", "0:0.5:100000,0:0.5:100000"]
    if command == "ftle":
        argv += ["--time", "-0.05"]
    out_file = tmp_path / "x.csv"
    code, out, err = run([command, *argv, "--out", str(out_file)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {shown}") and err.count("\n") == 1
    assert not out_file.exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["ile", "--field", "saddle", "--grid", "-1:1:3,-0.5:0.5:3"],
    ["ftle", "--field", "saddle", "--time", "0.1", "--grid", "-0.5:0.5:3,-0.5:0.5:3"],
])
def test_threads_below_one_exit_code(capsys, tmp_path, argv, threads):
    out_file, pgm_file = tmp_path / "t.csv", tmp_path / "t.pgm"
    code, out, err = run(
        argv + ["--out", str(out_file), "--pgm", str(pgm_file), "--threads", threads], capsys)
    assert code == 1
    assert out == ""
    assert "--threads" in err and "must be at least 1" in err
    assert not out_file.exists() and not pgm_file.exists()


@pytest.mark.parametrize("point", ["0.3,1.5", "0.3,1.6"])
def test_saddle_pullback_outside_the_strip_exit_code(capsys, tmp_path, point):
    # 0.3,1.5 lies on the line; it used to return h there instead of failing
    pts = tmp_path / "pts.csv"
    pts.write_text(point + "\n")
    out_file = tmp_path / "phi.csv"
    code, out, err = run(
        ["pullback", "--field", "saddle", "--line", "0,1.5,1,0", "--h", "1", "--lambda", "1",
         "--points", str(pts), "--out", str(out_file)],
        capsys,
    )
    assert (code, out) == (2, "")
    y = point.split(",")[1]
    assert err == f"error: saddle field is only defined for |y| < 1 (got y={y})\n"
    assert not out_file.exists()


@pytest.mark.parametrize("argv,message", [
    *[(["keig-check", "--field", "saddle", "--g", "x*y", "--lambda", "1", "--box", box],
       "--box must satisfy xmin < xmax and ymin < ymax")
      for box in ("1:0,0:1", "0:1,1:0", "0:0,0:1", "0:0,0:0")],
    *[(["oned", "--f", "x - x^3", "--xmin", "1", "--xmax", xmax, "--n", "5"],
       "--xmin must be less than --xmax") for xmax in ("1", "-1")],
])
def test_empty_range_exit_code(capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("box", ["-1e308:1e308,-1:1", "-1:1,-1.7e308:1.7e308"])
def test_overflowing_box_exit_code(capsys, box):
    # every sample would sit at an infinite coordinate, where x - x reads 0
    code, out, err = run(["keig-check", "--field", "expr:x;y", "--g", "x", "--lambda", "1",
                          f"--box={box}"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --box width or height overflows a double\n"
