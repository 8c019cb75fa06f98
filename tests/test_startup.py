"""What a fresh ``ilekoop`` process loads.  The exact-algebra commands, the
pullback, --help and usage errors never load numpy; the array and integration
commands load it and still print the bytes they did when every command loaded
it.  Only the grid commands and the pullback load the compiled kernels
(``ilekoop._native``, which brings ``ctypes`` but not numpy).  No command
loads ``dataclasses``, those without numpy never load ``inspect``, and those
without numpy or kernels never load ``ctypes``.  The commands are those
``tools/startup.py`` times.  The fresh processes run a copy of the package,
so the kernels they build never land in the package's ``__pycache__``."""

import ast
import hashlib
import importlib
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ilekoop

SRC = Path(ilekoop.__file__).resolve().parents[1]
TOOLS = SRC.parent / "tools"

_spec = importlib.util.spec_from_file_location("startup", TOOLS / "startup.py")
startup = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(startup)

#: Standard-library modules that cost start-up time and that the package
#: itself never needs; ``inspect`` comes with numpy.
SLOW_STDLIB = ("dataclasses", "inspect")

# At exit, the last stderr line lists the loaded modules.
_LOADED = """import atexit, sys
atexit.register(lambda: sys.stderr.write("\\nloaded " + " ".join(sorted(
    m for m in sys.modules
    if m.partition(".")[0] in ("ilekoop", "numpy", "ctypes") + %r and m.count(".") < 2))))
""" % (SLOW_STDLIB,)

# Runs the entry point, then lists the loaded modules.
_PROBE = _LOADED + "from ilekoop.cli import main\nmain()\n"


def _package_kernels() -> set:
    """The compiled kernels cached in the package's own ``__pycache__``."""
    return {path.name for path in (SRC / "ilekoop" / "__pycache__").glob("*.so")}


@pytest.fixture(scope="module", autouse=True)
def package_kernels() -> set:
    """The package's cached kernels before this module's first test."""
    return _package_kernels()


@pytest.fixture(scope="module")
def tree(tmp_path_factory) -> Path:
    """A source tree holding a copy of the package without its
    ``__pycache__``, which every fresh process imports."""
    root = tmp_path_factory.mktemp("tree")
    shutil.copytree(SRC / "ilekoop", root / "src" / "ilekoop",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def fresh(argv, cwd, tree: Path, code: str = _PROBE):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def loaded(proc) -> set:
    last = proc.stderr.rpartition("\n")[2]
    assert last.startswith("loaded "), proc.stderr
    return set(last.split()[1:])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, tree):
    """The tool's scratch directory: field.json, nf.json and pts.csv."""
    return startup.Tree(tree, tmp_path_factory.mktemp("startup") / "work").work


def test_importing_the_cli_loads_errors_and_expr_only(tmp_path, tree):
    proc = fresh([], tmp_path, tree,
                 "import sys, ilekoop.cli\nprint(' '.join(sorted(sys.modules)))")
    modules = set(proc.stdout.split())
    assert {m for m in modules if m.startswith("ilekoop")} == {
        "ilekoop", "ilekoop.cli", "ilekoop.errors", "ilekoop.expr"}
    assert "numpy" not in modules and "ctypes" not in modules
    assert not modules.intersection(SLOW_STDLIB)


def test_a_float_point_ftle_loads_no_compiled_step(tmp_path, tree):
    """A float-only caller never pays for a C build: one point's FTLE loads
    neither ``ilekoop._native`` nor any module that its imports did not
    already load (numpy itself brings ``ctypes``, so only the call is held
    to that)."""
    code = ("import sys\nfrom ilekoop.flowmap import IntegratorConfig, ftle\n"
            "from ilekoop.vectorfield import VectorField2D\n"
            "before = set(sys.modules)\n"
            "print(ftle(VectorField2D.saddle(), (0.3, 0.2), -0.5, IntegratorConfig()))\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
            "print('ilekoop._native' in sys.modules)")
    proc = fresh([], tmp_path, tree, code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[1:] == ["", "False", ""]


def test_no_module_imports_dataclasses_or_typing():
    for path in sorted((SRC / "ilekoop").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] not in ("dataclasses", "typing"), path.name


#: The commands that load numpy; every other command of the tool must not.
NUMPY = {"ile", "ftle", "carleman"}

#: The commands that load the compiled kernels: grids step or write CSV, and
#: the pullback marches.
NATIVE = {"ile", "ftle", "pullback"}

# SHA-256 of stdout and then each output file, as printed when every command
# loaded every module.
PINNED = {
    "ile": "89cf87c573d305eefb522cfa15ef3ee9fc0b2090c92ad3bd40a4e1903c307d6c",
    "ftle": "536fa43400ad9bc980aae10a10fd0882e97b4ec8cffa2eaddc8dd175087728f2",
    "pullback": "6a77c7a9ce3b31cbcb98cd30cfd96ea06e86ece28ef382ded6c33710f0eadf65",
    "carleman": "6a7e9e9b2f3bd3d71a3fc841eeadb1ec997b12aa74f57a6bd8d45d0f82328e23",
}


@pytest.mark.parametrize("name", startup.COMMANDS)
def test_tool_commands_load_numpy_only_for_arrays(inputs, tree, name):
    argv, outputs = startup.COMMANDS[name]
    if argv is None:  # the import probe, which prints its time
        proc = fresh([], inputs, tree, _LOADED + startup.IMPORT_PROBE)
        assert float(proc.stdout) > 0.0
    else:
        proc = fresh(argv, inputs, tree)
    assert proc.returncode == (1 if name == "usage-error" else 0), proc.stderr
    modules = loaded(proc)
    assert ("numpy" in modules) == (name in NUMPY)
    assert ("ilekoop._native" in modules) == (name in NATIVE)
    assert "dataclasses" not in modules
    assert name in NUMPY or "inspect" not in modules
    assert name in NUMPY | NATIVE or "ctypes" not in modules
    if name in PINNED:
        h = hashlib.sha256(proc.stdout.encode())
        for path in outputs:
            h.update((inputs / path).read_bytes())
        assert h.hexdigest() == PINNED[name]


@pytest.mark.parametrize("argv,code", [
    (["nosuchcommand"], 1),
    (["family", "quadratic", "--lambda", "1", "--a20", "1"], 0),
    (["keig-check", "--field", "saddle", "--g", "x*y", "--lambda", "1", "--exact"], 0),
    (["series", "--target", "y", "--N", "8", "--y", "0.25"], 0),
    (["series", "--target", "y", "--N", "8", "--y", "0.9"], 2),
])
def test_more_exact_commands_never_load_numpy(inputs, tree, argv, code):
    proc = fresh(argv, inputs, tree)
    assert proc.returncode == code, proc.stderr
    assert not loaded(proc).intersection(("numpy", "ilekoop._native", "ctypes") + SLOW_STDLIB)


def test_startup_tool_smoke(tree):
    # one repeat of two commands, this tree against itself
    proc = subprocess.run([sys.executable, str(TOOLS / "startup.py"), "--parent", str(tree),
                           "--change", str(tree), "--repeats", "1",
                           "--only", "family-cubic,oned,cli-import"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split()[0] for line in proc.stdout.splitlines()[1:]]
    assert rows == ["family-cubic", "oned", "cli-import"], proc.stdout
    assert "MISMATCH" not in proc.stdout


def test_startup_tool_reports_changed_bytes(tmp_path, tree):
    # a tree whose numbers print with 16 digits differs from this one
    changed = tmp_path / "changed"
    shutil.copytree(SRC / "ilekoop", changed / "src" / "ilekoop",
                    ignore=shutil.ignore_patterns("__pycache__"))
    expr = changed / "src" / "ilekoop" / "expr.py"
    text = expr.read_text()
    assert text.count('f"{v:.17g}"') == 1
    expr.write_text(text.replace('f"{v:.17g}"', 'f"{v:.16g}"'))
    proc = subprocess.run([sys.executable, str(TOOLS / "startup.py"), "--parent", str(tree),
                           "--change", str(changed), "--repeats", "1", "--only", "oned"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert "MISMATCH oned: change differs from parent" in proc.stdout


# -- the lazy package ------------------------------------------------------------

#: What ``from ilekoop import *`` bound when the package imported every module.
STAR_NAMES = {
    "CarlemanModel", "CubicParams", "DataSurface", "DomainError", "Grid2D", "IntegratorConfig",
    "KeigCandidate", "NoCrossingError", "NumericalError", "ParseError", "Poly2",
    "QuadraticParams", "SaddleEigenfunction", "ScalarField", "SeriesTerm", "SymTensor2",
    "Trajectory", "VectorField2D", "analytic_saddle_flow", "attraction_series_coefficients",
    "best_lambda", "carleman_solve", "cauchy_green", "claimed_s1_report",
    "cubic_attraction_rate", "decompose_monomial", "equilibrium_and_r_solution", "errors",
    "evolution_check", "expr", "extract_extremal_set", "families", "field_from_json",
    "field_to_json", "flow_endpoint", "flowmap", "ftle", "ftle_field", "generator_apply",
    "geometric_tail_bound", "greedy_series_coefficients", "integrate",
    "keig_condition_residual", "keig_residual", "koopman", "make_cubic_family",
    "make_quadratic_family", "make_transformed_family", "monomial_eigenfunction",
    "monomial_partial_sum", "one_d_residual", "parse_expression", "parse_polynomial",
    "partial_sum_check", "phi_minus_2k", "pullback_eigenfunction", "quadratic_repulsion_rate",
    "rate_field", "residual_report", "s1_evolution_check", "saddle_cauchy_green",
    "saddle_eigenfunction", "saddle_ftle", "series", "series_term", "shear_free_defect",
    "strain", "strain_rates", "strain_tensor", "to_polynomial", "to_text",
    "transformed_claimed_attraction_rate", "vectorfield", "write_csv", "write_pgm",
}


def test_star_import_binds_the_same_names():
    namespace = {}
    exec("from ilekoop import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR_NAMES == set(ilekoop.__all__)
    assert STAR_NAMES <= set(dir(ilekoop))


def test_exported_names_are_the_defining_modules_objects():
    modules = {"errors", "expr", "families", "flowmap", "koopman", "series", "strain",
               "vectorfield"}
    for name in ilekoop.__all__:
        value = getattr(ilekoop, name)
        if name in modules:
            assert value is importlib.import_module(f"ilekoop.{name}")
        else:
            assert value.__module__[len("ilekoop."):] in modules, name
            assert value is getattr(sys.modules[value.__module__], name), name


def test_submodule_resolves_on_first_access(tmp_path, tree):
    proc = fresh([], tmp_path, tree, "import sys, ilekoop\n"
                 "print('ilekoop.flowmap' in sys.modules, ilekoop.flowmap.__name__,\n"
                 "      ilekoop.saddle_ftle is sys.modules['ilekoop.flowmap'].saddle_ftle)")
    assert proc.stdout.split() == ["False", "ilekoop.flowmap", "True"], proc.stderr


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ilekoop.no_such_name
    assert not hasattr(ilekoop, "_no_such_private")


def test_fresh_processes_leave_the_package_kernels_alone(package_kernels):
    assert _package_kernels() == package_kernels
