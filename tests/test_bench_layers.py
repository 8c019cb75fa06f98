"""bench/layers.py patches package attributes by name for ``bench/run.py
--trace 1``; every one must exist, and uninstalling must restore it."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_layers", Path(__file__).resolve().parents[1] / "bench" / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)


def test_tracer_patches_and_restores_every_attribute():
    tracer = layers.Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert patched and all(owner.__dict__[attr] is original for owner, attr, original in patched)


def test_traced_ftle_request_counts_rk4_steps(tmp_path):
    """A traced ``ftle`` request, with the ``--delta`` the benchmark passes,
    runs, and ``_rk4_steps`` finds the integrator config in ``ftle_field``'s
    fifth argument."""
    from ilekoop import cli

    tracer = layers.Tracer()
    try:
        tracer.install()
        code = cli.run_command(["ftle", "--field", "saddle", "--time", "-0.01", "--step", "1e-3",
                                "--delta", "1e-5", "--grid", "-0.5:0.5:3,-0.5:0.5:3",
                                "--out", str(tmp_path / "f.csv"), "--threads", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts["flowmap.ftle_field.rk4_steps"] > 0
