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
