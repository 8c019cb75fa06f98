"""Compiled kernels build into one scratch cache per test session, so the
random term structures of the property tests never fill the package's
``__pycache__``.  A test that sets ``_native._CACHE`` itself still can."""

import pytest

from ilekoop import _native


@pytest.fixture(autouse=True, scope="session")
def _scratch_kernel_cache(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "_CACHE", tmp_path_factory.mktemp("kernels"))
        yield
