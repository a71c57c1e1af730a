"""The threading policy: the package's workers own the cores, numpy's
OpenBLAS runs on one thread, and the automatic worker count follows the
process's CPU affinity."""

import ctypes
import os
import subprocess
import sys

import pytest

from grushin import _util


def _openblas_threads(lib):
    getter = lib.scipy_openblas_get_num_threads64_
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return getter()


def _bundled_openblas():
    lib = _util._numpy_openblas()
    if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy is not built on its bundled OpenBLAS")
    return lib


def test_import_sets_numpy_openblas_to_one_thread():
    _bundled_openblas()
    # a fresh process: OpenBLAS starts at its own default, then grushin pins it
    code = ("from grushin import _util\n"
            "lib = _util._numpy_openblas()\n"
            "print(lib.scipy_openblas_get_num_threads64_())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["1"]
    assert _openblas_threads(_bundled_openblas()) == 1


def test_without_openblas_the_pin_does_nothing(monkeypatch, tmp_path):
    # a file the loader rejects, named like the library; then no directory
    (tmp_path / "libscipy_openblas64_-junk.so").write_bytes(b"not a library")
    for libs in (tmp_path, tmp_path / "missing"):
        monkeypatch.setattr(_util, "_NUMPY_LIBS", str(libs))
        assert _util._numpy_openblas() is None
        assert _util.pin_numpy_blas() is None


def test_the_pin_reaches_only_numpys_libs(monkeypatch, tmp_path):
    lib = _bundled_openblas()
    setter = lib.scipy_openblas_set_num_threads64_
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(2)
    try:
        monkeypatch.setattr(_util, "_NUMPY_LIBS", str(tmp_path))
        _util.pin_numpy_blas()
        assert _openblas_threads(lib) == 2
        monkeypatch.undo()
        _util.pin_numpy_blas()
        assert _openblas_threads(lib) == 1
    finally:
        setter(1)


def test_automatic_thread_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("GRUSHIN_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _util.thread_count() == 1
    # many allowed cores: still capped at 8 (no thread is started)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert _util.thread_count() == 8
    # without an affinity call, the core count, capped the same way
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _util.thread_count() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _util.thread_count() == 1
