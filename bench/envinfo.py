"""The environment block recorded beside every baseline and trace."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy

_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads")


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS would use, asked from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line and ".so" in line.rsplit("/", 1)[-1]}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    blas = _blas_threads()
    omp = os.environ.get("OMP_NUM_THREADS")
    longdouble_eps = float(np.finfo(np.longdouble).eps)
    fft_dtype = np.fft.fft(np.ones(4, dtype=np.clongdouble)).dtype
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": nproc,
        "blas_threads": None if blas is None else min(blas, nproc),
        "omp_threads": None if omp is None else min(int(omp.split(",")[0]), nproc),
        "complex256_available": hasattr(np, "complex256"),
        "longdouble_eps": longdouble_eps,
        "complex256_is_extended": longdouble_eps < 1e-16,
        "fft_preserves_clongdouble": fft_dtype == np.dtype(np.clongdouble),
    }
