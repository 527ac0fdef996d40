"""What a run record says about the machine and the numeric stack."""

from __future__ import annotations

import ctypes
import os
import platform

THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _loaded_blas() -> list[str]:
    """Paths of the BLAS libraries mapped into this process (Linux only)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _blas_threads(path: str):
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for symbol in THREAD_SYMBOLS:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def _build_blas(module) -> dict:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}


def describe() -> dict:
    """nproc, Python, numpy, scipy, and each loaded BLAS with its thread count.

    Call it after numpy and scipy.linalg are imported, so their BLAS
    libraries are loaded.
    """
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _build_blas(numpy),
        "scipy_blas": _build_blas(scipy),
        "blas_threads": {os.path.basename(p): _blas_threads(p) for p in _loaded_blas()},
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }
