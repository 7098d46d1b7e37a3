"""Host fingerprint and peak memory of the benchmark process."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import sys

import numpy as np


def _blas() -> dict:
    """The loaded OpenBLAS build and its configured thread count.

    Found by symbol in the shared object numpy mapped into this process;
    fields stay ``None`` where the BLAS is not an OpenBLAS.
    """
    info = {"library": None, "config": None, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return info
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"),
                               ("openblas", "64_"), ("openblas", "")):
            try:
                config = getattr(lib, f"{prefix}_get_config{suffix}")
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return {"library": os.path.basename(path),
                    "config": config().decode().strip(),
                    "threads": threads()}
    return info


def fingerprint() -> dict:
    """What a result depends on besides the code: CPUs, BLAS, versions."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
    }


def peak_rss_mib() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
