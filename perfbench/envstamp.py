"""Print the environment stamp of the Python that runs the stages, as JSON.

Timings are comparable only between runs with equal stamps: core count,
interpreter, numpy, scipy, and the OpenBLAS build and thread count that
every matmul in ``seizenet.nn`` goes through.
"""

from __future__ import annotations

import ctypes
import importlib.util
import json
import os
import platform


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked from the library."""
    with open("/proc/self/maps") as fh:
        paths = (line.split()[-1] for line in fh if line.strip())
        libs = {p for p in paths if "openblas" in p.lower() and ".so" in p}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def collect() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seizenet_file": importlib.util.find_spec("seizenet").origin,
    }


if __name__ == "__main__":
    print(json.dumps(collect(), sort_keys=True))
