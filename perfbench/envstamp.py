"""What decides whether two benchmark records can be compared."""
from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess


def _openblas_threads(module) -> int | None:
    """Thread count of the OpenBLAS bundled with a numpy/scipy wheel."""
    pkg_dir = os.path.dirname(os.path.dirname(module.__file__))
    name = module.__name__.split(".")[0]
    for path in glob.glob(os.path.join(pkg_dir, f"{name}.libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest(src_dir: str) -> str:
    """sha256 over the package's .py files, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, src_dir).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def stamp(root: str, src_dir: str) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_numpy": _openblas_threads(numpy),
        "blas_threads_scipy": _openblas_threads(scipy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_digest": source_digest(src_dir),
    }
