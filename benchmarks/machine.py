"""Record of the machine and the run, stored with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

# Settings every measurement process starts with; recorded as-is.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(f"{index}/level")
        kind = _read(f"{index}/type")
        size = _read(f"{index}/size")
        if level and size:
            out[f"L{level}{kind[:1].lower() if kind != 'Unified' else ''}"] = size
    return out


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout, read without running git."""
    head = _read(root / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    commit = _read(root / ".git" / ref)
    if commit:
        return commit
    for line in _read(root / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def host(root: Path) -> dict:
    """Facts that need no import of the program."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "git_commit": _git_commit(root),
        "env": dict(PINNED_ENV),
    }


def _blas_threads() -> object:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def runtime() -> dict:
    """Versions of the numerical stack; call after numpy and scipy import."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }
