"""The environment a result was measured in.

BLAS matters twice: it sets the speed of the rule contractions, and its
thread count decides their summation order, hence the low bits.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_BLAS_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _loaded_blas() -> Optional[str]:
    """Path of the BLAS shared library loaded into this process."""
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.split()[-1]
                name = os.path.basename(path).lower()
                if "blas" in name and ".so" in name:
                    return path
    except OSError:
        pass
    return None


def _call(lib, symbols, restype):
    for name in symbols:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def blas_info() -> Dict[str, object]:
    import numpy as np

    info: Dict[str, object] = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except (TypeError, KeyError):
        pass
    path = _loaded_blas()
    if path is not None:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            lib = None
        if lib is not None:
            info["threads"] = _call(lib, _BLAS_THREAD_SYMBOLS, ctypes.c_int)
            config = _call(lib, _BLAS_CONFIG_SYMBOLS, ctypes.c_char_p)
            if config is not None:
                info["config"] = config.decode(errors="replace")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            info[var] = os.environ[var]
    return info


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def cpu_steal_s() -> Optional[float]:
    """CPU time the hypervisor gave to other guests since boot, summed
    over CPUs (the ``steal`` column of ``/proc/stat``); None if unknown.
    A run whose steal grows is measuring a busy host."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def capture(root: Path) -> Dict[str, object]:
    """nproc, Python, NumPy, BLAS library and threads, and the commit."""
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
    }
