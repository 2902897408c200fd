"""Process set-up shared by the benchmark's entry points.

`prepare()` pins BLAS to one thread and puts this checkout's `src/` tree
first on the import path.  It must run before numpy is imported, so the
entry points call it before importing anything else of the benchmark.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"  # scratch space of a run, removed after it


def prepare():
    """Pin BLAS threads and import mcflow from this checkout only.

    Exits with an error when the checkout has no mcflow sources, so that
    an installed copy elsewhere is never measured by mistake.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "mcflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no mcflow sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(config):
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment():
    """Thread setting, machine and library versions, recorded with every result."""
    import numpy
    import scipy

    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
    }
