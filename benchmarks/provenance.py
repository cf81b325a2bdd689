"""Print the environment block recorded with baseline numbers.

Usage (from the root of a checkout): python3 benchmarks/provenance.py
"""

import json
import os
import platform
import subprocess
from pathlib import Path

import numpy
import scipy

from run import CHILD_ENV


def blas(module):
    deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": deps.get("name"), "version": deps.get("version")}


def cpu_model():
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=Path(__file__).resolve().parent)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": CHILD_ENV,
        "git_commit": git_commit(),
    }


if __name__ == "__main__":
    print(json.dumps(environment(), indent=2))
