"""One workload process: import moellerlab, make the inputs, run the CLI once.

Usage: python3 benchmarks/child.py JOB.json

The job file (written by run.py) names the checkout root, the CLI argv, an
optional bundled config to copy with the workload seed, the output paths and
whether to trace.  The process writes one result JSON: the monotonic time at
which the program was imported and its inputs existed, the wall time of the
``moellerlab.cli.main`` call, its exit code or exception, peak RSS and CPU
time of this process, the time of the calibration kernel run right after
set-up, and, when traced, the recorded spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def calibrate():
    """Seconds for a fixed loop of small LU solves and array shifts.

    The loop resembles the program's hot path (many small solves driven
    from Python) but runs no program code, so its time tracks how fast the
    machine is at that moment and nothing else.
    """
    import numpy as np
    from scipy.linalg import lu_factor, lu_solve

    rng = np.random.default_rng(0)
    lu = lu_factor(rng.standard_normal((32, 32)) + 32 * np.eye(32))
    x = rng.standard_normal(32)
    t0 = time.perf_counter()
    for _ in range(1500):
        x = lu_solve(lu, np.roll(x, 1) * 0.5)
    return time.perf_counter() - t0


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    import moellerlab.cli as cli

    package = Path(cli.__file__).resolve().parent
    if package != (root / "src" / "moellerlab").resolve():
        raise SystemExit(f"imported moellerlab from {package}, not from the checkout")
    workdir = Path(job["workdir"])
    subst = {"out": job["out"]}
    if job.get("config"):
        cfg = json.loads((package / "configs" / job["config"]).read_text())
        cfg["seed"] = job["seed"]
        subst["config"] = str(workdir / "config.json")
        Path(subst["config"]).write_text(json.dumps(cfg))
    argv = [a.format(seed=job["seed"], **subst) for a in job["argv"]]
    result = {"ready": time.monotonic()}
    result["calibration_s"] = calibrate()
    if not job.get("probe"):
        tracer = None
        if job.get("trace"):
            from layertrace import Tracer
            tracer = Tracer().install()
        rc = error = None
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:
            error = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - t0
        result.update(rc=rc, error=error)
        if tracer is not None:
            result.update(spans=tracer.spans, absent=tracer.absent)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
