"""End-to-end and per-layer benchmark of the moellerlab command line.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload selftest --seed 1 --seconds 40 --trace 0

Each iteration launches one fresh workload process (benchmarks/child.py)
that imports the package from ``src/``, makes the workload's inputs from the
seed and calls ``moellerlab.cli.main`` once.  Iterations run back to back
with one client (a closed loop) while a typical one still ends within
``--seconds``; five extra launches per run only set up, for ``setup_s``.  Every
report is verified: exit code 0, the expected suites present, every check
passing, and the same bytes as the first report of the run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` traced iterations (spans recorded by layertrace.py) and
untraced ones alternate, and it carries the per-layer metrics plus the
tracing overhead.  Child processes pin the BLAS pool to one thread and run
with ``MOELLERLAB_THREADS`` unset.

On shared two-vCPU virtual machines speed drifts by up to 1.5x over
minutes, for every process alike, so ``wall_s`` and ``setup_s`` are given
at a reference machine speed: the run's median time is multiplied by
CALIBRATION_REF_S over the median time of a fixed calibration kernel
(child.py), which every workload process runs right after set-up, before
any program code has computed anything.  The raw medians are printed as
well.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "selftest": {"argv": ["run", "{config}", "--out", "{out}"],
                 "config": "minkowski-selftest.json",
                 "suites": ["ccr", "cones", "convergence", "green", "moller", "paracausal"]},
    "kernel-transport": {"argv": ["hadamard", "--grids", "32,64,128", "--seed", "{seed}",
                                  "--out", "{out}"],
                         "suites": ["hadamard"]},
    "refinement": {"argv": ["converge", "--grids", "64,128,256", "--seed", "{seed}",
                            "--out", "{out}"],
                   "suites": ["convergence"]},
}

# The fail ratio is `failed / attempted` of the result line; it is not a
# metric because it reads 0 whenever the program is correct.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

CALIBRATION_REF_S = 0.04  # calibration kernel time of the reference machine
SETUP_PROBES = 5        # extra import-and-inputs launches per run, for setup_s
HARD_LIMIT_S = 170.0    # the whole run must end well inside 180 s
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env():
    env = dict(os.environ, **CHILD_ENV)
    env.pop("MOELLERLAB_THREADS", None)
    return env


def launch(job, workdir, deadline):
    """Run one workload process; returns (result dict or None, stderr).

    The result gains ``setup_s``, the seconds from launch until the program
    was imported and the inputs existed.
    """
    job_path = workdir / "job.json"
    job["result"] = str(workdir / "result.json")
    job_path.write_text(json.dumps(job))
    Path(job["result"]).unlink(missing_ok=True)
    t_launch = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                            env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        return None, f"killed after the run's time limit\n{err}"
    if proc.returncode != 0 or not Path(job["result"]).exists():
        return None, err
    result = json.loads(Path(job["result"]).read_text())
    result["setup_s"] = result["ready"] - t_launch
    return result, err


def verdict(result, report, reference, suites):
    """None if the iteration produced a verified report, else why it failed."""
    if result.get("error"):
        return "raised:\n" + result["error"]
    if result.get("rc") != 0:
        return f"exit code {result.get('rc')}"
    if report is None:
        return "no report.json written"
    try:
        tree = json.loads(report)
    except json.JSONDecodeError:
        return "report.json is not valid JSON"
    if sorted(tree.get("suites", {})) != sorted(suites):
        return f"suites {sorted(tree.get('suites', {}))}, expected {sorted(suites)}"
    for name, node in tree["suites"].items():
        if not node.get("checks"):
            return f"suite {name} has no checks"
        for check in node["checks"]:
            if check.get("pass") is not True:
                return f"check {name}.{check.get('law')} failed"
        if node.get("pass") is not True:
            return f"suite {name} failed"
    if tree.get("pass") is not True:
        return "report verdict is fail"
    if reference is not None and report != reference:
        return "report differs byte for byte from the first report for this seed"
    return None


def tail(values):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) >= 1000:
            return f"p{p}={statistics.quantiles(values, n=100)[p - 1]:.4f}"
    return "no percentile has ten samples beyond it"


def run(workload, seed, seconds, trace, workloads=WORKLOADS):
    spec = workloads[workload]
    deadline = time.monotonic() + HARD_LIMIT_S
    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    job = {"root": str(ROOT), "workdir": str(workdir), "seed": seed,
           "argv": spec["argv"], "config": spec.get("config"), "out": str(workdir / "out")}
    try:
        setups, calibrations = [], []
        for _ in range(SETUP_PROBES):
            result, err = launch(dict(job, probe=True), workdir, deadline)
            if result is None:
                sys.stderr.write(f"set-up failed:\n{err}")
                return None
            setups.append(result["setup_s"])
            calibrations.append(result["calibration_s"])

        # trace 1: two traced iterations (for the count check), one untraced
        # (for the overhead), then alternate; trace 0: untraced only
        schedule = [True, True, False] if trace else [False]
        iters = []
        loop_start = time.monotonic()
        reference = None
        failures = []
        while True:
            traced = schedule[len(iters)] if len(iters) < len(schedule) else \
                (trace and not iters[-1]["traced"])
            shutil.rmtree(job["out"], ignore_errors=True)
            t0 = time.monotonic()
            result, err = launch(dict(job, trace=traced), workdir, deadline)
            it = {"traced": traced, "elapsed": time.monotonic() - t0}
            iters.append(it)
            if result is None:
                failures.append(f"workload process died:\n{err}")
                break
            setups.append(result["setup_s"])
            calibrations.append(result["calibration_s"])
            report_path = Path(job["out"]) / "report.json"
            report = report_path.read_bytes() if report_path.exists() else None
            why = verdict(result, report, reference, spec["suites"])
            if reference is None:
                reference = report
            if why:
                failures.append(why)
            else:
                it.update(wall_s=result["wall_s"], peak_rss_mb=result["peak_rss_mb"],
                          cpu_s=result["cpu_s"])
                if traced:
                    it["summary"] = layertrace.span_summary(result["spans"])
                    it["absent"] = result["absent"]
            # closed loop: start another iteration only if a typical one still
            # ends inside the measuring time (and well inside the hard limit)
            now = time.monotonic()
            typical = statistics.median(i["elapsed"] for i in iters)
            if (len(iters) >= len(schedule) and now - loop_start + typical > seconds) \
                    or now + 1.5 * typical > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    for why in failures:
        sys.stderr.write(f"{workload} seed {seed}: iteration failed: {why}\n")
    ok = [i for i in iters if "wall_s" in i]
    return {"attempted": len(iters), "failed": len(iters) - len(ok), "ok": ok,
            "setups": setups, "calibration_s": statistics.median(calibrations)}


def end_to_end(res):
    ok = res["ok"]
    walls = [i["wall_s"] for i in ok]
    setup = statistics.median(res["setups"])
    speed = CALIBRATION_REF_S / res["calibration_s"]
    print(f"fail_ratio: {res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']}")
    print(f"calibration: {res['calibration_s']:.5f} s, so wall_s and setup_s are raw x {speed:.4f}")
    if walls:
        print(f"wall_s raw: median {statistics.median(walls):.4f} s, {tail(walls)}, n={len(walls)}")
    print(f"setup_s raw: median {setup:.4f} s, n={len(res['setups'])}")
    return {
        "wall_s": statistics.median(walls) * speed if walls else 0.0,
        "setup_s": setup * speed,
        "peak_rss_mb": statistics.median(i["peak_rss_mb"] for i in ok) if ok else 0.0,
    }


def per_layer(res):
    traced = [i for i in res["ok"] if i["traced"]]
    plain = [i for i in res["ok"] if not i["traced"]]
    summaries = [i["summary"] for i in traced]
    values = layertrace.layer_metrics(summaries)
    absent = sorted({a for i in traced for a in i["absent"]})
    if absent:
        print("absent at this commit: " + ", ".join(absent))
    mismatches = layertrace.count_mismatches(summaries)
    if mismatches:
        print(f"nondeterminism: {mismatches} call/column counts differ between traced runs")
    values["process.cpu_s"] = statistics.median(i["cpu_s"] for i in plain) if plain else 0.0
    values["trace_overhead"] = (statistics.median(i["wall_s"] for i in traced)
                                / statistics.median(i["wall_s"] for i in plain)
                                if traced and plain else 0.0)
    values["calibration_s"] = res["calibration_s"]
    values["trace.absent_callables"] = len(absent)
    values["trace.count_mismatches"] = mismatches
    return values, mismatches == 0 and len(traced) >= 2


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "moellerlab" / "cli.py").is_file():
        sys.stderr.write(f"no moellerlab sources under {ROOT / 'src'}\n")
        return 2
    seed = args.seed % (1 << 31)  # the program needs a non-negative seed
    res = run(args.workload, seed, args.seconds, args.trace)
    if res is None:
        return 2
    correct = res["failed"] == 0
    if args.trace:
        values, consistent = per_layer(res)
        correct = correct and consistent
        units = layertrace.metric_units()
    else:
        values, units = end_to_end(res), END_TO_END
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
