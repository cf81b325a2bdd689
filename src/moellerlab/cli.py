"""Config-driven experiment runner.

A config is a JSON object (or a list of them) naming a scenario: a name, a
seed, which suites to run and one section of settings per suite.  A scenario
with ``"kind": "reversed-pair"`` is the time-reversed orientation fixture
instead.  Each subcommand is a one-scenario config, run and written by the
same function as ``run``.  Reports are deterministic JSON trees: identical
config + seed produce byte-identical output.  A march the lattice refuses
(``MarchError``, ``MollerObstruction``) is recorded as its suite's one failed
check.  A key that no suite reads is refused before any suite runs.  Exit
codes: 0 all suites pass, 1 a suite failed, 2 usage/config errors (nothing
is written).

``main`` first keeps freed memory with the process: where the C library is
glibc, it sets ``M_MMAP_THRESHOLD`` to 32 MiB and ``M_TRIM_THRESHOLD`` to
64 MiB with ``mallopt``.  glibc's adaptive rule starts at 128 KiB and ends at
these values on 64-bit (``DEFAULT_MMAP_THRESHOLD_MAX`` and twice it), so
nothing is tuned to a workload.  Without them, the 0.25-1 MiB probe blocks,
kernel columns and stencil temporaries of a study are unmapped when freed
and faulted in again page by page when the next one is made, and a
first-touched page is dear on a virtual machine.  Both are set, because
setting either alone switches glibc's adaptive rule off for the other.
Importing ``moellerlab`` sets nothing; where the C library has no
``mallopt`` (musl, macOS, Windows) ``main`` sets nothing either.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import zlib
from functools import partial
from pathlib import Path

import numpy as np

from . import geometry as geo
from .greenhyp import MarchError
from .lattice import make_grid
from .moller import MollerObstruction
from .reports import CheckResult, dumps, report_tree
from .suites import SECTION_KEYS, SUITES, dense_kernel_csvs

USAGE_ERROR = 2
# glibc's mallopt parameters, and the values its adaptive thresholds end at
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_MAX = 32 << 20
SCENARIO_KEYS = {"name", "seed", "suites", *SUITES}  # one section per suite


def _refuse_unknown(keys, known, where):
    """Raise naming every key not in known, and the known keys."""
    unknown = sorted(set(keys) - known)
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}; {where} takes {sorted(known)}")


def run_scenario(cfg: dict) -> dict:
    _refuse_unknown(cfg, SCENARIO_KEYS, "scenario")
    sections = sorted(s for s in SUITES if not isinstance(cfg.get(s, {}), dict))
    if sections:
        raise ValueError(f"suite sections must be JSON objects: {sections}")
    for s in SUITES:
        _refuse_unknown(cfg.get(s, {}), SECTION_KEYS[s], f"{s} section")
    name = cfg.get("name", "scenario")
    seed = int(cfg.get("seed", 0))
    suites = cfg.get("suites", ["cones", "paracausal", "green"])
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}; known: {sorted(SUITES)}")
    results = {}
    for s in suites:
        # process-independent per-suite stream (string hash is randomized)
        rng = np.random.default_rng(seed + zlib.crc32(s.encode()) % 100000)
        try:
            results[s] = SUITES[s](cfg.get(s, {}), rng)
        except (MarchError, MollerObstruction) as e:  # a refused march fails its suite
            results[s] = [CheckResult.from_flag(e.check, False, reason=e.reason, detail=e.detail)]
    return report_tree(name, results)


def _reversed_pair_report(cfg) -> dict:
    """Dedicated structural fixture: time-reversed pair must certify."""
    _refuse_unknown(cfg, SECTION_KEYS["reversed-pair"], "reversed-pair scenario")
    g = make_grid(int(cfg.get("nt", 16)), int(cfg.get("nx", 16)), 0.0, 0.5, 1.0)
    mink = geo.metric_preset("minkowski", g)
    out = geo.build_chain(mink, mink.time_reversed())
    ok = isinstance(out, geo.ChainObstruction) and out.reason == "orientation-reversal"
    check = CheckResult.from_flag("reversal_obstruction_certificate", ok,
                                  reason=getattr(out, "reason", "chain-found"),
                                  detail=getattr(out, "detail", ""))
    return report_tree(cfg.get("name", "reversed-pair"), {"paracausal": [check]})


def execute(scenarios, out_dir=None, exports=None) -> int:
    """Run scenarios, write report.json (stdout without out_dir) and the files
    {name: text} of ``exports()``; returns the exit code.  A config error
    writes nothing.  Files the march refuses are left out: their suite fails.
    """
    files = {}
    try:
        if exports and not out_dir:
            raise ValueError("the kernel files need a directory: add --out")
        for sc in scenarios:
            if not isinstance(sc, dict):
                raise ValueError(f"a scenario must be a JSON object, got {json.dumps(sc)}")
        try:
            files = exports() if exports else {}
        except MarchError as e:
            print(f"no kernel files written: {e}", file=sys.stderr)
        trees = sorted((_reversed_pair_report(sc) if sc.get("kind") == "reversed-pair"
                        else run_scenario(sc) for sc in scenarios), key=lambda t: t["scenario"])
    except (ValueError, KeyError, TypeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return USAGE_ERROR
    text = dumps(trees[0] if len(trees) == 1 else trees)
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(text)
        for name, body in files.items():
            (out / name).write_text(body)
    else:
        sys.stdout.write(text)
    return 0 if all(t["pass"] for t in trees) else 1


def run(config_path, out_dir=None) -> int:
    """Execute the scenarios of a config file; returns the exit code."""
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return USAGE_ERROR
    return execute(cfg if isinstance(cfg, list) else [cfg], out_dir)


def _parse_grid(text):
    try:
        nt, nx = (int(v) for v in text.lower().split("x"))
        return {"nt": nt, "nx": nx}
    except Exception:
        raise argparse.ArgumentTypeError("grid must look like 64x64")


def _bundled(name):
    return Path(__file__).parent / "configs" / name


FLAGS = {
    "--grid": dict(type=_parse_grid, metavar="NTxNX",
                   help="lattice size, e.g. 64x64; hadamard reads only NX, "
                        "its study's nt values come from --grids"),
    "--mass": dict(type=float, help="field mass (default 1)"),
    "--preset": dict(help="metric preset; for moller, of the chain's target"),
    "--dense-kernels": dict(action="store_true",
                            help="green: also write the dense kernels as CSV under --out; "
                                 "moller: add the dense propagator-transport law"),
    # the suite checks the sizes, so a bad list is a config error like any other
    "--grids": dict(type=lambda text: text.split(","), metavar="N,N,...",
                    help="sizes of a refinement study: hadamard's nt, "
                         "or converge's nx (each with nt = 2 nx)"),
}
# Each subcommand runs one suite and takes only the flags that suite reads,
# flag -> the section key it sets; "nt,nx" names the entries of a grid, and
# green's --dense-kernels asks for the kernel files.  All take --seed, --out.
COMMANDS = {
    "cones": ("cones", {}),
    "chain": ("paracausal", {"--grid": "nt,nx"}),
    "green": ("green", {"--grid": "nt,nx", "--mass": "mass", "--preset": "preset",
                        "--dense-kernels": None}),
    "moller": ("moller", {"--grid": "nt,nx", "--mass": "mass", "--preset": "target_preset",
                          "--dense-kernels": "dense"}),
    "state": ("ccr", {"--grid": "nt,nx", "--mass": "mass"}),
    "hadamard": ("hadamard", {"--grid": "nx", "--mass": "mass", "--grids": "nts"}),
    "converge": ("convergence", {"--grids": "grids"}),
}


NAMES = ["run", *COMMANDS]  # every subcommand, in the order help lists them


def _parser(names):
    """The command line parser, with the sub-parsers of the commands in names only
    (a sublist of :data:`NAMES`, in its order).

    With fewer than all of them, the sub-parsers' metavar still lists every
    command, so usage, help and error texts read as with all of them.
    """
    p = argparse.ArgumentParser(prog="moellerlab",
                                description="lattice light-cone / causal-inverse verification runner")
    every = "{" + ",".join(NAMES) + "}" if len(names) < len(NAMES) else None
    sub = p.add_subparsers(dest="cmd", required=True, metavar=every)

    for cmd in names:
        if cmd == "run":
            runp = sub.add_parser("run", help="execute a JSON config of scenarios")
            runp.add_argument("config", nargs="?", default=str(_bundled("minkowski-selftest.json")))
            runp.add_argument("--out", default=None, help="directory for report.json (default stdout)")
            continue
        suite, flags = COMMANDS[cmd]
        # no abbreviations: converge's --grids must not take a --grid
        q = sub.add_parser(cmd, help=f"run only the {suite} suite",
                           argument_default=argparse.SUPPRESS, allow_abbrev=False)
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--out", default=None, help="directory for report.json (default stdout)")
        for flag in flags:
            q.add_argument(flag, **FLAGS[flag])
    return p


def _keep_freed_pages():
    """Fix glibc's mmap and trim thresholds at their adaptive end values
    (see the module docstring); do nothing where libc has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library handle (Windows), or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX)
    mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_MAX)


def main(argv=None) -> int:
    """Run the command line argv (default ``sys.argv[1:]``); returns the exit code.

    Only the sub-parser of the command that argv names is built; when its
    first argument names no command (``--help``, a typo), all of them are.
    """
    _keep_freed_pages()
    argv = sys.argv[1:] if argv is None else list(argv)
    p = _parser(argv[:1] if argv[:1] and argv[0] in NAMES else NAMES)
    try:
        args = p.parse_args(argv)
    except SystemExit as e:  # argparse's usage errors and --help, as exit codes
        return e.code
    if args.cmd == "run":
        return run(args.config, args.out)

    suite, flags = COMMANDS[args.cmd]
    given = vars(args)
    section = {}
    for flag, key in flags.items():
        value = given.get(flag[2:].replace("-", "_"))
        if flag == "--grid" and value:
            section.update((k, value[k]) for k in key.split(","))
        elif key and value is not None:
            section[key] = value
    wants_kernels = args.cmd == "green" and given.get("dense_kernels")
    exports = partial(dense_kernel_csvs, section) if wants_kernels else None
    cfg = {"name": f"{suite}-cli", "seed": args.seed, "suites": [suite], suite: section}
    return execute([cfg], args.out, exports)


if __name__ == "__main__":
    sys.exit(main())
