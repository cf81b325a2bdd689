"""Config-driven experiment runner.

A config is a JSON object (or a list of them) naming a scenario: a name, a
seed, which suites to run and one section of settings per suite.  Each
subcommand is a one-scenario config, run and written by the same function as
``run``.  Reports are deterministic JSON trees: identical config + seed
produce byte-identical output.  A march the lattice refuses (``MarchError``,
``MollerObstruction``) is recorded as its suite's one failed check.  Every
scenario of a config is read whole (``suites.read_scenario``) before any
suite runs, so a key no suite reads, or a value its reader refuses, anywhere
in the config is refused first; so is a value its grid refuses.  Exit codes:
0 all suites pass, 1 a suite failed, 2 usage/config errors (nothing is
written).  An error raised after the config is read is a fault of the
program, not of the config: it ends in a traceback.

A plain command line is read without argparse: a command, then only flags
that command takes, each once and written ``--flag value`` (a store-true
flag bare), no value starting with ``-``, and for ``run`` at most one config
path.  ``_plain_args`` converts each value with the ``type`` argparse would
call and gives the namespace argparse would give, so such a run neither
imports argparse nor builds a parser.  Every other line (help, a bad value,
``--flag=value``, a repeated or abbreviated flag, ``--``) goes to the whole
argparse parser, with the sub-parser of every command, so every help, usage
and error text and its exit code comes from argparse.

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

import ctypes
import json
import sys
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .greenhyp import MarchError
from .moller import MollerObstruction
from .reports import CheckResult, dumps, report_tree
from .suites import SUITES, chain_scope, dense_kernel_csvs, kernel_grid, read_scenario

USAGE_ERROR = 2
# glibc's mallopt parameters, and the values its adaptive thresholds end at
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_MAX = 32 << 20


def run_scenario(cfg: dict) -> dict:
    """Run the suites of one read scenario (``suites.read_scenario``); return its report tree.

    The scenario is the scope of its chains (``suites.chain_scope``): a
    chain the moller and ccr suites both ask for is built once, and dropped
    when the scenario ends, however it ends.
    """
    results = {}
    with chain_scope():
        for s in cfg["suites"]:
            # process-independent per-suite stream (string hash is randomized)
            rng = np.random.default_rng(cfg["seed"] + zlib.crc32(s.encode()) % 100000)
            try:
                results[s] = SUITES[s](cfg[s], rng)
            except (MarchError, MollerObstruction) as e:  # a refused march fails its suite
                results[s] = [CheckResult.judge(e.check, False, reason=e.reason,
                                                detail=e.detail)]
    return report_tree(cfg["name"], results)


def execute(scenarios, out_dir=None, kernels=False) -> int:
    """Read every scenario, then run them; write report.json (stdout without
    out_dir) and, with kernels, the dense kernel files of the first
    scenario's green section (``suites.dense_kernel_csvs``); returns the exit
    code.  A config error writes nothing.  Kernel files the march refuses
    are left out: their suite fails.
    """
    try:
        if kernels and not out_dir:
            raise ValueError("the kernel files need a directory: add --out")
        if not scenarios:
            raise ValueError("a config needs at least one scenario, got []")
        scenarios = [read_scenario(sc) for sc in scenarios]
        if kernels:
            kernel_grid(scenarios[0]["green"])
    except ValueError as e:  # every reader refuses a value with a ValueError naming it
        print(f"config error: {e}", file=sys.stderr)
        return USAGE_ERROR
    files = {}
    if kernels:
        try:
            files = dense_kernel_csvs(scenarios[0]["green"])
        except MarchError as e:
            print(f"no kernel files written: {e}", file=sys.stderr)
    trees = sorted((run_scenario(sc) for sc in scenarios), key=lambda t: t["scenario"])
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
        import argparse  # only an error needs it

        raise argparse.ArgumentTypeError("grid must look like 64x64")


def _parse_sizes(text):
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        import argparse  # only an error needs it

        raise argparse.ArgumentTypeError("grids must look like 32,64,128")


def _bundled(name):
    return Path(__file__).parent / "configs" / name


SELFTEST = str(_bundled("minkowski-selftest.json"))  # what run reads without a config
# every flag's argparse settings; a flag with a default is in every namespace
FLAGS = {
    "--seed": dict(type=int, default=0),
    "--out": dict(default=None, help="directory for report.json (default stdout)"),
    "--grid": dict(type=_parse_grid, metavar="NTxNX",
                   help="lattice size, e.g. 64x64; hadamard reads only NX, "
                        "its study's nt values come from --grids"),
    "--mass": dict(type=float, help="field mass (default 1)"),
    "--preset": dict(help="metric preset; for moller, of the chain's target"),
    "--dense-kernels": dict(action="store_true",
                            help="green: also write the dense kernels as CSV under --out; "
                                 "moller: add the dense propagator-transport law"),
    # integers only; the config reader checks the list, so a short or
    # unordered one is a config error like any other
    "--grids": dict(type=_parse_sizes, metavar="N,N,...",
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


def _parser():
    """The command line parser, with one sub-parser for each command of :data:`NAMES`."""
    import argparse

    p = argparse.ArgumentParser(prog="moellerlab",
                                description="lattice light-cone / causal-inverse verification runner")
    sub = p.add_subparsers(dest="cmd", required=True)

    for cmd in NAMES:
        if cmd == "run":
            runp = sub.add_parser("run", help="execute a JSON config of scenarios",
                                  allow_abbrev=False)
            runp.add_argument("config", nargs="?", default=SELFTEST)
            runp.add_argument("--out", **FLAGS["--out"])
            continue
        suite, flags = COMMANDS[cmd]
        # no abbreviations, as for run: converge's --grids must not take a --grid
        q = sub.add_parser(cmd, help=f"run only the {suite} suite",
                           argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for flag in ("--seed", "--out", *flags):
            q.add_argument(flag, **FLAGS[flag])
    return p


def _dest(flag):
    """The namespace attribute argparse stores flag in."""
    return flag[2:].replace("-", "_")


def _plain_args(argv):
    """The namespace argparse gives a plain command line, or None for any other.

    Plain is: a command of :data:`NAMES`, then flags that command takes, each
    at most once and spelled ``--flag value`` (a store-true flag bare), with
    values that do not start with ``-``, and for ``run`` at most one config
    path.  Each value goes through the ``type`` argparse would call.  Help, a
    bad value, ``--flag=value``, a repeated or abbreviated flag, ``--`` and
    ``-`` give None: those are argparse's to read or refuse.
    """
    if not argv or argv[0] not in NAMES:
        return None
    cmd, rest = argv[0], list(argv[1:])
    flags = ["--out"] if cmd == "run" else ["--seed", "--out", *COMMANDS[cmd][1]]
    args = {"config": SELFTEST} if cmd == "run" else {}
    args.update((_dest(f), FLAGS[f]["default"]) for f in flags if "default" in FLAGS[f])
    seen = set()
    while rest:
        token = rest.pop(0)
        if not token.startswith("-"):  # run's config path
            if cmd != "run" or "config" in seen:
                return None
            seen.add("config")
            args["config"] = token
            continue
        if token not in flags or token in seen:
            return None
        seen.add(token)
        spec = FLAGS[token]
        if spec.get("action") == "store_true":
            args[_dest(token)] = True
        elif not rest or rest[0].startswith("-"):
            return None
        else:
            try:
                args[_dest(token)] = spec.get("type", str)(rest.pop(0))
            except Exception:  # ValueError, TypeError or argparse's ArgumentTypeError
                return None
    return SimpleNamespace(cmd=cmd, **args)


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

    A plain command line is read by :func:`_plain_args`.  Any other is left to
    argparse (:func:`_parser`).
    """
    _keep_freed_pages()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as e:  # argparse's usage errors and --help, as exit codes
            return e.code
    if args.cmd == "run":
        return run(args.config, args.out)

    suite, flags = COMMANDS[args.cmd]
    given = vars(args)
    section = {}
    for flag, key in flags.items():
        value = given.get(_dest(flag))
        if flag == "--grid" and value:
            section.update((k, value[k]) for k in key.split(","))
        elif key and value is not None:
            section[key] = value
    kernels = args.cmd == "green" and given.get("dense_kernels", False)
    cfg = {"name": f"{suite}-cli", "seed": args.seed, "suites": [suite], suite: section}
    return execute([cfg], args.out, kernels)


if __name__ == "__main__":
    sys.exit(main())
