"""Outside-in span tracer for the moellerlab layers.

The tracer wraps public callables of the package from outside: methods are
replaced on their class, and a module-level function is replaced in every
``moellerlab`` module (and every module-level dict, such as the suite
registry) that binds it, so calls made through a by-name import are still
caught.  A callable that does not exist at the measured commit is recorded
as absent instead of raising, so one benchmark runs on commits before and
after a refactor renames or deletes it.

Spans stay in memory as ``[name, start, end, parent, attrs]`` rows (parent is
the row index of the enclosing span, or -1) and are written out once, at the
end of the process.  ``span_summary`` and ``layer_metrics`` turn span rows
into per-layer metrics; a layer's self time is its span duration minus the
part of that interval covered by its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
import time
import weakref

PACKAGE = "moellerlab"

CS = ("calls", "self_s")

# (metric prefix, module, attribute path, metrics reported for it).  The
# prefix names the layer as the benchmark reports it; the attribute path is
# what gets wrapped (a class name alone wraps its constructor).
LAYERS = [
    ("greenhyp.march", "greenhyp", "HyperbolicOperator.march",
     ("calls", "columns", "self_s", "cold_s", "warm_s")),
    ("greenhyp.build_operator", "greenhyp", "build_operator", CS),
    ("greenhyp.apply", "greenhyp", "HyperbolicOperator.apply", CS),
    ("greenhyp.as_dense", "greenhyp", "HyperbolicOperator.as_dense", CS),
    ("greenhyp.solve_cauchy", "greenhyp", "solve_cauchy", CS),
    ("moller.compose_chain", "moller", "compose_chain", CS),
    ("moller.MollerOperator.apply", "moller", "MollerOperator.apply", CS),
    ("moller.MollerOperator.inverse_apply", "moller", "MollerOperator.inverse_apply", CS),
    ("moller.MollerOperator.transpose_apply", "moller", "MollerOperator.transpose_apply", CS),
    ("moller.MollerOperator.adjoint_apply", "moller", "MollerOperator.adjoint_apply", CS),
    ("moller.MollerOperator.as_matrix", "moller", "MollerOperator.as_matrix", CS),
    ("moller.MollerOperator.adjoint_matrix", "moller", "MollerOperator.adjoint_matrix", CS),
    ("moller.MollerOperator._matrix_of", "moller", "MollerOperator._matrix_of", CS),
    ("moller.verify_moller_identities", "moller", "verify_moller_identities", CS),
    ("hadamard.PullbackKernel.column", "hadamard", "PullbackKernel.column", CS),
    ("hadamard.ccr_hypothesis_check", "hadamard", "ccr_hypothesis_check", CS),
    ("hadamard.bisolution_check", "hadamard", "bisolution_check", CS),
    ("hadamard.hadamard_verdict", "hadamard", "hadamard_verdict", CS),
    ("hadamard.smoothness_proxy", "hadamard", "smoothness_proxy", CS),
    ("ccr.FieldDictionary", "ccr", "FieldDictionary", CS),
    ("ccr.multiply", "ccr", "multiply", CS),
    ("ccr.state_eval", "ccr", "state_eval", CS),
    ("ccr.star_isomorphism", "ccr", "star_isomorphism", CS),
    ("geometry.preceq", "geometry", "preceq", CS),
    ("geometry.build_chain", "geometry", "build_chain", CS),
    ("geometry.causal_future", "geometry", "causal_future", CS),
] + [
    (f"suites.{s}", "suites", f"suite_{s}", ("total_s",))
    for s in ("cones", "paracausal", "green", "moller", "ccr", "hadamard", "convergence")
] + [
    ("cli", "cli", "main", ("total_s",)),
    ("reports.dumps", "reports", "dumps", ("self_s",)),
]

# Whole-run diagnostics reported next to the layers.
DIAGNOSTICS = {
    "process.cpu_s": "s",
    "trace_overhead": "ratio",
    "calibration_s": "s",
    "trace.absent_callables": "count",
    "trace.count_mismatches": "count",
}

UNITS = {"calls": "count", "columns": "count", "self_s": "s", "cold_s": "s",
         "warm_s": "s", "total_s": "s"}

def metric_units(layers=LAYERS) -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    out = {f"{prefix}.{m}": UNITS[m] for prefix, _, _, metrics in layers for m in metrics}
    out.update(DIAGNOSTICS)
    return out


class Tracer:
    """In-memory span recorder that patches callables and can undo it."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, describe=None):
        """Return fn wrapped so each call records one span."""
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            attrs = describe(args, kwargs) if describe else None
            row = [name, clock(), None, stack[-1] if stack else -1, attrs]
            idx = len(spans)
            spans.append(row)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return traced

    def install(self, layers=LAYERS):
        """Patch every callable named in layers; record the missing ones."""
        for prefix, module, path, _ in layers:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                self.absent.append(prefix)
                continue
            *owner_path, attr = path.split(".")
            owner = mod
            for part in owner_path:
                owner = getattr(owner, part, None)
            target = getattr(owner, attr, None) if owner is not None else None
            if inspect.isclass(target):
                owner, attr = target, "__init__"
                target = target.__dict__.get("__init__")
            if not inspect.isfunction(target):
                self.absent.append(prefix)
                continue
            describe = _march_describer() if prefix == "greenhyp.march" else None
            wrapped = self.wrap(prefix, target, describe)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapped)
            else:
                self._rebind(target, wrapped)
        return self

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old) if had else delattr(owner, attr))

    def _rebind(self, fn, wrapped):
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, name, wrapped)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is fn:
                            value[key] = wrapped
                            self._undo.append(functools.partial(value.__setitem__, key, fn))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()


def _march_describer():
    """Columns marched and cold/warm state of one march call.

    A march is cold when it is the first on its operator instance in its
    direction; every later one is warm and finds its level factors ready.
    """
    seen = weakref.WeakKeyDictionary()
    seen_ids = {}

    def describe(args, kwargs):
        op = args[0]
        f = kwargs.get("f", args[1] if len(args) > 1 else None)
        direction = kwargs.get("direction", args[2] if len(args) > 2 else None)
        try:
            dirs = seen.setdefault(op, set())
        except TypeError:
            dirs = seen_ids.setdefault(id(op), set())
        cold = direction not in dirs
        dirs.add(direction)
        try:
            g = op.grid
            columns = getattr(f, "values", f).size // (g.nt * g.nx * g.rank)
        except AttributeError:
            columns = 0
        return {"columns": columns, "cold": cold}

    return describe


def self_times(spans):
    """Per span: duration minus the union of its direct children's intervals."""
    children = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def span_summary(spans):
    """Per name: calls, self_s, total_s (outermost spans only) and march attrs."""
    selfs = self_times(spans)
    out = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                    "columns": 0, "cold_s": 0.0, "warm_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["total_s"] += end - start
        if attrs:
            agg["columns"] += attrs.get("columns", 0)
            agg["cold_s" if attrs.get("cold") else "warm_s"] += end - start
    return out


COUNTED = ("calls", "columns")


def count_mismatches(summaries):
    """Number of (layer, count) pairs that differ between traced iterations."""
    bad = set()
    first = summaries[0] if summaries else {}
    for other in summaries[1:]:
        for name in set(first) | set(other):
            for key in COUNTED:
                if first.get(name, {}).get(key, 0) != other.get(name, {}).get(key, 0):
                    bad.add((name, key))
    return len(bad)


def layer_metrics(summaries, layers=LAYERS):
    """Per-layer metric values: counts from the first traced iteration, times as medians."""
    out = {}
    for prefix, _, _, metrics in layers:
        for m in metrics:
            vals = [s.get(prefix, {}).get(m, 0) for s in summaries] or [0]
            out[f"{prefix}.{m}"] = vals[0] if m in COUNTED else statistics.median(vals)
    return out
