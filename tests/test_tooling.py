"""The benchmark's layer tracer (benchmarks/layertrace.py) against this package.

The tracer wraps the package from outside and counts the columns of every
march from the source's shape and ``SpacetimeGrid.rank``; these tests keep
the package and the tracer in step.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

import moellerlab.cli  # noqa: F401  (loads every module the tracer wraps)
from moellerlab import geometry as geo
from moellerlab import greenhyp as gh
from moellerlab.lattice import make_grid

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "layertrace.py"
_spec = importlib.util.spec_from_file_location("layertrace", _PATH)
layertrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layertrace)


def _bindings():
    """Every module binding, module-level dict entry and class attribute of the package."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "moellerlab" and not name.startswith("moellerlab."):
            continue
        for key, value in vars(mod).items():
            out[name, key] = value
            if type(value) is dict:
                out.update(((name, key, k), v) for k, v in value.items())
            if inspect.isclass(value) and value.__module__ == name:
                out.update(((name, key, "attr", k), v) for k, v in vars(value).items())
    return out


def _changed(before, after):
    return sorted(str(k) for k in before.keys() | after.keys()
                  if k not in before or k not in after or before[k] is not after[k])


def test_tracer_finds_every_layer_and_uninstall_restores_the_package():
    before = _bindings()
    tracer = layertrace.Tracer().install()
    try:
        assert tracer.absent == []
        assert _changed(before, _bindings())  # the layers are wrapped
    finally:
        tracer.uninstall()
    assert _changed(before, _bindings()) == []


def test_march_describer_counts_columns():
    g = make_grid(16, 8, 0.0, 0.5, 1.0)
    N = gh.wave_operator(geo.metric_preset("minkowski", g), 1.0)
    f = np.zeros((g.nt, g.nx))
    f[2:-2] = 1.0
    describe = layertrace._march_describer()
    assert describe((N, np.stack([f, f, f]), 1), {})["columns"] == 3
    assert describe((N, f, 1), {})["columns"] == 1
    tracer = layertrace.Tracer().install()
    try:
        N.march(np.stack([f] * 5), 1)
        N.march(f, -1)
        gh.GreenSystem(N).plus(f)
    finally:
        tracer.uninstall()
    marches = [row[4] for row in tracer.spans if row[0] == "greenhyp.march"]
    assert [m["columns"] for m in marches] == [5, 1, 1]
    assert [m["cold"] for m in marches] == [True, True, False]
