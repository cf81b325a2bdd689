"""Uniform check records and deterministic JSON report emission."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass
class CheckResult:
    """One verified identity: a named law, its residual and verdict."""

    law: str
    residual: float
    tolerance: float
    passed: bool
    info: dict = field(default_factory=dict)

    @classmethod
    def from_residual(cls, law, residual, tolerance, **info):
        residual = float(residual)
        return cls(law, residual, float(tolerance), residual <= tolerance, dict(info))

    @classmethod
    def from_flag(cls, law, ok, **info):
        return cls(law, 0.0 if ok else 1.0, 0.5, bool(ok), dict(info))

    def as_dict(self):
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


def report_tree(scenario_name, suite_results):
    """{suite: {pass, checks: [...]}} with a scenario-level verdict."""
    tree = {"scenario": scenario_name, "suites": {}, "pass": True}
    for suite, results in sorted(suite_results.items()):
        ok = all(r.passed for r in results)
        tree["suites"][suite] = {
            "pass": ok,
            "checks": [r.as_dict() for r in results],
        }
        tree["pass"] = tree["pass"] and ok
    return tree


def dumps(tree) -> str:
    """Byte-stable serialization: sorted keys, repr-exact floats.

    A numpy value is written as its ``tolist()``; any other object json
    cannot write raises ``TypeError``, so no repr reaches a report.
    """
    return json.dumps(tree, sort_keys=True, indent=2, default=_jsonable) + "\n"


def _jsonable(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def matrix_csv(M) -> str:
    """Dense matrix as plain CSV rows (gnuplot-compatible)."""
    lines = []
    for row in M:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
