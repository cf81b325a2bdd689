"""Uniform check records, the table of every law they judge, and deterministic JSON report emission."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple


class Law(NamedTuple):
    """How a law is judged.

    suite is the suite that reports it (None: any suite that marches may);
    kind is "residual" (passes at residual <= bound), "order" (passes when
    the least order measured along a refinement is >= bound) or "flag" (a
    verdict, 0 or 1 against the bound 0.5).
    """

    suite: str | None
    kind: str
    bound: float


def _rows(suite, kind, bound, *laws):
    return {law: Law(suite, kind, bound) for law in laws}


# every law a report can name
LAWS = {
    **_rows("cones", "flag", 0.5, "blend_lorentzian_everywhere", "blend_cone_sandwich",
            "conformal_cones_coincide", "inverse_metric_cone_duality"),
    **_rows("paracausal", "flag", 0.5, "rotation_chain_of_at_most_4",
            "rotation_chain_links_validate", "chain_search_symmetric",
            "reversal_obstruction_certificate", "rotation_intermediate_closed_causal",
            "flat_cylinder_causally_open", "comparable_pair_chain_of_2"),
    **_rows("green", "residual", 1e-10, "retarded_right_inverse", "advanced_right_inverse",
            "green_left_inverse", "green_weighted_transpose"),
    **_rows("green", "flag", 0.5, "retarded_support_in_causal_future"),
    **_rows("green", "residual", 1e-9, "exact_sequence_injectivity", "exact_sequence_complex",
            "exact_sequence_reconstruction", "exact_sequence_kernel",
            "symplectic_slice_independence", "symplectic_propagator_pairing"),
    **_rows("moller", "flag", 0.5, "chain_exists"),
    **_rows("moller", "residual", 1e-9, "moller_intertwine", "moller_propagator_transport",
            "moller_adjoint_interchange", "moller_inverse_roundtrip",
            "moller_propagator_transport_dense"),
    **_rows("moller", "residual", 1e-8, "moller_symplectic_preservation"),
    **_rows("moller", "residual", 1e-10, "moller_identity_region", "adjoint_pairing",
            "adjoint_inverse_roundtrip", "step_transpose_pairing"),
    **_rows("moller", "residual", 1e-12, "operator_pairing_symmetry"),
    **_rows("ccr", "residual", 1e-10, "normal_form_confluence"),
    **_rows("ccr", "residual", 1e-12, "six_point_pairing_sum", "state_positivity_degree2",
            "pullback_positivity_degree2"),
    **_rows("ccr", "residual", 1e-9, "commutator_table_transport"),
    **_rows("ccr", "residual", 1e-8, "pullback_state_commutator_consistency"),
    **_rows("hadamard", "order", 1.9, "vacuum_commutator_hypothesis_order"),
    **_rows("hadamard", "order", 1.5, "transported_commutator_order",
            "transported_bisolution_order"),
    **_rows("hadamard", "flag", 0.5, "transported_kernel_smoothness_proxy",
            "smooth_perturbation_passes_proxy", "rough_perturbation_fails_proxy"),
    **_rows("hadamard", "residual", 1e-9, "kernel_transport_roundtrip"),
    **_rows("convergence", "order", 1.9, "characteristics_solution_order"),
    # a march the lattice refuses (greenhyp.MarchError, moller.MollerObstruction)
    **_rows(None, "flag", 0.5, "cfl_satisfied", "metric_marchable", "moller_chain_marchable"),
}


@dataclass
class CheckResult:
    """One verified identity: a named law, its residual and verdict."""

    law: str
    residual: float
    tolerance: float
    passed: bool
    info: dict = field(default_factory=dict)

    @classmethod
    def judge(cls, law, measured, **info):
        """The check of law (a row of :data:`LAWS`) on what was measured.

        measured is the residual of a residual law, the verdict of a flag
        law, and for an order law the errors along a refinement, whose
        successive orders go into info and whose least order is reported as
        its shortfall from the bound, held to 0.0.
        """
        _, kind, bound = LAWS[law]
        if kind == "flag":
            residual = 0.0 if measured else 1.0
        elif kind == "order":
            info["orders"] = orders = [math.log2(a / b) for a, b in zip(measured, measured[1:])]
            residual, bound = -(min(orders) - bound), 0.0
        else:
            residual = float(measured)
        return cls(law, residual, float(bound), residual <= bound, info)

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
