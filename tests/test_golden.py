"""The reports of nine commands, held to the golden files in tests/golden/.

A report must name the same scenarios, suites and laws in the same order,
with the same verdicts, the same ``info`` keys, the same strings and integers
and the same exit code.  Each float may move by at most REL times the larger
of its golden value and its law's tolerance.  A change that moves a value on
purpose rewrites the files with ``tests/golden/regenerate.py``, and
``tests/golden/moved.py`` lists what moved, by the same rule.
"""

import copy
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
INDEX = json.loads((GOLDEN / "index.json").read_text())


def _load(name):
    spec = importlib.util.spec_from_file_location(name, GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regenerate, moved = _load("regenerate"), _load("moved")
REL = moved.REL


def assert_matches(new, old):
    """new holds to old: floats within REL * max(|old|, tolerance), all else exactly."""
    found = list(moved.differences(new, old))
    assert not found, found[:5]


def test_golden_set_is_the_regenerated_set():
    # the index names exactly the commands the script runs
    assert {name: entry["argv"] for name, entry in INDEX.items()} == regenerate.COMMANDS


# the refusal records a suite may emit that no golden report holds
REFUSALS = {"cfl_satisfied", "metric_marchable", "chain_exists"}


def _checks(report):
    """(suite, check) for every check of a report of one scenario or of a list of them."""
    for tree in report if isinstance(report, list) else [report]:
        for suite, node in tree["suites"].items():
            yield from ((suite, check) for check in node["checks"])


def test_law_table_is_the_golden_law_set_and_the_refusals(tmp_path):
    # every law a golden report names is a row of LAWS, under its suite and
    # held to the row's bound (an order law's shortfall to 0.0); the other
    # rows are the refusals and the dense law, which moller --dense-kernels adds
    from moellerlab.cli import main
    from moellerlab.reports import LAWS

    assert main(["moller", "--grid", "16x16", "--dense-kernels", "--out", str(tmp_path)]) == 0
    paths = [GOLDEN / f"{name}.json" for name in INDEX] + [tmp_path / "report.json"]
    checks = [c for path in paths for c in _checks(json.loads(path.read_text()))]
    assert set(LAWS) == {check["law"] for _, check in checks} | REFUSALS
    for suite, check in checks:
        law = LAWS[check["law"]]
        assert law.suite in (suite, None), check["law"]
        assert check["tolerance"] == (0.0 if law.kind == "order" else law.bound), check["law"]


def test_comparison_refuses_what_it_must_hold():
    old = json.loads((GOLDEN / "moller-seed-3.json").read_text())
    check = old["suites"]["moller"]["checks"][0]
    edits = {  # edit -> whether the edited report still holds
        lambda c: c.update(residual=c["residual"] * (1 + 0.5 * REL)): True,
        lambda c: c.update(residual=c["residual"] + 2 * REL * c["tolerance"]): False,
        lambda c: c.update({"pass": not c["pass"]}): False,
        lambda c: c.update(law=c["law"] + "_"): False,
        lambda c: c["info"].update(extra=1): False,
        lambda c: c.update(tolerance=round(c["tolerance"])): False,  # an int
    }
    assert check["residual"] > 0 and check["tolerance"] > 0
    for edit, holds in edits.items():
        new = copy.deepcopy(old)
        edit(new["suites"]["moller"]["checks"][0])
        try:
            assert_matches(new, old)
        except AssertionError:
            assert not holds
        else:
            assert holds
    new = copy.deepcopy(old)
    new["suites"]["moller"]["checks"].reverse()
    with pytest.raises(AssertionError):
        assert_matches(new, old)


@pytest.mark.parametrize("name", INDEX)
def test_report_holds_to_its_golden_file(name, tmp_path):
    assert regenerate.run(INDEX[name]["argv"], tmp_path) == INDEX[name]["exit"]
    assert_matches(json.loads((tmp_path / "report.json").read_text()),
                   json.loads((GOLDEN / f"{name}.json").read_text()))


def test_moved_lists_an_edited_residual(tmp_path):
    # the script, run on a golden file and a copy with one residual moved
    # past the allowance, prints that residual alone with its law's tolerance
    name = "moller-seed-3.json"
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir(), new.mkdir()
    shutil.copy(GOLDEN / name, old / name)
    report = json.loads((GOLDEN / name).read_text())
    check = report["suites"]["moller"]["checks"][1]
    before = check["residual"]
    check["residual"] = after = before + 2 * REL * check["tolerance"]
    (new / name).write_text(json.dumps(report))

    def run(a, b):
        return subprocess.run([sys.executable, str(GOLDEN / "moved.py"), str(a), str(b)],
                              capture_output=True, text=True)

    same = run(old, old)
    assert (same.returncode, same.stdout) == (0, "")
    edited = run(old, new)
    where = f"{name}.suites.moller.checks[1][{check['law']}].residual"
    assert edited.returncode == 1
    assert edited.stdout == f"{where}: {before!r} -> {after!r} (tolerance {check['tolerance']!r})\n"
