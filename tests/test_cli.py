import json
import subprocess
import sys
from pathlib import Path

import pytest

from moellerlab import cli


def run_cli(args):
    return cli.main(args)


def test_selftest_config_passes(tmp_path):
    rc = run_cli(["run", "--out", str(tmp_path / "a")])
    assert rc == 0
    tree = json.loads((tmp_path / "a" / "report.json").read_text())
    assert tree["pass"] is True
    for suite, node in tree["suites"].items():
        assert node["pass"], suite
        for check in node["checks"]:
            assert set(check) >= {"law", "residual", "tolerance", "pass"}


def test_reports_are_deterministic(tmp_path):
    rc1 = run_cli(["run", "--out", str(tmp_path / "a")])
    rc2 = run_cli(["run", "--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b


def test_reversed_fixture_reports_certificate(tmp_path):
    cfgfile = Path(cli._bundled("cylinder-reversed.json"))
    rc = run_cli(["run", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 0  # expected outcome encoded in the fixture
    tree = json.loads((tmp_path / "report.json").read_text())
    check = tree["suites"]["paracausal"]["checks"][0]
    assert check["law"] == "reversal_obstruction_certificate"
    assert check["info"]["reason"] == "orientation-reversal"


def test_list_config_reports_sorted_scenarios(tmp_path):
    # file order is the reverse of name order
    cfg = [{"name": "z-reversed", "kind": "reversed-pair", "nt": 8, "nx": 8},
           {"name": "a-cones", "seed": 3, "suites": ["cones"], "cones": {"pairs": 40}}]
    path = tmp_path / "list.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", str(path), "--out", str(tmp_path / "a")]) == 0
    assert run_cli(["run", str(path), "--out", str(tmp_path / "b")]) == 0
    text = (tmp_path / "a" / "report.json").read_bytes()
    assert text == (tmp_path / "b" / "report.json").read_bytes()
    trees = json.loads(text)
    assert [t["scenario"] for t in trees] == ["a-cones", "z-reversed"]
    assert all(t["pass"] for t in trees)


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["run", str(bad)]) == 2
    missing = tmp_path / "nope.json"
    assert run_cli(["run", str(missing)]) == 2


def test_unknown_suite_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "x", "suites": ["nonexistent"]}))
    assert run_cli(["run", str(cfg)]) == 2


def test_no_subcommand_usage_error():
    assert run_cli([]) == 2


def test_subcommand_single_suite(tmp_path, capsys):
    rc = run_cli(["chain", "--out", str(tmp_path)])
    assert rc == 0
    tree = json.loads((tmp_path / "report.json").read_text())
    assert list(tree["suites"]) == ["paracausal"]


def test_unmarchable_chain_is_reported(tmp_path):
    rc = run_cli(["moller", "--preset", "rotated-minkowski", "--out", str(tmp_path)])
    assert rc == 1
    tree = json.loads((tmp_path / "report.json").read_text())
    [check] = tree["suites"]["moller"]["checks"]
    assert check["law"] == "moller_chain_marchable"
    assert check["pass"] is False
    assert check["info"]["reason"] == "characteristic-slice link"


def test_non_comparable_chain_link_is_reported(tmp_path):
    cfg = {"name": "bad-chain", "seed": 0, "suites": ["moller"],
           "moller": {"nt": 16, "nx": 16,
                      "chain": ["minkowski", {"preset": "conformal", "mu": 2.0},
                                "rotated-minkowski"]}}
    path = tmp_path / "bad-chain.json"
    path.write_text(json.dumps(cfg))
    rc = run_cli(["run", str(path), "--out", str(tmp_path)])
    assert rc == 1
    tree = json.loads((tmp_path / "report.json").read_text())
    [check] = tree["suites"]["moller"]["checks"]
    assert check["law"] == "chain_exists"
    assert check["pass"] is False
    assert check["info"]["reason"] == "non-comparable link"
    assert check["info"]["detail"].startswith("link 1:")


def test_converge_subcommand_with_grids(tmp_path):
    rc = run_cli(["converge", "--grids", "16,32", "--out", str(tmp_path)])
    assert rc == 0
    tree = json.loads((tmp_path / "report.json").read_text())
    info = tree["suites"]["convergence"]["checks"][0]["info"]
    assert len(info["orders"]) == 1


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "moellerlab.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "suite" in out.stdout or "run" in out.stdout


def test_cfl_violation_is_reported(tmp_path):
    rc = run_cli(["green", "--grid", "8x64", "--out", str(tmp_path)])
    assert rc == 1
    tree = json.loads((tmp_path / "report.json").read_text())
    [check] = tree["suites"]["green"]["checks"]
    assert check["law"] == "cfl_satisfied"
    assert check["pass"] is False
    assert check["info"]["reason"] == "cfl"
    assert check["info"]["detail"].startswith("CFL violated")


def test_x_timelike_preset_marches(tmp_path):
    # the rotated metric is x-class (g^tt > 0, g^xx < 0 everywhere), where the
    # march is stable: the green laws run and pass
    rc = run_cli(["green", "--preset", "rotated-minkowski", "--out", str(tmp_path)])
    tree = json.loads((tmp_path / "report.json").read_text())
    checks = tree["suites"]["green"]["checks"]
    assert rc == 0 and len(checks) > 1 and all(c["pass"] for c in checks)


def test_empty_sample_count_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "x", "suites": ["green"], "green": {"count": 0}}))
    assert run_cli(["run", str(cfg)]) == 2
    assert "count must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["converge", "--grids", "4"], "at least two"),
    (["converge", "--grids", "32,16"], "strictly increasing"),
    (["converge", "--grids", "0,16"], "positive"),
    (["hadamard", "--grids", "32"], "at least two"),
    (["hadamard", "--grids", "32,32"], "strictly increasing"),
])
def test_refinement_grid_lists_rejected(argv, message, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
