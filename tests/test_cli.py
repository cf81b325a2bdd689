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


def test_band_solver_loads_only_where_levels_couple_sites(tmp_path):
    # scipy's band LU is imported by the first march level that couples
    # neighbouring sites (g^tx != 0), so a shift-free study starts without it
    script = f"""
import sys
import numpy as np
from moellerlab import cli, geometry as geo, greenhyp as gh
from moellerlab.lattice import make_grid
assert cli.main(["converge", "--grids", "16,32,64", "--out", {str(tmp_path)!r}]) == 0
print("scipy.linalg" in sys.modules)
g = make_grid(128, 32, 0.0, 0.5, 1.0)
f = np.zeros((g.nt, g.nx))
f[5, 3] = 1.0
gh.wave_operator(geo.metric_preset("tilted", g), 1.0).march(f, 1)
print("scipy.linalg" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]


def test_cfl_violation_is_reported(tmp_path):
    # the runner records a refused march as the suite's one failed check,
    # whichever suite's march refuses
    config = tmp_path / "ccr-cfl.json"
    config.write_text(json.dumps({"name": "ccr-cfl", "suites": ["ccr"],
                                  "ccr": {"nt": 16, "nx": 64}}))
    cases = [("green", ["green", "--grid", "8x64"]),
             ("moller", ["moller", "--grid", "16x64"]),
             ("ccr", ["state", "--grid", "16x64"]),
             ("hadamard", ["hadamard", "--grid", "4x64", "--grids", "16,32"]),
             ("ccr", ["run", str(config)])]
    for k, (suite, argv) in enumerate(cases):
        out = tmp_path / str(k)
        assert run_cli(argv + ["--out", str(out)]) == 1, argv
        tree = json.loads((out / "report.json").read_text())
        [check] = tree["suites"][suite]["checks"]
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


@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("suite, key", [("moller", "sympl_pairs"), ("ccr", "dictionary"),
                                        ("ccr", "triples"), ("ccr", "positivity_samples")])
def test_sample_count_below_one_exits_2(suite, key, value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "x", "suites": [suite], suite: {key: value}}))
    out = tmp_path / "out"
    assert run_cli(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{key} must be at least 1" in err
    assert not out.exists()


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


# each subcommand with a flag its suite does not read
REMOVED_FLAGS = [
    ["cones", "--grid", "16x16"], ["cones", "--mass", "2"], ["cones", "--preset", "x"],
    ["cones", "--dense-kernels"], ["cones", "--grids", "16,32"],
    ["chain", "--mass", "2"], ["chain", "--preset", "x"], ["chain", "--dense-kernels"],
    ["chain", "--grids", "16,32"],
    ["green", "--grids", "16,32"],
    ["moller", "--grids", "16,32"],
    ["state", "--preset", "x"], ["state", "--dense-kernels"], ["state", "--grids", "16,32"],
    ["hadamard", "--preset", "tilted"], ["hadamard", "--dense-kernels"],
    ["converge", "--grid", "16x16"], ["converge", "--mass", "2"], ["converge", "--preset", "x"],
    ["converge", "--dense-kernels"], ["converge", "--suite", "hadamard"],
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=" ".join)
def test_flag_the_suite_does_not_read_exits_2(argv, tmp_path, capsys):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_dense_kernels_beyond_limit_write_nothing(tmp_path, capsys):
    out = tmp_path / "D"
    assert run_cli(["green", "--grid", "48x48", "--dense-kernels", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: dense kernels are limited to small grids")
    assert not (out / "report.json").exists()


def test_dense_kernels_describe_the_report_grid(tmp_path, capsys):
    # without --grid the green report is 48x48, past the dense limit
    out = tmp_path / "D"
    assert run_cli(["green", "--dense-kernels", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: dense kernels are limited to small grids")
    assert not out.exists()
    assert run_cli(["green", "--grid", "16x16", "--dense-kernels", "--out", str(out)]) == 0
    for name in ("green_plus.csv", "green_minus.csv", "green_causal.csv"):
        assert len((out / name).read_text().splitlines()) == 16 * 16


def test_dense_kernels_need_out(capsys):
    assert run_cli(["green", "--grid", "16x16", "--dense-kernels"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and "--out" in captured.err
    assert captured.out == ""


def test_dense_kernels_of_refused_march_are_left_out(tmp_path, capsys):
    # the CFL refusal is the suite's failed check; the kernel files are skipped
    assert run_cli(["green", "--grid", "8x64", "--dense-kernels", "--out", str(tmp_path)]) == 1
    assert "no kernel files written: CFL violated" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


@pytest.mark.parametrize("key", ["expect", "suits"])
def test_unknown_scenario_key_exits_2(key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "x", "suites": ["paracausal"],
                               "paracausal": {"nt": 8, "nx": 8}, key: {}}))
    assert run_cli(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown scenario keys") and repr(key) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg", [
    [1],
    {"suites": ["green"], "green": 5},
    {"suites": ["hadamard"], "hadamard": [32, 64]},
], ids=json.dumps)
def test_non_object_scenario_or_section_exits_2(cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "must be" in err and "JSON object" in err
    assert not (tmp_path / "out").exists()


def test_subcommand_is_a_one_scenario_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "hadamard-cli", "seed": 2, "suites": ["hadamard"],
                               "hadamard": {"nts": [32, 64]}}))
    assert run_cli(["hadamard", "--grids", "32,64", "--seed", "2",
                    "--out", str(tmp_path / "A")]) == 0
    assert run_cli(["run", str(cfg), "--out", str(tmp_path / "B")]) == 0
    a = (tmp_path / "A" / "report.json").read_bytes()
    assert a == (tmp_path / "B" / "report.json").read_bytes()


def test_state_mass_reaches_every_operator(tmp_path, monkeypatch):
    from moellerlab import greenhyp as gh
    from moellerlab import moller as mo

    masses = []
    wave = gh.wave_operator

    def recorded(metric, mass=1.0, **kw):
        masses.append(mass)
        return wave(metric, mass, **kw)

    for module in (gh, mo):
        monkeypatch.setattr(module, "wave_operator", recorded)
    assert run_cli(["state", "--grid", "16x16", "--mass", "2", "--out", str(tmp_path)]) == 0
    assert masses and set(masses) == {2.0}
