import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moellerlab import cli, suites
from moellerlab import geometry as geo
from moellerlab import greenhyp as gh
from moellerlab.suites import CONFIG, SUITES, read_scenario, read_section


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
    [check] = [c for c in tree["suites"]["paracausal"]["checks"]
               if c["law"] == "reversal_obstruction_certificate"]
    assert check["pass"] and check["info"]["reason"] == "orientation-reversal"


def test_list_config_reports_sorted_scenarios(tmp_path):
    # file order is the reverse of name order
    cfg = [{"name": "z-reversed", "suites": ["paracausal"], "paracausal": {"nt": 8, "nx": 8}},
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


def test_converge_errors_hold_to_the_sum_of_sines_reference(tmp_path):
    # the errors the study gave with d'Alembert's solution evaluated as a sum
    # of sines over the whole window; the separable reference keeps them
    assert run_cli(["converge", "--grids", "64,128,256", "--seed", "1", "--out", str(tmp_path)]) == 0
    info = json.loads((tmp_path / "report.json").read_text())["suites"]["convergence"]["checks"][0]["info"]
    assert info["errors"] == pytest.approx(
        [0.007245392698822406, 0.0018118095058072825, 0.0004530476399222938], rel=1e-9)


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
    cases = [("green", ["green", "--grid", "12x64"]),
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


@pytest.mark.parametrize("grid", ["7x8", "8x8", "11x8"])
def test_green_refuses_a_grid_below_its_smallest_nt(grid, tmp_path, capsys):
    # the exact-sequence sources must clear the first two levels; a shorter
    # window is named as such before any march, and nothing is written
    assert run_cli(["green", "--grid", grid, "--out", str(tmp_path)]) == 2
    nt = grid.split("x")[0]
    assert f"config error: green needs nt >= 12, got nt = {nt}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    assert run_cli(["green", "--grid", "12x8", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv, levels", [
    (["moller", "--grid", "8x8"], "nt = 8 puts it on levels l0 = 2 .. l1 = 5, which breaks l0 >= 3 "
                                  "and l1 <= nt - 4 = 4"),
    (["moller", "--grid", "4x8"], "nt = 4 puts it on levels l0 = 1 .. l1 = 2, which breaks l0 >= 3 "
                                  "and l1 <= nt - 4 = 0"),
    (["state", "--grid", "8x8"], "nt = 8 puts it on levels l0 = 2 .. l1 = 5, which breaks l0 >= 3 "
                                 "and l1 <= nt - 4 = 4"),
])
def test_switch_window_refusal_names_its_levels(argv, levels, tmp_path, capsys):
    # the suites place the switch window on the middle third of the grid; on
    # a grid too short for it the refusal names nt, the levels and the bounds
    # they break, and nothing is written
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: switch window must sit strictly inside the lattice window: {levels}\n" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["green", "--grid", "1024x32"], ["moller", "--grid", "2048x32"]],
                         ids=" ".join)
def test_a_fine_grid_writes_a_report(argv, tmp_path):
    # N's entries grow like 1/dt^2 and its round-off with them; on these grids
    # that is a residual of a law in the report, never a refused config
    assert run_cli(argv + ["--out", str(tmp_path)]) in (0, 1)
    assert (tmp_path / "report.json").is_file()


def _drop_last_step(monkeypatch):
    """Have moller.compose_chain return its operator without the last step."""
    from moellerlab import moller as mo

    compose = mo.compose_chain

    def dropped(*args, **kw):
        R = compose(*args, **kw)
        return mo.MollerOperator(R.steps[:-1], R.op_start, R.op_end)

    monkeypatch.setattr(mo, "compose_chain", dropped)


# with the last step of R dropped, the laws each command fails; on the
# conformal chain the symplectic law still holds, since in 1+1d vol g^tt is
# -1 for every conformal factor and the mass does not enter the flux
BROKEN_R_LAWS = [
    (["moller", "--seed", "3"],
     {"moller_intertwine", "moller_propagator_transport", "moller_adjoint_interchange"}),
    (["moller", "--preset", "warped", "--seed", "3"],
     {"moller_intertwine", "moller_propagator_transport", "moller_adjoint_interchange",
      "moller_symplectic_preservation"}),
    (["state", "--seed", "2"], {"commutator_table_transport", "pullback_state_commutator_consistency"}),
]


@pytest.mark.parametrize("argv, failing", BROKEN_R_LAWS, ids=["moller", "moller-warped", "state"])
def test_a_broken_moller_operator_is_a_failed_check(argv, failing, tmp_path, monkeypatch):
    # a law the program breaks is a failed check with its residual: the
    # report is written, the run exits 1, the laws it touches fail at ten
    # times their tolerance or more, and every other law of the suite passes
    _drop_last_step(monkeypatch)
    assert run_cli(argv + ["--out", str(tmp_path)]) == 1
    [suite] = json.loads((tmp_path / "report.json").read_text())["suites"].values()
    failed = [c for c in suite["checks"] if not c["pass"]]
    assert {c["law"] for c in failed} == failing
    assert all(c["residual"] >= 10 * c["tolerance"] for c in failed), failed


@pytest.mark.parametrize("grid", ["48x48", "256x64"])
def test_a_pairing_defect_fails_the_pairing_law(grid, tmp_path, monkeypatch):
    # sigma(G f, G h) off by 1e-6 relative, what a 1e-6 relative error in G f
    # gives: divided by the pairing of absolute terms, whose sum never
    # cancels, the pairing law fails at ten times its tolerance or more
    from moellerlab import greenhyp as gh

    form = gh.symplectic_form
    monkeypatch.setattr(gh, "symplectic_form", lambda *args: (1 + 1e-6) * form(*args))
    assert run_cli(["green", "--grid", grid, "--out", str(tmp_path)]) == 1
    checks = json.loads((tmp_path / "report.json").read_text())["suites"]["green"]["checks"]
    [failed] = [c for c in checks if not c["pass"]]
    assert failed["law"] == "symplectic_propagator_pairing"
    assert failed["residual"] >= 10 * failed["tolerance"], failed


@pytest.mark.parametrize("fault", ["raise ValueError('a fault of the suite')",
                                   "return [CheckResult.judge('no_such_law', 0.0)]"],
                         ids=["ValueError", "law-not-in-LAWS"])
def test_a_fault_inside_a_suite_is_not_a_config_error(fault, tmp_path):
    # the config is read and refused by then: an error a suite raises is a
    # traceback and exit 1, and nothing is written
    script = f"""
import sys
from moellerlab import cli, suites
from moellerlab.reports import CheckResult
def broken(cfg, rng):
    {fault}
suites.SUITES["cones"] = broken
sys.exit(cli.main(["cones", "--out", {str(tmp_path / "out")!r}]))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 1
    assert "Traceback" in out.stderr and "config error" not in out.stderr
    assert not (tmp_path / "out").exists()


def test_x_timelike_preset_marches(tmp_path):
    # the rotated metric is x-class (g^tt > 0, g^xx < 0 everywhere), where the
    # march is stable: the green laws run and pass
    rc = run_cli(["green", "--preset", "rotated-minkowski", "--out", str(tmp_path)])
    tree = json.loads((tmp_path / "report.json").read_text())
    checks = tree["suites"]["green"]["checks"]
    assert rc == 0 and len(checks) > 1 and all(c["pass"] for c in checks)


@pytest.mark.parametrize("grid", ["32x16", "48x48"])
def test_time_reversed_preset_holds_its_retarded_support(grid, tmp_path):
    # the time-reversed metric orients its future to decreasing t, so its
    # retarded solve is G-, from a point source near the last level; the
    # control, G+ of a source on level 5, marches up in lattice time, and
    # every point of its support lies outside the metric's causal future
    rc = run_cli(["green", "--preset", "time-reversed", "--grid", grid, "--out", str(tmp_path)])
    checks = json.loads((tmp_path / "report.json").read_text())["suites"]["green"]["checks"]
    assert rc == 0 and all(c["pass"] for c in checks)
    nt, nx = map(int, grid.split("x"))
    cfg = read_section({"nt": nt, "nx": nx, "preset": "time-reversed"}, "green")
    N = suites._green_operator(cfg, suites._green_grid(cfg))
    src = np.zeros((nt, nx))
    src[5, nx // 3] = 1.0
    support = np.abs(gh.GreenSystem(N).plus(src)) > 1e-13
    leak = support & ~geo.causal_future(N.metric, [(5, nx // 3)])
    assert leak.sum() == support.sum() > 0


def test_empty_sample_count_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "x", "suites": ["green"], "green": {"count": 0}}))
    assert run_cli(["run", str(cfg)]) == 2
    assert "count must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("suite, key", [("cones", "pairs"), ("moller", "sympl_pairs"),
                                        ("ccr", "dictionary"), ("ccr", "triples"),
                                        ("ccr", "positivity_samples")])
def test_sample_count_below_one_exits_2(suite, key, value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "x", "suites": [suite], suite: {key: value}}))
    out = tmp_path / "out"
    assert run_cli(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{key} must be at least 1" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_dense_that_is_not_a_json_boolean_exits_2(value, tmp_path, capsys):
    # bool("false") is True: only true or false is read as the dense switch
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "x", "suites": ["moller"], "moller": {"dense": value}}))
    out = tmp_path / "out"
    assert run_cli(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: dense must be true or false, got ")
    assert not out.exists()


# a config integer that is not a JSON integer, and the error naming it
INTEGER_CASES = [
    ({"suites": ["cones"], "cones": {"pairs": True}}, "pairs must be an integer, got True"),
    ({"suites": ["cones"], "cones": {"pairs": "300"}}, "pairs must be an integer, got '300'"),
    ({"suites": ["cones"], "cones": {"pairs": 200.9}}, "pairs must be an integer, got 200.9"),
    ({"suites": ["green"], "green": {"count": 2.0}}, "count must be an integer, got 2.0"),
    ({"suites": ["moller"], "moller": {"sympl_pairs": "4"}}, "sympl_pairs must be an integer"),
    ({"suites": ["ccr"], "ccr": {"triples": False}}, "triples must be an integer, got False"),
    ({"suites": ["paracausal"], "paracausal": {"nt": 16.0}}, "nt must be an integer, got 16.0"),
    ({"suites": ["green"], "green": {"nx": "48"}}, "nx must be an integer, got '48'"),
    ({"suites": ["moller"], "moller": {"nt": True}}, "nt must be an integer, got True"),
    ({"suites": ["ccr"], "ccr": {"nx": 32.0}}, "nx must be an integer, got 32.0"),
    ({"suites": ["hadamard"], "hadamard": {"nx": 16.5}}, "nx must be an integer, got 16.5"),
    ({"suites": ["hadamard"], "hadamard": {"nts": [32, "64"]}}, "nts entry must be an integer, got '64'"),
    ({"suites": ["convergence"], "convergence": {"grids": [32.7, 64]}},
     "grids entry must be an integer, got 32.7"),
    ({"suites": ["convergence"], "convergence": {"grids": "32,64"}},
     "grids must be a list of integers, got '32,64'"),
    ({"seed": 1.5, "suites": ["cones"]}, "seed must be an integer, got 1.5"),
    ({"seed": "7", "suites": ["cones"]}, "seed must be an integer, got '7'"),
]


@pytest.mark.parametrize("cfg, message", INTEGER_CASES, ids=json.dumps)
def test_integer_that_is_not_a_json_integer_exits_2(cfg, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def test_config_integer_takes_numpy_integers():
    from moellerlab.suites import config_int

    value = config_int(np.int64(12), "nt")
    assert value == 12 and type(value) is int


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


def test_run_refuses_an_abbreviated_flag(tmp_path, capsys):
    # like every suite command, run takes its flag spelled out only
    out = tmp_path / "E"
    assert run_cli(["run", "--o", str(out)]) == 2
    assert "unrecognized arguments: --o" in capsys.readouterr().err
    assert not out.exists()


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
    assert run_cli(["green", "--grid", "12x64", "--dense-kernels", "--out", str(tmp_path)]) == 1
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
    _assert_state_mass_reaches_every_operator(tmp_path, monkeypatch)


def test_state_mass_reaches_every_operator_after_a_run(tmp_path, monkeypatch):
    # no operator of an earlier run is reused: the chain memo ends with its scenario
    assert run_cli(["state", "--grid", "16x16", "--mass", "2", "--out", str(tmp_path / "A")]) == 0
    _assert_state_mass_reaches_every_operator(tmp_path / "B", monkeypatch)


def _assert_state_mass_reaches_every_operator(tmp_path, monkeypatch):
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


def _composed_chains(monkeypatch):
    """A list that gets one entry for each chain moller.compose_chain composes from now on."""
    from moellerlab import moller as mo

    composed = []
    compose = mo.compose_chain

    def spy(chain, *args, **kw):
        composed.append(chain)
        return compose(chain, *args, **kw)

    monkeypatch.setattr(mo, "compose_chain", spy)
    return composed


def test_selftest_composes_one_chain_per_run(tmp_path, monkeypatch):
    # the moller and ccr suites check one R; a second run in the same
    # process composes its own and writes the same bytes
    composed = _composed_chains(monkeypatch)
    assert run_cli(["run", "--out", str(tmp_path / "A")]) == 0
    assert len(composed) == 1
    assert run_cli(["run", "--out", str(tmp_path / "B")]) == 0
    assert len(composed) == 2 and composed[0] is not composed[1]
    assert (tmp_path / "A" / "report.json").read_bytes() == (tmp_path / "B" / "report.json").read_bytes()


@pytest.mark.parametrize("moller, chains", [
    ({}, 1),
    ({"target_params": {"mu": 3.0}}, 2),
    ({"target_preset": "ultrastatic", "target_params": {"h": 2.0}}, 2),
    ({"window": [0.1, 0.4]}, 2),
    ({"mass": 2.0}, 2),
], ids=json.dumps)
def test_moller_section_unlike_ccr_composes_its_own_chain(moller, chains, monkeypatch):
    composed = _composed_chains(monkeypatch)
    tree = cli.run_scenario(read_scenario({"suites": ["moller", "ccr"],
                                           "moller": {**TINY_SECTIONS["moller"], **moller},
                                           "ccr": TINY_SECTIONS["ccr"]}))
    assert tree["pass"] and len(composed) == chains
    # a suite called outside a scenario builds its own chain
    from moellerlab.suites import suite_ccr

    suite_ccr(read_section(TINY_SECTIONS["ccr"], "ccr"), np.random.default_rng(0))
    assert len(composed) == chains + 1


def test_unhashable_target_params_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["moller"], "moller": {"target_params": {"mu": [2.0]}}}))
    assert run_cli(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: target_params must hold only numbers and strings")
    assert not (tmp_path / "out").exists()


class _Recording(dict):
    """A config section that records every key read from it."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


TINY_SECTIONS = {
    "cones": {"pairs": 8},
    "paracausal": {"nt": 8, "nx": 8},
    "green": {"nt": 16, "nx": 16, "count": 2, "pairs": 2},
    "moller": {"nt": 16, "nx": 16, "dictionary": 2, "sympl_pairs": 1},
    "ccr": {"nt": 16, "nx": 16, "dictionary": 4, "triples": 2, "positivity_samples": 2},
    "hadamard": {"nx": 8, "nts": [16, 32]},
    "convergence": {"grids": [8, 16]},
}


def _recording_reader(monkeypatch):
    """Have cli read each scenario into a _Recording, each of its sections one too; returns them."""
    read = []

    def recording(raw):
        cfg = read_scenario(raw)
        read.append(_Recording({k: _Recording(v) if isinstance(v, dict) else v
                                for k, v in cfg.items()}))
        return read[-1]

    monkeypatch.setattr(cli, "read_scenario", recording)
    return read


@pytest.mark.parametrize("suite", TINY_SECTIONS)
def test_each_suite_reads_exactly_its_declared_keys(suite, monkeypatch, capsys):
    # the reader hands the suite every key its section declares, and the
    # suite reads each of them
    read = _recording_reader(monkeypatch)
    cli.execute([{"suites": [suite], suite: TINY_SECTIONS[suite]}])
    [scenario] = read
    assert set(scenario[suite]) == set(CONFIG[suite])
    assert scenario[suite].read == set(CONFIG[suite])


def test_bundled_and_flag_keys_are_declared():
    for path in Path(cli._bundled("")).glob("*.json"):
        cfg = json.loads(path.read_text())
        for sc in cfg if isinstance(cfg, list) else [cfg]:
            read_scenario(sc)  # refuses a key no row declares
            assert set(sc) <= set(CONFIG["scenario"]), path.name
            for suite in SUITES:
                assert set(sc.get(suite, {})) <= set(CONFIG[suite]), (path.name, suite)
    for suite, flags in cli.COMMANDS.values():
        for key in filter(None, flags.values()):
            assert set(key.split(",")) <= set(CONFIG[suite]), (suite, key)


@pytest.mark.parametrize("cfg, message", [
    ({"suites": ["cones", "green"], "cones": {"pairs": 8},
      "green": {"nt": 16, "nx": 16, "cout": 1, "pairs": 2}},
     "unknown green section keys: ['cout']; green section takes ['count', "),
    # the time-reversed pair is a paracausal law, not a scenario kind of its own
    ({"name": "r", "kind": "reversed-pair", "nt": 8, "nx": 8},
     "unknown scenario keys: ['kind', 'nt', 'nx']; scenario takes ['ccr', "),
], ids=["section", "reversed-pair"])
def test_unknown_section_key_exits_2_before_any_suite_runs(cfg, message, tmp_path, capsys,
                                                           monkeypatch):
    from moellerlab import suites

    ran = []
    monkeypatch.setitem(suites.SUITES, "cones", lambda section, rng: ran.append(1) or [])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not ran and not (tmp_path / "out").exists()


# a value each reader refuses, and the key its message names
CONFIG_ERRORS = [
    ({"suites": ["green"], "green": {"mass": True}}, "mass must be a finite number, got True"),
    ({"suites": ["green"], "green": {"t_max": "0.5"}}, "t_max must be a finite number, got '0.5'"),
    ({"suites": ["green"], "green": {"preset": 5}}, "preset: unknown metric preset 5"),
    ({"suites": ["moller"], "moller": {"chain": [5, "conformal"]}}, "chain: unknown metric preset 5"),
    ({"suites": ["moller"], "moller": {"window": [0.2]}}, "window must be two numbers"),
    ({"suites": ["moller"], "moller": {"window": "ab"}}, "window must be two numbers"),
    ({"suites": ["moller"], "moller": {"target_params": {"m": 3}}},
     "target_params: metric preset 'conformal' takes no param 'm'; it takes ['mu']"),
    ({"suites": "cones"}, "suites must be a list of suite names, got 'cones'"),
    # a config that runs no suite checks no law, so it cannot pass
    ([], "a config needs at least one scenario"),
    ({"suites": []}, "suites needs at least one suite"),
    ({"name": 5, "suites": ["cones"]}, "name must be a string, got 5"),
    ({"suites": ["paracausal"], "paracausal": {"nx": 3}}, "nx must be at least 4, got 3"),
    ({"suites": ["hadamard"], "hadamard": {"nts": [2, 16]}},
     "nts sizes must be positive, and at least 4 for a grid, got [2, 16]"),
    ({"suites": ["convergence"], "convergence": {"grids": [3, 16]}},
     "grids sizes must be positive, and at least 4 for a grid, got [3, 16]"),
    ({"suites": ["moller"], "moller": {"window": [0.1, 0.6]}},
     "window must satisfy 0 < t0 < t1 < t_max = 0.5, got [0.1, 0.6]"),
    # finite, but their squares are not: refused before the operator squares them
    ({"suites": ["green"], "green": {"nt": 16, "nx": 16, "mass": 1e200}},
     "mass = 1e+200 is too large: its square leaves the float range"),
    ({"suites": ["green"], "green": {"nt": 16, "nx": 16, "t_max": 1e300}},
     "the time step (t_max - t_min) / (nt - 1) = 6.67e+298 is too large"),
    # what a grid decides
    ({"suites": ["hadamard"], "hadamard": {"nts": [8, 16]}},
     "nts: switch window must sit strictly inside the lattice window: nt = 8 puts it on levels "),
    ({"suites": ["moller"], "moller": {"nt": 128, "nx": 64, "dense": True}},
     "dense kernel mode is restricted to small grids"),
]


@pytest.mark.parametrize("cfg, message", CONFIG_ERRORS, ids=json.dumps)
def test_config_error_names_its_key_and_writes_nothing(cfg, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("cfg", [
    [{"name": "a", "suites": ["cones"], "cones": {"pairs": 8}},
     {"name": "b", "suites": ["cones"], "cones": {"pairs": 8}, "cone": {}}],
    [{"name": "a", "suites": ["cones"], "cones": {"pairs": 8}},
     {"name": "b", "suites": ["cones"], "cones": {"pairs": 8.5}}],
    {"suites": ["cones", "paracausal", "green"], "cones": {"pairs": 8}, "green": {"mass": "2"}},
    *([{"name": "a", "suites": ["cones"], "cones": {"pairs": 8}}, second] for second in (
        {"name": "b", "suites": ["hadamard"], "hadamard": {"mass": 0}},
        {"name": "b", "suites": ["paracausal"], "paracausal": {"nt": 2}},
        {"name": "b", "suites": ["moller"], "moller": {"t_max": -1.0}},
        {"name": "b", "suites": ["moller"], "moller": {"window": [0.3, 0.1]}},
        {"name": "b", "seed": -200000, "suites": ["cones"]},
        {"name": "b", "suites": ["green"], "green": {"nt": 8, "nx": 8}},
        {"name": "b", "suites": ["moller"], "moller": {"nt": 8, "nx": 8}},
        {"name": "b", "suites": ["ccr"], "ccr": {"nt": 8, "nx": 8}},
        {"name": "b", "suites": ["hadamard"], "hadamard": {"nts": [8, 16]}},
        {"name": "b", "suites": ["moller"], "moller": {"nt": 128, "nx": 64, "dense": True}},
        {"name": "b", "suites": ["ccr"], "ccr": {"mass": 1e200}})),
], ids=["second-scenario-key", "second-scenario-count", "later-section-value", "hadamard-mass",
        "grid-nt", "moller-t_max", "moller-window", "seed", "green-nt", "moller-window-levels",
        "ccr-window-levels", "hadamard-window-levels", "moller-dense", "ccr-mass-square"])
def test_a_bad_key_or_value_anywhere_runs_no_suite(cfg, tmp_path, capsys, monkeypatch):
    # the whole config is read before the first suite runs
    ran = []
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda section, rng, name=name: ran.append(name) or [])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not ran and not (tmp_path / "out").exists()


KEYS = [(section, key) for section, rows in CONFIG.items() for key in rows]
# JSON values of every type: null, bool, int, float (NaN and infinities among
# them), string, list and object, with the words the readers know mixed in
_WORDS = st.sampled_from(["auto", "preset", "inner", "mu", "deg", *geo.PRESETS, *SUITES])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
            | _WORDS)
JSON_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | _WORDS, inner, max_size=3), max_leaves=8)
ONE_OF_EACH_TYPE = [None, True, 3, -2, 2.5, float("nan"), float("inf"), "x", [1, 2], {"a": 1}]


def _reads_or_names_the_key(section, key, value):
    try:
        read_section({key: value}, section)
    except ValueError as e:
        # an error inside a suite's section may name the key of the section it is about
        named = [key, *CONFIG.get(key, ())]
        assert any(k in str(e) for k in named), (section, key, str(e))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(KEYS), JSON_VALUES)
def test_every_key_reads_or_is_refused_by_name(section_key, value):
    # a draw either reads, or is a ValueError naming its key: never another exception
    _reads_or_names_the_key(*section_key, value)


@pytest.mark.parametrize("section, key", KEYS)
def test_every_key_meets_a_value_of_each_json_type(section, key):
    for value in ONE_OF_EACH_TYPE:
        _reads_or_names_the_key(section, key, value)


PARSER_CASES = [[], ["--help"], ["-h"], ["--he"], ["foo"], ["conv"], ["converge", "--grid", "3x3"],
                ["converge", "--grids"], ["converge", "--grids", "32,a"],
                ["hadamard", "--grid", "abc"], ["green", "--mass", "x"],
                ["chain", "--seed", "x"], ["run", "a", "b"], ["cones", "extra"],
                *([cmd, "--help"] for cmd in cli.NAMES)]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "no-args")
def test_one_sub_parser_reads_as_all_of_them(argv, capsys, monkeypatch):
    # help, usage and error lines go to the whole parser, one sub-parser per
    # command: help exits 0, a usage error 2
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(argv) in (0, 2)


def test_main_reads_sys_argv_without_argv(monkeypatch, capsys):
    # the console script calls main() with no argv: it reads sys.argv[1:]
    monkeypatch.setattr(sys, "argv", ["moellerlab", "converge", "--grid", "3x3"])
    assert cli.main() == 2
    assert "unrecognized arguments: --grid 3x3" in capsys.readouterr().err


# a value of each flag from the domain it takes, never starting with "-"
_PATHS = st.text(max_size=12).filter(lambda s: not s.startswith("-"))
FLAG_VALUES = {
    "--seed": st.integers(0, 10**9).map(str),
    "--out": _PATHS,
    "--grid": st.tuples(st.integers(1, 4096), st.integers(1, 4096)).map("{0[0]}x{0[1]}".format),
    "--mass": st.floats(1e-3, 1e3).map(repr),
    "--preset": st.sampled_from(["minkowski", "warped", "tilted", "rotated-minkowski", "x"]),
    "--grids": st.lists(st.integers(1, 4096).map(str), min_size=1, max_size=4).map(",".join),
}


@st.composite
def plain_argvs(draw):
    """A command, a random subset of its flags in random order, and for run
    perhaps a config path among them."""
    cmd = draw(st.sampled_from(cli.NAMES))
    flags = ["--out"] if cmd == "run" else ["--seed", "--out", *cli.COMMANDS[cmd][1]]
    flags = draw(st.permutations(flags))[:draw(st.integers(0, len(flags)))]
    words = [[flag] if flag == "--dense-kernels" else [flag, draw(FLAG_VALUES[flag])]
             for flag in flags]  # the store-true flag is bare
    if cmd == "run" and draw(st.booleans()):
        words.insert(draw(st.integers(0, len(words))), [draw(_PATHS)])
    return [cmd, *(w for group in words for w in group)]


@settings(max_examples=300, deadline=None)
@given(plain_argvs())
def test_plain_reader_gives_argparse_namespace(argv):
    # the reader main tries first gives what the full parser gives
    assert vars(cli._plain_args(argv)) == vars(cli._parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    *PARSER_CASES, ["converge", "--seed=3"], ["converge", "--seed", "1", "--seed", "2"],
    ["green", "--mass", "-1"], ["cones", "--"], ["run", "-"], ["converge", "--out"],
    ["converge", "--grids", "32,64", "--out"], ["run", "--o", "x"], ["green", "--dense-kernels", "x"],
], ids=lambda argv: " ".join(argv) or "no-args")
def test_plain_reader_leaves_the_rest_to_argparse(argv):
    assert cli._plain_args(argv) is None


def test_plain_command_line_imports_no_argparse(tmp_path, monkeypatch, capsys):
    # in a fresh interpreter a plain run neither imports nor builds argparse
    # and writes the report argparse's reading gives; a line argparse must
    # refuse still gets its exit code and text
    script = f"""
import sys
from moellerlab import cli
print(cli.main(["converge", "--grids", "32,64", "--out", {str(tmp_path / "plain")!r}]))
print("argparse" in sys.modules)
print(cli.main(["converge", "--grid", "3x3"]))
"""
    monkeypatch.setenv("COLUMNS", "80")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.stdout.split() == ["0", "False", "2"], out.stderr
    assert cli.main(["converge", "--grids=32,64", "--out", str(tmp_path / "argparse")]) == 0
    assert cli.main(["converge", "--grid", "3x3"]) == 2
    assert out.stderr == capsys.readouterr().err
    assert ((tmp_path / "plain" / "report.json").read_bytes()
            == (tmp_path / "argparse" / "report.json").read_bytes())


def _has_mallopt():
    import ctypes
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt (not glibc)")
def test_main_keeps_freed_pages_for_the_next_temporaries(tmp_path):
    # in a fresh interpreter, after main, a pass of 0.5-3 MiB temporaries
    # made and freed twice faults in at most the pages of its live set: the
    # freed blocks stay mapped for the next pass.  With glibc's adaptive
    # thresholds each pass faults about the whole live set again.
    script = f"""
import resource
import numpy as np
from moellerlab import cli
assert cli.main(["cones", "--out", {str(tmp_path)!r}]) == 0
sizes = [s << 10 for s in (512, 3072, 1024, 2560, 1536, 2048)]  # bytes
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(2):
    live = [np.ones(n // 8) for n in sizes]
    del live
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, sum(sizes))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    faults, live_bytes = (int(v) for v in out.stdout.split())
    assert faults <= live_bytes // 4096, faults


def test_import_sets_no_allocator_option():
    # importing the package opens no C library handle: only main sets the
    # allocator thresholds
    script = """
import ctypes
opened = []
real = ctypes.CDLL
ctypes.CDLL = lambda *a, **k: opened.append(a) or real(*a, **k)
import moellerlab, moellerlab.cli, moellerlab.suites
print(len(opened))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0"]


class _NoMallopt:
    pass


def _raise_oserror(name):
    raise OSError(f"no library {name!r}")


@pytest.mark.parametrize("cdll", [_raise_oserror, lambda name: _NoMallopt()],
                         ids=["no-libc-handle", "no-mallopt"])
def test_main_runs_where_libc_has_no_mallopt(cdll, tmp_path, monkeypatch):
    # musl, macOS and Windows: main sets nothing and writes the same report
    argv = ["converge", "--grids", "32,64", "--out"]
    assert cli.main([*argv, str(tmp_path / "glibc")]) == 0
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli.main([*argv, str(tmp_path / "other")]) == 0
    assert ((tmp_path / "other" / "report.json").read_bytes()
            == (tmp_path / "glibc" / "report.json").read_bytes())
