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


@pytest.mark.parametrize("suite", TINY_SECTIONS)
def test_each_suite_reads_exactly_its_declared_keys(suite):
    from moellerlab.suites import SECTION_KEYS

    section = _Recording(TINY_SECTIONS[suite])
    cli.run_scenario({"suites": [suite], suite: section})
    assert section.read == SECTION_KEYS[suite]


def test_reversed_pair_reads_exactly_its_declared_keys(capsys):
    from moellerlab.suites import SECTION_KEYS

    scenario = _Recording(name="r", kind="reversed-pair", nt=8, nx=8)
    assert cli.execute([scenario]) == 0
    assert scenario.read == SECTION_KEYS["reversed-pair"]


def test_bundled_and_flag_keys_are_declared():
    from moellerlab.suites import SECTION_KEYS, SUITES

    for path in Path(cli._bundled("")).glob("*.json"):
        cfg = json.loads(path.read_text())
        for sc in cfg if isinstance(cfg, list) else [cfg]:
            if sc.get("kind") == "reversed-pair":
                assert set(sc) <= SECTION_KEYS["reversed-pair"], path.name
            for suite in SUITES:
                assert set(sc.get(suite, {})) <= SECTION_KEYS[suite], (path.name, suite)
    for suite, flags in cli.COMMANDS.values():
        for key in filter(None, flags.values()):
            assert set(key.split(",")) <= SECTION_KEYS[suite], (suite, key)


@pytest.mark.parametrize("cfg, message", [
    ({"suites": ["cones", "green"], "cones": {"pairs": 8},
      "green": {"nt": 16, "nx": 16, "cout": 1, "pairs": 2}},
     "unknown green section keys: ['cout']; green section takes ['count', "),
    ({"name": "r", "kind": "reversed-pair", "nt": 8, "mx": 8},
     "unknown reversed-pair scenario keys: ['mx']; reversed-pair scenario takes ['kind', "),
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


PARSER_CASES = [[], ["--help"], ["-h"], ["--he"], ["foo"], ["conv"], ["converge", "--grid", "3x3"],
                ["converge", "--grids"], ["hadamard", "--grid", "abc"], ["green", "--mass", "x"],
                ["chain", "--seed", "x"], ["run", "a", "b"], ["cones", "extra"],
                *([cmd, "--help"] for cmd in cli.NAMES)]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "no-args")
def test_one_sub_parser_reads_as_all_of_them(argv, capsys, monkeypatch):
    # main builds only the sub-parser its first argument names (all of them
    # when it names none); every help, usage and error text, and the exit
    # code, is the same as with a parser that has every command
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    one = cli._parser
    monkeypatch.setattr(cli, "_parser", lambda names: built.append(list(names)) or one(names))
    rc = cli.main(argv)
    mine = (rc, *capsys.readouterr())
    named = argv[:1] if argv[:1] and argv[0] in cli.NAMES else cli.NAMES
    assert built == [named]
    monkeypatch.setattr(cli, "_parser", lambda names: one(cli.NAMES))
    rc = cli.main(argv)
    assert mine == (rc, *capsys.readouterr())
    assert rc in (0, 2)


def test_main_reads_sys_argv_without_argv(monkeypatch, capsys):
    # the console script calls main() with no argv: it reads sys.argv[1:]
    # and builds the sub-parser the first argument names
    built = []
    one = cli._parser
    monkeypatch.setattr(cli, "_parser", lambda names: built.append(list(names)) or one(names))
    monkeypatch.setattr(sys, "argv", ["moellerlab", "converge", "--grid", "3x3"])
    assert cli.main() == 2
    assert built == [["converge"]]
    assert "unrecognized arguments: --grid 3x3" in capsys.readouterr().err


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
