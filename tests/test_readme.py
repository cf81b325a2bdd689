import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    # the Quick tour's blocks build on each other, so they share one namespace;
    # a name the README imports that the package no longer has fails here
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "orientation-reversal" in capsys.readouterr().out


def test_readme_lists_every_config_key_with_its_default():
    # the README's table of sections holds each key of suites.CONFIG with its
    # default, as JSON; a suite section's own default ({}) is said in the text
    from moellerlab.suites import CONFIG, read_section

    listed = dict(re.findall(r"^\| `([\w-]+)` \| `(.*)` \|$", README.read_text(), re.M))
    assert listed == {section: json.dumps({k: default for k, (read, default) in rows.items()
                                           if read is not read_section})[1:-1]
                      for section, rows in CONFIG.items()}


def test_readme_moller_paragraph_names_every_law_of_the_battery():
    # the moller suite's paragraph names, in report order, each law that
    # verify_moller_identities returns, the dense one included; each is a
    # moller row of reports.LAWS
    from moellerlab import geometry as geo
    from moellerlab import moller as mo
    from moellerlab.lattice import make_grid
    from moellerlab.reports import LAWS

    grid = make_grid(16, 16, 0.0, 0.5, 1.0)
    R = mo.compose_chain(geo.build_chain(geo.metric_preset("minkowski", grid),
                                         geo.metric_preset("conformal", grid, mu=2.0)))
    laws = list(mo.verify_moller_identities(R, mo.random_dictionary(grid, 2, seed=1, window=(4, 12)),
                                            dense=True, sympl_pairs=1))
    assert all(LAWS[law].suite == "moller" for law in laws)
    [paragraph] = re.findall(r"^The `moller` suite builds.*?\n\n", README.read_text(), re.S | re.M)
    assert [name for name in re.findall(r"`(\w+)`", paragraph) if name in LAWS] == laws
