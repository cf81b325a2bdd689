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
