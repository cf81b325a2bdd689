"""List what moved between two sets of golden reports.

Usage (from the root of a checkout):

    python tests/golden/moved.py OLD_DIR NEW_DIR

Compares each ``*.json`` file of OLD_DIR with the file of the same name in
NEW_DIR (``tests/golden/regenerate.py DIR`` writes such a directory) and
prints one line per difference: each float that moved by more than the
golden allowance, as its path, old value, new value and the tolerance of
the law it belongs to, and each other difference (a string, an integer, a
verdict, a key, a list's length, a missing file).  Exits 1 when anything
is printed, 0 when the new set holds to the old one.  ``tests/test_golden.py``
holds reports to their golden files with the same rule, :func:`differences`.
"""

import json
import math
import sys
from pathlib import Path

REL = 1e-6  # a float may move by REL times the larger of |old| and its law's tolerance


def differences(new, old, tolerance=None, where="report"):
    """Yield (where, old, new, tolerance) for each value of new that does not hold to old.

    A float holds when it is within REL * max(|old|, tolerance) of old, where
    tolerance is that of the check (a dict with a ``law``) it sits in, None
    outside one; a non-finite float holds only when it is the same value.
    Everything else holds only when it is equal and of the same type.  A
    dict with other keys or another key order, or a list of another length,
    is one difference, yielded with its keys or length and not searched.
    """
    if isinstance(old, dict):
        if not isinstance(new, dict) or list(new) != list(old):
            yield where, list(old), list(new) if isinstance(new, dict) else new, None
            return
        if "law" in old:  # a check: its floats are measured against its tolerance
            where, tolerance = f"{where}[{old['law']}]", old["tolerance"]
        for key in old:
            yield from differences(new[key], old[key], tolerance, f"{where}.{key}")
    elif isinstance(old, list):
        if not isinstance(new, list) or len(new) != len(old):
            yield where, len(old), len(new) if isinstance(new, list) else new, None
            return
        for k, (a, b) in enumerate(zip(new, old)):
            yield from differences(a, b, tolerance, f"{where}[{k}]")
    elif isinstance(old, float) and isinstance(new, float):
        if math.isfinite(old):
            held = abs(new - old) <= REL * max(abs(old), tolerance or 0.0)
        else:
            held = new == old or math.isnan(new) and math.isnan(old)
        if not held:
            yield where, old, new, tolerance
    elif type(new) is not type(old) or new != old:
        yield where, old, new, None


def moved(old_dir, new_dir):
    """Every difference between the report sets in two directories, file by file."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    for name in sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*.json")}):
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            yield name, old.exists(), new.exists(), None  # whether each side has the file
            continue
        yield from differences(json.loads(new.read_text()), json.loads(old.read_text()),
                               where=name)


def main(argv):
    if len(argv) != 2:
        print("usage: python tests/golden/moved.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    found = 0
    for where, old, new, tolerance in moved(*argv):
        found += 1
        print(f"{where}: {old!r} -> {new!r}" + ("" if tolerance is None else f" (tolerance {tolerance!r})"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
