"""Run the fixed set of cldirac commands on one source tree.

    python3 tools/report_set.py SRC OUT

SRC is the ``src`` directory of a checkout; it is the ``PYTHONPATH`` of
every command, so the commands run that tree's code.  Each case writes
its reports into ``OUT/<case>``:

* ``verify_seed1`` .. ``verify_seed3`` and ``condition_seed1`` ..
  ``condition_seed3``: both commands at their defaults and seeds 1-3;
* ``verify_n7``: ``verify --n-max 7 --trials 3``;
* ``condition_long``: ``condition --long``;
* ``sin_zeros`` and ``constant``: the bundled presets;
* ``torus_large``: ``sin_zeros`` at N = 256, s = 8, 32 (perfbench's
  ``torus_large`` workload);
* ``known_defect``: ``sin_zeros`` at N = 128, s = 32, 64, 128, the config
  whose s = 128 mass is known to be wrong (ROADMAP, "Known defect").

The commands run in OUT with relative paths (``--out <case>``, and the two
derived configs as ``configs/<case>.cfg``, made from SRC's bundled
``sin_zeros.cfg``), so the reports of two trees record the same
``manifest.params``, and ``tools/report_diff.py OUT_A OUT_B`` compares them
case by case.  ``OMP_NUM_THREADS=1`` makes the reports reproducible.

Prints one line per case with its exit code.  Exit codes: 0 every case
wrote its reports (each command exited 0 or 1), 1 a case exited otherwise,
2 usage error (SRC is not a source tree, or OUT exists and is not empty).
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

DERIVED = {  # case: the keys it sets in the bundled sin_zeros.cfg
    "torus_large": {"N": "256", "s_values": "8, 32"},
    "known_defect": {"N": "128", "s_values": "32, 64, 128"},
}


def cases() -> list[tuple[str, list[str]]]:
    """(case, cldirac arguments before --out), in the order they run."""
    out = []
    for command in ("verify", "condition"):
        out += [(f"{command}_seed{seed}", [command, "--seed", str(seed)])
                for seed in (1, 2, 3)]
    out += [("verify_n7", ["verify", "--n-max", "7", "--trials", "3"]),
            ("condition_long", ["condition", "--long"]),
            ("sin_zeros", ["simulate", "sin_zeros.cfg"]),
            ("constant", ["simulate", "constant.cfg"])]
    out += [(case, ["simulate", f"configs/{case}.cfg"]) for case in DERIVED]
    return out


def derived_config(preset: str, keys: dict) -> str:
    """The preset text with each `key = value` line of keys replaced."""
    for key, value in keys.items():
        preset, count = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", preset)
        if count != 1:
            raise ValueError(f"the preset has {count} lines for {key}")
    return preset


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the fixed set of cldirac commands on one source tree.")
    parser.add_argument("src", help="the src directory of a checkout")
    parser.add_argument("out", help="a new or empty output directory")
    args = parser.parse_args(argv)
    src, out = os.path.abspath(args.src), os.path.abspath(args.out)
    preset_path = os.path.join(src, "cldirac", "torus", "presets", "sin_zeros.cfg")
    if not os.path.isfile(preset_path):
        print(f"error: not a cldirac source tree: {args.src}", file=sys.stderr)
        return 2
    if os.path.exists(out) and (not os.path.isdir(out) or os.listdir(out)):
        print(f"error: {args.out} exists and is not an empty directory",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(out, "configs"))
    with open(preset_path, encoding="utf-8") as fh:
        preset = fh.read()
    for case, keys in DERIVED.items():
        with open(os.path.join(out, "configs", f"{case}.cfg"), "w",
                  encoding="utf-8") as fh:
            fh.write(derived_config(preset, keys))
    env = dict(os.environ, OMP_NUM_THREADS="1", PYTHONPATH=src)
    failed = 0
    for case, command in cases():
        with open(os.path.join(out, f"{case}.log"), "w", encoding="utf-8") as log:
            code = subprocess.run(
                [sys.executable, "-m", "cldirac", *command, "--out", case],
                cwd=out, env=env, stdout=log, stderr=subprocess.STDOUT,
                check=False).returncode
        print(f"{case}: exit {code}")
        failed += code not in (0, 1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
