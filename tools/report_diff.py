"""Compare the JSON reports of two cldirac output directories.

    python3 tools/report_diff.py DIR_A DIR_B

Reads ``verify.json``, ``condition.json`` and ``simulate.json`` wherever
either directory has one, and compares each pair field by field.  Timings
are skipped: ``manifest.wall_time_s``, the top-level ``seconds`` and the
``seconds`` of each row of a top-level list (the per-s rows of
``simulate.json``).  Every difference is printed as
``<report>: <JSON path>: <A value> != <B value>``, and a report found on
one side only as ``<report>: only in <DIR>``.

Exit codes: 0 the reports are equal, 1 they differ, 2 usage error (a
directory missing, no report in either, or a report that is not JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPORTS = ("verify.json", "condition.json", "simulate.json")


def _ignored(path: tuple) -> bool:
    """Whether path (a tuple of keys and list indices) is a timing."""
    return (path == ("manifest", "wall_time_s") or path == ("seconds",)
            or (len(path) == 3 and isinstance(path[1], int) and path[2] == "seconds"))


def _path_text(path: tuple) -> str:
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else (f".{key}" if text else key)
    return text or "<root>"


def differences(a, b, path: tuple = ()) -> list:
    """(path, a value, b value) for every field where a and b differ,
    timings skipped; a key or list entry on one side only is a difference
    whose other value is the string "<missing>"."""
    if _ignored(path):
        return []
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in list(a) + [k for k in b if k not in a]:
            out += differences(a.get(key, "<missing>"), b.get(key, "<missing>"),
                               path + (key,))
        return out
    if isinstance(a, list) and isinstance(b, list):
        out = []
        for i in range(max(len(a), len(b))):
            out += differences(a[i] if i < len(a) else "<missing>",
                               b[i] if i < len(b) else "<missing>", path + (i,))
        return out
    # bool is an int in Python, so compare types too: true != 1
    if type(a) is not type(b) or a != b:
        return [(path, a, b)]
    return []


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(dir_a: str, dir_b: str) -> list[str]:
    """One line per difference between the reports of dir_a and dir_b."""
    lines = []
    for name in REPORTS:
        pa, pb = os.path.join(dir_a, name), os.path.join(dir_b, name)
        have_a, have_b = os.path.exists(pa), os.path.exists(pb)
        if have_a != have_b:
            lines.append(f"{name}: only in {dir_a if have_a else dir_b}")
        elif have_a:
            lines += [f"{name}: {_path_text(path)}: {json.dumps(va)} != {json.dumps(vb)}"
                      for path, va, vb in differences(_load(pa), _load(pb))]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the cldirac JSON reports of two directories.")
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not os.path.isdir(d):
            print(f"error: not a directory: {d}", file=sys.stderr)
            return 2
    if not any(os.path.exists(os.path.join(d, name))
               for d in (args.dir_a, args.dir_b) for name in REPORTS):
        print(f"error: no report ({', '.join(REPORTS)}) in either directory",
              file=sys.stderr)
        return 2
    try:
        lines = compare(args.dir_a, args.dir_b)
    except (OSError, ValueError) as exc:     # unreadable, or not JSON
        print(f"error: cannot read a report: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print("reports equal" if not lines else f"{len(lines)} difference(s)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
