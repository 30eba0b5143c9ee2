"""Compare the reports of two cldirac output directories or report sets.

    python3 tools/report_diff.py DIR_A DIR_B

Reads ``verify.json``, ``condition.json`` and ``simulate.json`` wherever
either directory has one, and compares each pair field by field.  Timings
are skipped: ``manifest.wall_time_s``, the top-level ``seconds`` and the
``seconds`` of each row of a top-level list (the per-s rows of
``simulate.json``).  ``simulate.csv`` and every ``heatmap_s*.svg`` are
compared byte for byte.  Every difference is printed as
``<report>: <JSON path>: <A value> != <B value>`` or
``<file>: bytes differ``, and a file found on one side only as
``<file>: only in <DIR>``.

A directory whose subdirectories hold reports is a report set, as
``tools/report_set.py`` writes one: each subdirectory (case) is compared
with the one of the same name, every difference is prefixed with
``<case>/``, and each case ends with ``<case>: reports equal`` or
``<case>: <k> difference(s)``.  A case on one side only prints
``<case>: only in <DIR>``.  The last line is ``reports equal`` or the
number of differences.

Exit codes: 0 the reports are equal, 1 they differ, 2 usage error (a
directory missing, no report in either, or a report that is not JSON).
"""

from __future__ import annotations

import argparse
import filecmp
import fnmatch
import json
import os
import sys

REPORTS = ("verify.json", "condition.json", "simulate.json")
BYTE_FILES = ("simulate.csv", "heatmap_s*.svg")   # compared byte for byte


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


def _byte_files(directory: str) -> set:
    return {name for name in os.listdir(directory)
            if any(fnmatch.fnmatchcase(name, pattern) for pattern in BYTE_FILES)}


def compare(dir_a: str, dir_b: str) -> list[str]:
    """One line per difference between the reports and outputs of dir_a
    and dir_b."""
    lines = []
    for name in REPORTS + tuple(sorted(_byte_files(dir_a) | _byte_files(dir_b))):
        pa, pb = os.path.join(dir_a, name), os.path.join(dir_b, name)
        have_a, have_b = os.path.exists(pa), os.path.exists(pb)
        if have_a != have_b:
            lines.append(f"{name}: only in {dir_a if have_a else dir_b}")
        elif not have_a:
            continue
        elif name in REPORTS:
            lines += [f"{name}: {_path_text(path)}: {json.dumps(va)} != {json.dumps(vb)}"
                      for path, va, vb in differences(_load(pa), _load(pb))]
        elif not filecmp.cmp(pa, pb, shallow=False):
            lines.append(f"{name}: bytes differ")
    return lines


def _holds_report(directory: str) -> bool:
    return any(os.path.exists(os.path.join(directory, name)) for name in REPORTS)


def cases(directory: str) -> set:
    """The subdirectories of directory that hold a report."""
    return {entry.name for entry in os.scandir(directory)
            if entry.is_dir() and _holds_report(entry.path)}


def compare_sets(dir_a: str, dir_b: str) -> tuple[list[str], int]:
    """The lines that compare two report sets case by case, and the number
    of differences among them."""
    lines, count = [], 0
    for case in sorted(cases(dir_a) | cases(dir_b)):
        ca, cb = os.path.join(dir_a, case), os.path.join(dir_b, case)
        if not (os.path.isdir(ca) and os.path.isdir(cb)):
            lines.append(f"{case}: only in {dir_a if os.path.isdir(ca) else dir_b}")
            count += 1
            continue
        found = compare(ca, cb)
        lines += [f"{case}/{line}" for line in found]
        lines.append(f"{case}: {len(found)} difference(s)" if found
                     else f"{case}: reports equal")
        count += len(found)
    return lines, count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the cldirac reports of two directories or report sets.")
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not os.path.isdir(d):
            print(f"error: not a directory: {d}", file=sys.stderr)
            return 2
    flat = _holds_report(args.dir_a) or _holds_report(args.dir_b)
    if not flat and not (cases(args.dir_a) or cases(args.dir_b)):
        print(f"error: no report ({', '.join(REPORTS)}) in either directory "
              "or its subdirectories", file=sys.stderr)
        return 2
    try:
        if flat:
            lines = compare(args.dir_a, args.dir_b)
            count = len(lines)
        else:
            lines, count = compare_sets(args.dir_a, args.dir_b)
    except (OSError, ValueError) as exc:     # unreadable, or not JSON
        print(f"error: cannot read a report: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print("reports equal" if not count else f"{count} difference(s)")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
