"""Counts from two traced passes at one seed must repeat exactly.

    python3 -m pytest perfbench/test_counts.py

Each workload's traced pass runs twice in fresh processes with the same
seed (and so the same PYTHONHASHSEED).  Every span count, every LOBPCG
iteration count and the matvec count must agree; a difference means a
pass did different work, and the benchmark could not compare two builds.
Takes about three minutes.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import tempfile
import time

import pytest

import run

ROOT = os.path.dirname(run.HERE)


def _traced_counts(workload: str, seed: int, work_dir: str) -> dict:
    spans_file = os.path.join(work_dir, "spans.jsonl.gz")
    record = run.run_pass(workload, seed, ROOT, work_dir, time.monotonic() + 170,
                          ("--trace", spans_file))
    assert not record["problems"], record["problems"]
    with gzip.open(spans_file, "rt", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    counts = {f"span.{name}": n for name, n in header["counters"].items()}
    counts.update({name: value for name, value in record["per_layer"].items()
                   if name.endswith(".calls") or name.startswith("eigensolve.iters.")
                   or name == "eigensolve.restarts"})
    return counts


@pytest.mark.parametrize("workload", ["torus_small", "exact"])
def test_traced_counts_repeat(workload):
    os.makedirs(os.path.join(ROOT, run.OUT_DIR), exist_ok=True)
    base = tempfile.mkdtemp(prefix="test-", dir=os.path.join(ROOT, run.OUT_DIR))
    try:
        first = _traced_counts(workload, 3, os.path.join(base, "a"))
        second = _traced_counts(workload, 3, os.path.join(base, "b"))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    assert first == second
    work = "span.suites.family" if workload == "exact" else "span.eigensolve.lobpcg"
    assert first[work] > 0
