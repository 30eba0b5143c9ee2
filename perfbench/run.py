"""Benchmark of the three cldirac commands, end to end and layer by layer.

    python3 perfbench/run.py --workload exact|torus_small|torus_large \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass runs the workload's
commands in one fresh process (worker.py) with OMP_NUM_THREADS=1 and a
PYTHONHASHSEED derived from the seed; passes repeat while the next one is
predicted to end within ``--seconds``, and every pass is checked by the
gate in workloads.py.  ``--trace 0`` reports the end-to-end metrics
(medians over passes); ``--trace 1`` runs one untraced pass, the same pass
traced, and a cProfile pass, and reports the per-layer metrics.  The last
line of stdout is one JSON object; spans and a run record are written
under ``.perfbench_out/``.  README.md explains every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 3     # extra set-up-only processes per timed run
BUDGET_S = 170.0     # a run must end within 180 s

# What first_call_s and last_call_s time on each workload.
CALL_NAMES = {"exact": ("verify_s", "condition_s"),
              "torus_small": ("sin_zeros_s", "constant_s"),
              "torus_large": ("sin_zeros_s", "sin_zeros_s")}


def pass_env(workload: str, seed: int, root: str) -> dict:
    src = os.path.join(root, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                MKL_NUM_THREADS="1",
                PYTHONHASHSEED=str(workloads.hash_seed(workload, seed)),
                PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_pass(workload: str, seed: int, root: str, work_dir: str,
             deadline: float, mode: tuple = ()) -> dict:
    """Spawn one worker and gate its reports.  ``mode`` is extra worker
    flags (``--setup-only``, ``--trace FILE``, ``--profile``)."""
    os.makedirs(work_dir, exist_ok=True)
    result_path = os.path.join(work_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--work-dir", work_dir, "--result", result_path, *mode]
    log_path = os.path.join(work_dir, "worker.log")
    record = {"seed": seed, "mode": list(mode), "problems": []}
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=root, env=pass_env(workload, seed, root),
                                  stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - t0))
            exit_code = proc.returncode
        except subprocess.TimeoutExpired:
            exit_code = "timeout"
        record["wall_s"] = time.monotonic() - t0
    result = {}
    if exit_code == 0:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        record["setup_s"] = result["setup_end"] - t0
        record["peak_rss_mb"] = result["peak_rss_mb"]
    else:
        record["problems"].append(f"worker exit {exit_code}")
    for key in ("calls", "per_layer", "scalars.self_share"):
        if key in result:
            record[key] = result[key]
    if "--setup-only" in mode:
        record["attempted"] = record["failed"] = 0
        return _finish(record, log_path)

    calls = workloads.make_calls(workload, seed, root, work_dir,
                                 sample="--profile" in mode)
    record["attempted"] = sum(workloads.verdict_count(c) for c in calls)
    if "--profile" in mode:
        # cProfile runs main() itself; the gate reads its reports
        rcs = [0 if exit_code == 0 else None] * len(calls)
    else:
        by_label = {c["label"]: c["rc"] for c in result.get("calls", [])}
        rcs = [by_label.get(c.label) for c in calls]
    record["failed"] = 0
    for call, rc in zip(calls, rcs):
        failed, problems = workloads.check_call(call, rc)
        record["failed"] += failed
        record["problems"] += problems
    return _finish(record, log_path)


def _finish(record: dict, log_path: str) -> dict:
    if record["problems"]:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        print(f"pass problems: {record['problems']}\n{tail}", file=sys.stderr)
    return record


def timed_run(workload, seed, seconds, root, run_dir, deadline) -> tuple:
    """Set-up probes, then passes while the next is predicted to end
    within ``seconds``.  Returns (values, passes)."""
    probes = [run_pass(workload, seed, root, os.path.join(run_dir, f"probe{i}"),
                       deadline, ("--setup-only",))
              for i in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        index = len(passes)
        passes.append(run_pass(workload, workloads.pass_seed(seed, index), root,
                               os.path.join(run_dir, f"pass{index}"), deadline))
        now = time.monotonic()
        longest = max(p["wall_s"] for p in passes)
        if now - start + longest > seconds or now + 1.5 * longest > deadline:
            break
    ok = [p for p in passes if "calls" in p]

    def median(values):
        return statistics.median(values) if values else 0.0
    values = {
        "setup_s": median([p["setup_s"] for p in probes + passes if "setup_s" in p]),
        "wall_s": median([p["wall_s"] for p in ok]),
        "first_call_s": median([p["calls"][0]["seconds"] for p in ok]),
        "last_call_s": median([p["calls"][-1]["seconds"] for p in ok]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in ok]),
    }
    return values, probes + passes


def traced_run(workload, seed, root, run_dir, deadline) -> tuple:
    """Untraced pass, the same pass traced, and a cProfile pass (on a
    smaller sample for ``exact``).  Returns (values, passes)."""
    spans_file = os.path.join(root, OUT_DIR, f"trace-{workload}-seed{seed}.jsonl.gz")
    plain = run_pass(workload, seed, root, os.path.join(run_dir, "plain"), deadline)
    traced = run_pass(workload, seed, root, os.path.join(run_dir, "traced"),
                      deadline, ("--trace", spans_file))
    profiled = run_pass(workload, seed, root, os.path.join(run_dir, "profiled"),
                        deadline, ("--profile",))
    layers = dict(traced.get("per_layer", {}))
    layers["scalars.self_share"] = profiled.get("scalars.self_share", 0.0)
    if "calls" in plain and "calls" in traced:
        untraced_s = sum(c["seconds"] for c in plain["calls"])
        traced_s = sum(c["seconds"] for c in traced["calls"])
        layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return layers, [plain, traced, profiled]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cldirac", "cli.py")):
        print("error: run from the root of a cldirac checkout (src/cldirac "
              "not found)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, OUT_DIR))
    try:
        if args.trace:
            values, passes = traced_run(args.workload, args.seed, root, run_dir,
                                        deadline)
        else:
            values, passes = timed_run(args.workload, args.seed, args.seconds,
                                       root, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    # BENCHMARK.json names the metrics; a failed pass leaves some unmeasured
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"no value for {missing}", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    broken = [p for p in passes if p["problems"]]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": {"OMP_NUM_THREADS": "1",
                      "PYTHONHASHSEED": [workloads.hash_seed(args.workload, p["seed"])
                                         for p in passes]},
              "passes": passes, "metrics": metrics}
    with open(os.path.join(root, OUT_DIR,
                           f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} processes, OMP_NUM_THREADS=1, PYTHONHASHSEED="
          f"{sorted(set(record['env']['PYTHONHASHSEED']))}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        first, last = CALL_NAMES[args.workload]
        print(f"  (first_call_s is {first}, last_call_s is {last})")
    print(f"  failed_frac {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} verdicts)")
    print(json.dumps({"correct": not (broken or missing) and failed == 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
