"""The names that perfbench's tracer wraps still exist and are still called.

``perfbench/tracing.py`` rebinds cldirac functions by module and name from
outside ``src/``; a renamed or bypassed function makes its layer read zero
calls instead of failing.  ``Tracer.install()`` rebinds module globals, so
the probe runs in a fresh interpreter.  Like ``run.py --trace 1``, the probe
then runs ``worker.micro_timings``, which calls the kernels directly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import json, os, sys
perfbench, src, out = sys.argv[1:]
sys.path[:0] = [perfbench, src]
import cldirac.cli, cldirac.torus.heatmap, cldirac.torus.sweep  # as worker.py
import tracing

tracer = tracing.Tracer("contract")
tracer.install()
cfg = os.path.join(out, "small.cfg")
with open(cfg, "w") as fh:
    fh.write("N = 16\\ns_values = 4, 8\\nphi_preset = sin_zeros\\ndelta = 0.5\\n"
             "eig_count = 2\\neig_tol = 1e-7\\nseed = 5\\nmax_iterations = 100\\n")
codes = [cldirac.cli.main(argv + ["--out", out]) for argv in (
    ["verify", "--n-max", "1", "--trials", "1"],
    ["condition", "--n-list", "1", "--r-list", "1", "--trials", "1",
     "--wrong-trials", "1"],
    ["simulate", cfg])]
layers = tracing.per_layer(tracer.spans)
# the trials perfbench reads from _run's arguments and from
# _star_defining_exhaustive's result
traced = sum(rec[4]["trials"] for rec in tracer.spans
             if rec[0] in ("suites.family", "suites.star_defining"))
import worker  # as --trace 1: the micro-timings run after the commands
micro = worker.micro_timings(1)
print(json.dumps({"codes": codes, "layers": layers, "micro": micro,
                  "traced_trials": traced}))
"""

REACHED = (
    "fiber.wedge", "fiber.contract", "fiber.inner", "fiber.random_form",
    "hodge.bar_star", "hodge.tau", "hodge.tau_graded", "hodge.tau_adjoint_defect",
    "clifford.clifford", "clifford.symbol",
    "perturbation.concentrating_defect", "perturbation.singular_verdict",
    "perturbation.random_phi",
    "eigensolve.precond", "operators.flat_convert", "operators.normal_matvec",
    "heatmap.write",
)


def test_every_traced_layer_is_called(tmp_path):
    env = dict(os.environ, OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    layers = result["layers"]
    assert [name for name in REACHED if not layers[f"{name}.calls"] > 0] == []
    # the per-family rows are labelled by the traced trial counts
    entries = json.loads((tmp_path / "verify.json").read_text())["entries"]
    assert result["traced_trials"] == sum(
        e["trials"] for e in entries if e["identity"] != "epsilon_shift")
    # the micro-timings call the FFT kernels by position on (n, n) bands
    assert all(result["micro"][f"kernels.matvec_pair_us.n{n}"] > 0 for n in (64, 256))
