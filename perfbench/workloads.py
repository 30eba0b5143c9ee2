"""Workload definitions, input generation and the correctness gate.

A workload is a list of ``cldirac`` command lines, run one after another in
one fresh process (see ``worker.py``).  Inputs are derived from the
benchmark seed only; the program sees nothing but the generated command
arguments and config files.  The gate reads the reports each command wrote
and counts verdicts, so ``failed / attempted`` is the failed fraction.

Why these workloads (see README.md for the layer each metric belongs to):

* ``exact``: ``verify`` then ``condition`` with their defaults.  All work is
  exact Q(i, sqrt2) arithmetic in scalars/fiber/hodge/clifford/perturbation,
  with no numpy; ``verify`` is mostly Q(i) add/mul, ``condition`` uses sqrt2
  factors and ``inverse()``.  It bypasses the torus layers entirely.
* ``torus_small``: both bundled presets at N = 64.  The LOBPCG block fits in
  L2, so time is set by iteration counts, per-call Python overhead and
  imports.  It bypasses the exact layers.
* ``torus_large``: ``sin_zeros`` at N = 256, s = 8, 32.  The block (~25 MB)
  exceeds L2, so per-site cost (stencils, FFT, flat copies, dense block
  work, the 512x512 SVG) dominates.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass, field

# Defaults of ``cldirac verify`` and ``cldirac condition``; the gate derives
# the expected report size from them.
VERIFY_N_MAX = 4
VERIFY_TRIALS = 50
CONDITION_N = (1, 3)
CONDITION_R = (1, 2, 3, 4)
CONDITION_TRIALS = 50
CONDITION_WRONG_TRIALS = 200

# Verify families timed per trial: those with one entry per (n, p), then
# tau_real_adjoint (per k), symbol_clifford_relation (per r) and the
# exhaustive star_defining (per basis pair).
FAMILIES_PER_P = (
    "wedge_anticommute", "wedge_associative", "contract_antiderivation",
    "contract_twice_zero", "star_square", "tau_square", "tau_isometry",
    "star_wedge_shift", "star_contract_shift", "star_clifford_commutation",
    "clifford_square", "clifford_skew_adjoint", "clifford_parity_flip",
    "clifford_real_linear", "adjunction",
)
VERIFY_FAMILIES = FAMILIES_PER_P + (
    "tau_real_adjoint", "symbol_clifford_relation", "star_defining")

WORKLOADS = ("exact", "torus_small", "torus_large")
PRESET_DIR = os.path.join("src", "cldirac", "torus", "presets")


@dataclass
class Call:
    """One ``cldirac.cli.main`` invocation and what its report must hold."""
    label: str            # verify | condition | sin_zeros | constant
    argv: list
    out: str              # report directory of this call
    s_values: tuple = ()  # simulate only
    constant: complex | None = None
    notes: dict = field(default_factory=dict)


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass ``index`` within one run; pass 0 uses the run seed."""
    return seed + 7919 * index


def hash_seed(workload: str, seed: int) -> int:
    """PYTHONHASHSEED for a pass.  The suites seed their RNGs with the
    salted ``hash()``, so without this each process does different work."""
    return zlib.crc32(f"{workload}/{seed}".encode())


def _read_preset(root: str, name: str) -> str:
    with open(os.path.join(root, PRESET_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def _set_keys(text: str, **values) -> str:
    lines = []
    for line in text.splitlines():
        key = line.split("=", 1)[0].strip()
        if "=" in line and key in values:
            line = f"{key} = {values.pop(key)}"
        lines.append(line)
    if values:
        raise KeyError(f"preset lacks keys {sorted(values)}")
    return "\n".join(lines) + "\n"


def _config_keys(text: str) -> dict:
    keys = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        if "=" in line:
            key, _, val = line.partition("=")
            keys[key.strip()] = val.strip()
    return keys


def _simulate_call(label: str, text: str, work_dir: str) -> Call:
    cfg = os.path.join(work_dir, f"{label}.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(text)
    keys = _config_keys(text)
    preset = keys["phi_preset"]
    constant = None
    if preset.startswith("constant("):
        constant = complex(preset[len("constant("):].rstrip(") ").replace(" ", ""))
    out = os.path.join(work_dir, label)
    return Call(label, ["simulate", cfg, "--out", out], out,
                s_values=tuple(float(s) for s in keys["s_values"].split(",")),
                constant=constant)


def make_calls(workload: str, seed: int, root: str, work_dir: str,
               sample: bool = False) -> list[Call]:
    """Generate the inputs of one pass into ``work_dir`` and return its calls.

    ``sample`` shrinks the exact suites for the cProfile pass, which would
    otherwise run three times slower than the workload itself.
    """
    os.makedirs(work_dir, exist_ok=True)
    if workload == "exact":
        n_max, trials = (3, 5) if sample else (VERIFY_N_MAX, VERIFY_TRIALS)
        c_trials, c_wrong = (5, 20) if sample else (CONDITION_TRIALS,
                                                    CONDITION_WRONG_TRIALS)
        v_out = os.path.join(work_dir, "verify")
        c_out = os.path.join(work_dir, "condition")
        verify = ["verify", "--seed", str(seed), "--out", v_out]
        condition = ["condition", "--seed", str(seed + 1), "--out", c_out]
        if sample:
            verify += ["--n-max", str(n_max), "--trials", str(trials)]
            condition += ["--trials", str(c_trials), "--wrong-trials", str(c_wrong)]
        return [Call("verify", verify, v_out,
                     notes={"n_max": n_max, "trials": trials}),
                Call("condition", condition, c_out,
                     notes={"trials": c_trials, "wrong_trials": c_wrong})]
    # The torus presets keep their bundled solver seed: the benchmark seed
    # only sets PYTHONHASHSEED here (see README.md, "Seeds").
    if workload == "torus_small":
        return [_simulate_call(name, _read_preset(root, f"{name}.cfg"), work_dir)
                for name in ("sin_zeros", "constant")]
    if workload == "torus_large":
        text = _set_keys(_read_preset(root, "sin_zeros.cfg"),
                         N=256, s_values="8, 32")
        return [_simulate_call("sin_zeros", text, work_dir)]
    raise ValueError(f"unknown workload {workload!r}")


# -- correctness gate ----------------------------------------------------------

def expected_verify(n_max: int, trials: int) -> tuple[int, int]:
    """(entries, total checks) that ``verify_suite`` must report."""
    entries = checks = 0
    for n in range(1, n_max + 1):
        entries += len(FAMILIES_PER_P) * (n + 1) + (2 * n + 1) + 4
        checks += trials * (len(FAMILIES_PER_P) * (n + 1) + 2 * n + 1)
        checks += 4 * max(1, trials // 10)
        if n <= 5:
            # star_defining pairs all same-bidegree basis forms:
            # sum over p, q of (C(n,p) C(n,q))^2 = C(2n,n)^2
            entries += n + 1
            checks += math.comb(2 * n, n) ** 2
    for n in range(1, 9):  # epsilon_shift, one check per (n, p)
        entries += n + 1
        checks += n + 1
    return entries, checks


def expected_condition() -> int:
    n, r = len(CONDITION_N), len(CONDITION_R)
    odd_r = sum(1 for x in CONDITION_R if x % 2)
    return n * r + n + n * odd_r


def verdict_count(call: Call) -> int:
    """Verdicts a call contributes, known before it runs, so a crash
    counts every one of them as failed."""
    if call.label == "verify":
        return expected_verify(call.notes["n_max"], call.notes["trials"])[0] + 1
    if call.label == "condition":
        return expected_condition() + 1
    per_s = 2 if call.constant is not None else 1
    return per_s * len(call.s_values) + 2


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_call(call: Call, rc) -> tuple[int, list[str]]:
    """Gate one call: (failed verdicts, problems).  ``rc`` is the exit code,
    or None when the call raised."""
    total = verdict_count(call)
    if rc != 0:
        return total, [f"{call.label}: exit {rc}"]
    check = {"verify": _check_verify, "condition": _check_condition}.get(
        call.label, _check_simulate)
    try:
        failed, problems = check(call)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return total, [f"{call.label}: unreadable report ({exc!r})"]
    return min(failed, total), problems


def _check_verify(call: Call):
    entries = _load(os.path.join(call.out, "verify.json"))["entries"]
    want_entries, want_checks = expected_verify(call.notes["n_max"],
                                                call.notes["trials"])
    failed = sum(1 for e in entries if e["failures"] != 0)
    failed += max(0, want_entries - len(entries))
    problems = [f"verify: {failed} failing or missing entries"] if failed else []
    checks = sum(e["trials"] for e in entries)
    if checks != want_checks or len(entries) != want_entries:
        failed += 1
        problems.append(f"verify: {len(entries)} entries / {checks} checks, "
                        f"expected {want_entries} / {want_checks}")
    return failed, problems


def _check_condition(call: Call):
    body = _load(os.path.join(call.out, "condition.json"))
    rows = len(body["correct_class"]) + len(body["wrong_class"]) + len(body["odd_rank_det"])
    failed = (sum(1 for r in body["correct_class"]
                  if r["failures"] != 0 or r["trials"] != call.notes["trials"])
              + sum(1 for r in body["wrong_class"]
                    if r["nonzero_rate"] < 0.95
                    or r["trials"] != call.notes["wrong_trials"])
              + sum(1 for r in body["odd_rank_det"] if not r["all_singular"]))
    failed += max(0, expected_condition() - rows)
    problems = [f"condition: {failed} failing or missing rows"] if failed else []
    if body.get("passed") is not True or rows != expected_condition():
        failed += 1
        problems.append("condition: report not passed or wrong row count")
    return failed, problems


def _check_simulate(call: Call):
    body = _load(os.path.join(call.out, "simulate.json"))
    results = {float(r["s"]): r for r in body["results"]}
    failed, problems = 0, []
    for s in call.s_values:
        row = results.get(s)
        if row is None or not row["converged"]:
            failed += 1
            problems.append(f"{call.label}: s={s:g} missing or not converged")
        if call.constant is not None:
            # independent check: sigma_min(D_s) = s |w| for constant w
            want = s * abs(call.constant)
            if row is None or abs(row["sigma_min"] - want) > 0.01 * want:
                failed += 1
                problems.append(f"{call.label}: sigma_min at s={s:g} is not "
                                f"{want:g} within 1%")
    if body["assertions"]["passed"] is not True:
        failed += 1
        problems.append(f"{call.label}: assertions {body['assertions']['problems']}")
    with open(os.path.join(call.out, "simulate.csv"), encoding="utf-8") as fh:
        csv_rows = sum(1 for _ in fh) - 1
    svgs = [f for f in os.listdir(call.out) if f.endswith(".svg")]
    if csv_rows != len(call.s_values) or len(svgs) != len(call.s_values):
        failed += 1
        problems.append(f"{call.label}: {csv_rows} CSV rows and {len(svgs)} "
                        f"heatmaps for {len(call.s_values)} s values")
    return failed, problems
