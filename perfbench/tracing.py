"""Spans around the calls into each cldirac layer, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper in
every loaded ``cldirac`` module that binds it, so calls are seen whichever
module makes them, and ``src/`` is not edited.  A span is
``[name, start, end, parent, attrs]``; spans stay in memory and are written
when the pass ends.  Self time is a span's duration minus the durations of
its direct children.  ``per_layer`` turns the spans into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

from workloads import VERIFY_FAMILIES

# (module, attribute, span name).  Each family of spans names a layer; the
# README says which end-to-end metric each one should move.
FUNCTIONS = (
    ("cldirac.fiber", "wedge", "fiber.wedge"),
    ("cldirac.fiber", "contract", "fiber.contract"),
    ("cldirac.fiber", "inner", "fiber.inner"),
    ("cldirac.fiber", "random_form", "fiber.random_form"),
    ("cldirac.fiber", "random_covector", "fiber.random_covector"),
    ("cldirac.fiber", "random_nonzero_covector", "fiber.random_nonzero_covector"),
    ("cldirac.hodge", "bar_star", "hodge.bar_star"),
    ("cldirac.hodge", "tau", "hodge.tau"),
    ("cldirac.hodge", "tau_graded", "hodge.tau_graded"),
    ("cldirac.hodge", "tau_adjoint_defect", "hodge.tau_adjoint_defect"),
    ("cldirac.clifford", "clifford", "clifford.clifford"),
    ("cldirac.clifford", "symbol", "clifford.symbol"),
    ("cldirac.perturbation", "concentrating_defect", "perturbation.concentrating_defect"),
    ("cldirac.perturbation", "singular_verdict", "perturbation.singular_verdict"),
    ("cldirac.perturbation", "random_phi", "perturbation.random_phi"),
    ("cldirac.perturbation", "random_nonzero_phi", "perturbation.random_nonzero_phi"),
    ("cldirac.suites", "verify_suite", "suites.verify_suite"),
    ("cldirac.suites", "condition_suite", "suites.condition_suite"),
    ("cldirac.suites", "_run", "suites.family"),
    ("cldirac.suites", "_star_defining_exhaustive", "suites.star_defining"),
    ("cldirac.torus.config", "load_config", "config.load_config"),
    ("cldirac.torus.config", "phi_field", "config.phi_field"),
    ("cldirac.torus.config", "zero_locations", "config.zero_locations"),
    ("cldirac.torus.sweep", "run_sweep", "sweep.run_sweep"),
    ("cldirac.torus.sweep", "outside_mass", "sweep.outside_mass"),
    ("cldirac.torus.eigensolve", "normal_eigenpairs", "eigensolve.solve"),
    ("cldirac.torus.eigensolve", "lobpcg", "eigensolve.lobpcg"),
    ("cldirac.torus.operators", "flat_to_complex", "operators.flat_convert"),
    ("cldirac.torus.operators", "complex_to_flat", "operators.flat_convert"),
    ("cldirac.torus.kernels", "ds_apply", "kernels.ds_apply"),
    ("cldirac.torus.kernels", "dst_apply", "kernels.dst_apply"),
    ("cldirac.torus.heatmap", "write_heatmap_svg", "heatmap.write"),
)

# Attributes recorded when a span ends, from (args, kwargs, result).
ATTRS = {
    "suites.family": lambda a, k, r: {"identity": a[0], "trials": a[3]},
    "suites.star_defining": lambda a, k, r: {"identity": "star_defining",
                                             "trials": r[0]},
    "eigensolve.solve": lambda a, k, r: {
        "preset": a[1].preset_kind, "s": a[0].s, "iters": r.iterations,
        "converged": r.all_converged},
    "eigensolve.lobpcg": lambda a, k, r: {
        "iters": len(r[2]), "history": [[float(v) for v in row] for row in r[2]]},
}

SPAN_LAYERS = ("fiber.wedge", "fiber.contract", "fiber.inner",
               "fiber.random_form", "hodge.bar_star", "hodge.tau",
               "hodge.tau_graded", "hodge.tau_adjoint_defect",
               "clifford.clifford", "clifford.symbol",
               "perturbation.concentrating_defect",
               "perturbation.singular_verdict", "perturbation.random_phi",
               "eigensolve.precond", "operators.flat_convert",
               "kernels.ds_apply", "kernels.dst_apply", "heatmap.write")
SELF_ONLY = ("sweep.outside_mass", "config.phi_field", "config.zero_locations",
             "cli.report", "eigensolve.lobpcg")
PRESETS = {"sin_zeros": (8, 16, 32, 64), "constant": (8, 16, 32, 64)}


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self.stack = []

    def wrap(self, fn, name, attrs=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Wrap every function in FUNCTIONS wherever cldirac binds it."""
        from cldirac.torus import eigensolve, operators

        modules = [m for name, m in sorted(sys.modules.items())
                   if name.split(".")[0] == "cldirac" and m is not None]
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            _rebind(modules, original, self.wrap(original, span, ATTRS.get(span)))
        operators.TorusOperator.normal_matvec = self.wrap(
            operators.TorusOperator.normal_matvec, "operators.normal_matvec")
        precond_factory = eigensolve.fourier_preconditioner

        def fourier_preconditioner(op):
            return self.wrap(precond_factory(op), "eigensolve.precond")
        _rebind(modules, precond_factory, fourier_preconditioner)

    def write(self, path: str, seed: int, counters: dict):
        """Spans and counters as gzipped JSON lines: one header line with
        the counters and the LOBPCG residual-norm history of each solve,
        then ``[name, start, end, parent, workload, attrs]`` per span."""
        histories = []
        for rec in self.spans:
            if rec[0] == "eigensolve.lobpcg":
                solve = _ancestor(self.spans, rec[3], "eigensolve.solve")
                histories.append({
                    "solve": None if solve is None else self.spans[solve][4],
                    "history": rec[4].pop("history")})
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": self.workload, "seed": seed,
                                 "counters": counters,
                                 "residual_histories": histories}) + "\n")
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.workload,
                                     attrs]) + "\n")


def _rebind(modules, original, replacement):
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _ancestor(spans, index, name):
    while index >= 0:
        if spans[index][0] == name:
            return index
        index = spans[index][3]
    return None


def _self_times(spans):
    child = [0.0] * len(spans)
    for _name, start, end, parent, _attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_n, start, end, _p, _a) in enumerate(spans)]


def _condition_phases(spans, durations):
    """ms per trial of each condition-suite phase.

    The suite has no per-phase function, so its direct children are
    attributed in order: ``random_covector`` opens a matched-class trial,
    ``random_nonzero_phi`` a wrong-class trial and ``singular_verdict`` an
    odd-rank trial; a ``random_phi`` belongs to the trial of the next call.
    """
    time_s = {"correct": 0.0, "wrong": 0.0, "odd_rank": 0.0}
    trials = dict.fromkeys(time_s, 0)
    opens = {"fiber.random_covector": "correct",
             "perturbation.random_nonzero_phi": "wrong",
             "perturbation.singular_verdict": "odd_rank"}
    roots = {i for i, rec in enumerate(spans) if rec[0] == "suites.condition_suite"}
    phase, pending = None, 0.0
    for i, rec in enumerate(spans):
        if rec[3] not in roots:
            continue
        if rec[0] == "perturbation.random_phi":
            pending += durations[i]
            continue
        if rec[0] in opens:
            phase = opens[rec[0]]
            trials[phase] += 1
        if phase is not None:
            time_s[phase] += durations[i] + pending
            pending = 0.0
    return {f"suites.condition.{p}.ms_per_trial":
            1e3 * time_s[p] / trials[p] if trials[p] else 0.0 for p in time_s}


def per_layer(spans) -> dict:
    """Per-layer counts and self times from one traced pass."""
    durations = [rec[2] - rec[1] for rec in spans]
    calls, self_by = counters(spans), {}
    for rec, t in zip(spans, _self_times(spans)):
        self_by[rec[0]] = self_by.get(rec[0], 0.0) + t
    out = {}
    for name in SPAN_LAYERS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_by.get(name, 0.0)
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = self_by.get(name, 0.0)
    out["operators.normal_matvec.calls"] = calls.get("operators.normal_matvec", 0)

    family_s, family_trials = {}, {}
    for rec, d in zip(spans, durations):
        if rec[0] in ("suites.family", "suites.star_defining"):
            ident = rec[4]["identity"]
            family_s[ident] = family_s.get(ident, 0.0) + d
            family_trials[ident] = family_trials.get(ident, 0) + rec[4]["trials"]
    for ident in VERIFY_FAMILIES:
        n = family_trials.get(ident, 0)
        out[f"suites.{ident}.ms_per_trial"] = 1e3 * family_s[ident] / n if n else 0.0
    out.update(_condition_phases(spans, durations))

    solves = [rec[4] for rec in spans if rec[0] == "eigensolve.solve"]
    for preset, s_values in PRESETS.items():
        for s in s_values:
            out[f"eigensolve.iters.{preset}.s{s}"] = sum(
                a["iters"] for a in solves if a["preset"] == preset and a["s"] == s)
    iters = sum(a["iters"] for a in solves)
    lobpcg = [i for i, rec in enumerate(spans) if rec[0] == "eigensolve.lobpcg"]
    out["eigensolve.restarts"] = len(lobpcg) - len(solves)
    out["eigensolve.converged_frac"] = (
        sum(1 for a in solves if a["converged"]) / len(solves) if solves else 0.0)
    out["eigensolve.ms_per_iter"] = (
        1e3 * sum(durations[i] for i in lobpcg) / iters if iters else 0.0)
    in_lobpcg = sum(1 for i, rec in enumerate(spans)
                    if rec[0] == "operators.normal_matvec"
                    and _ancestor(spans, rec[3], "eigensolve.lobpcg") is not None)
    out["eigensolve.matvecs_per_iter"] = in_lobpcg / iters if iters else 0.0
    return out


def counters(spans) -> dict:
    """Span count per name."""
    calls = {}
    for rec in spans:
        calls[rec[0]] = calls.get(rec[0], 0) + 1
    return calls
