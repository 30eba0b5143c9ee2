"""Command-line front end: identity suites, condition sweeps, simulations.

Exit codes: 0 all checks pass, 1 an assertion failed, 2 usage or config
error.  Every JSON report embeds a run manifest (command, arguments,
versions, seed, wall time, pass/fail counts) and a schema version.  Outputs
are deterministic for fixed seed, config, and thread count 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import time

from . import SCHEMA_VERSION, __version__
from .errors import UsageError
from .suites import condition_suite, verify_suite


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "cldirac": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _manifest(command: str, params: dict, seed, t0: float, counts: dict) -> dict:
    return {
        "command": command,
        "params": params,
        "versions": _versions(),
        "seed": seed,
        "wall_time_s": round(time.monotonic() - t0, 3),
        "counts": counts,
    }


@contextlib.contextmanager
def _writing(out_dir: str):
    """Create the report directory; an OSError while writing into it exits
    as a usage error."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        yield
    except OSError as exc:
        raise UsageError(f"cannot write the report to {out_dir}: {exc}") from exc


def _write_json(out_dir: str, name: str, payload: dict, echo: bool) -> str:
    path = os.path.join(out_dir, name)
    with _writing(out_dir), open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    if echo:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return path


def _cmd_verify(args) -> int:
    n_max = args.n_max if args.n_max is not None else (7 if args.long else 4)
    t0 = time.monotonic()
    records = verify_suite(n_max=n_max, trials=args.trials, seed=args.seed)
    failures = [r for r in records if not r.passed]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "entries": [r.to_dict() for r in records],
        "manifest": _manifest(
            "verify",
            {"n_max": n_max, "trials": args.trials, "long": args.long},
            args.seed, t0,
            {"pass": len(records) - len(failures), "fail": len(failures)}),
    }
    path = _write_json(args.out, "verify.json", payload, args.json)
    identities = sorted({r.identity for r in records})
    for name in identities:
        rows = [r for r in records if r.identity == name]
        bad = sum(1 for r in rows if not r.passed)
        status = "ok " if bad == 0 else "FAIL"
        print(f"[{status}] {name}: {len(rows)} (n,p) entries, "
              f"{sum(r.trials for r in rows)} checks, {bad} failing entries")
    for r in failures[:10]:
        print(f"    counterexample {r.identity} n={r.n} p={r.p}: "
              f"{r.counterexample}")
    print(f"report: {path}")
    return 0 if not failures else 1


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag} expects a comma-separated integer list") from exc


_CONDITION_LINES = {
    "correct": lambda row: (f"n={row['n']} r={row['r']} {row['phi_class']}: "
                            f"max defect {row['max_defect']} over {row['trials']} trials"),
    "wrong": lambda row: (f"n={row['n']} wrong class ({row['phi_class']}): "
                          f"nonzero-defect rate {row['nonzero_rate']:.3f}"),
    "odd_rank": lambda row: (f"n={row['n']} r={row['r']} antisymmetric: "
                             + (f"det = 0 in {row['trials']}/{row['trials']} trials"
                                if row["all_singular"] else "nonsingular draw found")),
}


def _cmd_condition(args) -> int:
    if args.n_list is not None:
        n_list = _parse_int_list(args.n_list, "--n-list")
    else:
        n_list = [1, 3, 5, 7] if args.long else [1, 3]
    r_list = _parse_int_list(args.r_list, "--r-list")
    t0 = time.monotonic()
    report = condition_suite(n_list, r_list, trials=args.trials,
                             seed=args.seed, wrong_trials=args.wrong_trials)
    verdicts = list(report.verdicts())
    failures = sum(1 for _kind, _row, ok in verdicts if not ok)
    payload = {
        "schema_version": SCHEMA_VERSION,
        **report.to_dict(),
        "manifest": _manifest(
            "condition",
            {"n_list": n_list, "r_list": r_list, "trials": args.trials,
             "wrong_trials": args.wrong_trials},
            args.seed, t0,
            {"pass": len(verdicts) - failures, "fail": failures}),
    }
    path = _write_json(args.out, "condition.json", payload, args.json)
    for kind, row, ok in verdicts:
        print(f"[{'ok ' if ok else 'FAIL'}] {_CONDITION_LINES[kind](row)}")
    print(f"report: {path}")
    return 0 if not failures else 1


def _resolve_config(path: str):
    from .torus.config import preset_path
    if os.path.exists(path):
        return path
    bundled = preset_path(os.path.basename(path))
    if bundled.is_file():
        return bundled
    raise UsageError(f"config file not found: {path}")


def _cmd_simulate(args) -> int:
    from .torus.config import ConfigError, load_config
    from .torus.heatmap import write_heatmap_svg
    from .torus.sweep import check_sweep, row_counts, run_sweep

    try:
        config = load_config(_resolve_config(args.config))
    except ConfigError as exc:
        raise UsageError(f"bad config: {exc}") from exc
    t0 = time.monotonic()
    report = run_sweep(config)
    problems = check_sweep(report, config)

    payload = report.to_dict()
    payload["assertions"] = {"passed": not problems, "problems": problems}
    payload["manifest"] = _manifest(
        "simulate", {"config": str(args.config)}, config.seed, t0,
        row_counts(report, config))
    path = _write_json(args.out, "simulate.json", payload, args.json)

    csv_path = os.path.join(args.out, "simulate.csv")
    with _writing(args.out):
        report.write_csv(csv_path)
        for row, density in zip(report.rows, report.fields):
            svg_path = os.path.join(args.out, f"heatmap_s{row.s:g}.svg")
            write_heatmap_svg(svg_path, density, report.zeros, config.delta,
                              title=f"|zeta|^2 at s = {row.s:g}")

    for r in report.rows:
        print(f"[{'ok ' if r.converged else 'FAIL'}] s={r.s:g}: "
              f"sigma_min={r.sigma_min:.6g} outside_mass={r.outside_mass:.6g} "
              f"({r.iterations} iterations, {r.seconds:.2f}s)")
    for p in problems:
        print(f"[FAIL] {p}")
    print(f"report: {path}; table: {csv_path}")
    return 0 if not problems else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cldirac",
        description=("Verify the exact fiber identities, check the "
                     "concentrating condition, and run flat-torus "
                     "concentration sweeps."))
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the exact identity suites")
    p_verify.add_argument("--n-max", type=int, default=None,
                          help="largest complex dimension (default 4; 7 with --long)")
    p_verify.add_argument("--trials", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--out", default=".", help="report directory")
    p_verify.add_argument("--json", action="store_true",
                          help="also print the JSON report to stdout")
    p_verify.add_argument("--long", action="store_true",
                          help="enable the n = 7 exact suites")
    p_verify.set_defaults(fn=_cmd_verify)

    p_cond = sub.add_parser("condition",
                            help="check the concentrating condition by class")
    p_cond.add_argument("--n-list", default=None,
                        help="comma-separated odd dimensions (default 1,3; "
                             "1,3,5,7 with --long)")
    p_cond.add_argument("--r-list", default="1,2,3,4")
    p_cond.add_argument("--trials", type=int, default=50)
    p_cond.add_argument("--wrong-trials", type=int, default=200)
    p_cond.add_argument("--seed", type=int, default=2)
    p_cond.add_argument("--out", default=".")
    p_cond.add_argument("--json", action="store_true")
    p_cond.add_argument("--long", action="store_true")
    p_cond.set_defaults(fn=_cmd_condition)

    p_sim = sub.add_parser("simulate", help="run a torus deformation sweep")
    p_sim.add_argument("config",
                       help="config file path or bundled preset name "
                            "(sin_zeros.cfg, constant.cfg)")
    p_sim.add_argument("--out", default=".")
    p_sim.add_argument("--json", action="store_true")
    p_sim.set_defaults(fn=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if os.path.exists(args.out) and not os.path.isdir(args.out):
            raise UsageError(f"--out is not a directory: {args.out}")
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
