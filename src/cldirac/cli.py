"""Command-line front end: identity suites, condition sweeps, simulations.

Each command parses its arguments, calls the library and hands the report
it gets back to ``_finish``.  The report decides: ``verdicts()`` is one
bool per record (verify) or row (condition, simulate), ``to_dict()`` the
body of the JSON report and ``lines()`` what is printed, so the CLI decides
no verdict.  ``_finish`` writes ``<command>.json`` with a schema version and
a run manifest (command, arguments, versions, seed, wall time, pass/fail
counts over the verdicts), prints the lines, and returns the exit code.

Exit codes: 0 every verdict passed, 1 a verdict failed, 2 usage or config
error.  Outputs are deterministic for fixed seed, config, and thread
count 1.
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
from .suites import VerifyReport, condition_suite, verify_suite


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "cldirac": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
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


def _finish(args, report, name: str, params: dict, seed, t0: float) -> int:
    """Write ``<name>.json`` (schema version, the report body, the run
    manifest), print the report's lines, and return the exit code: 1 when
    any of the report's verdicts failed."""
    verdicts = report.verdicts()
    failed = verdicts.count(False)
    payload = {
        "schema_version": SCHEMA_VERSION,
        **report.to_dict(),
        "manifest": {
            "command": name,
            "params": params,
            "versions": _versions(),
            "seed": seed,
            "wall_time_s": round(time.monotonic() - t0, 3),
            "counts": {"pass": len(verdicts) - failed, "fail": failed},
        },
    }
    path = os.path.join(args.out, f"{name}.json")
    with _writing(args.out), open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    for line in report.lines():
        print(line)
    print(f"report: {path}")
    return 1 if failed else 0


def _reject_long_with(args, flag: str, value):
    """--long picks the dimensions itself, so an explicit one beside it is
    a usage error rather than a silent override."""
    if args.long and value is not None:
        raise UsageError(f"--long sets the dimensions; give --long or {flag}, "
                         "not both")


def _cmd_verify(args) -> int:
    _reject_long_with(args, "--n-max", args.n_max)
    n_max = args.n_max if args.n_max is not None else (7 if args.long else 4)
    t0 = time.monotonic()
    report = VerifyReport(verify_suite(n_max=n_max, trials=args.trials,
                                       seed=args.seed))
    return _finish(args, report, "verify",
                   {"n_max": n_max, "trials": args.trials, "long": args.long},
                   args.seed, t0)


def _parse_int_list(text: str, flag: str) -> list[int]:
    """The integers of a comma-separated list; an empty entry (a doubled,
    leading or trailing comma) is a usage error, not a value to drop."""
    tokens = text.split(",")
    if any(not tok.strip() for tok in tokens):
        raise UsageError(f"{flag} has an empty entry: {text!r}")
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise UsageError(f"{flag} expects a comma-separated integer list") from exc


def _cmd_condition(args) -> int:
    _reject_long_with(args, "--n-list", args.n_list)
    if args.n_list is not None:
        n_list = _parse_int_list(args.n_list, "--n-list")
    else:
        n_list = [1, 3, 5, 7] if args.long else [1, 3]
    r_list = _parse_int_list(args.r_list, "--r-list")
    t0 = time.monotonic()
    report = condition_suite(n_list, r_list, trials=args.trials,
                             seed=args.seed, wrong_trials=args.wrong_trials)
    return _finish(args, report, "condition",
                   {"n_list": n_list, "r_list": r_list, "trials": args.trials,
                    "wrong_trials": args.wrong_trials},
                   args.seed, t0)


def _resolve_config(path: str):
    """The config file at ``path``; a bare name with no directory part that
    names no file falls back to the bundled preset of that name."""
    from .torus.config import preset_path
    if os.path.exists(path):
        return path
    bundled = preset_path(path)
    if os.path.basename(path) == path and bundled.is_file():
        return bundled
    raise UsageError(f"config file not found: {path}")


def _cmd_simulate(args) -> int:
    from .torus.config import ConfigError, load_config
    from .torus.heatmap import write_heatmap_svg
    from .torus.sweep import run_sweep

    try:
        config = load_config(_resolve_config(args.config))
    except ConfigError as exc:
        raise UsageError(f"bad config: {exc}") from exc
    t0 = time.monotonic()
    report = run_sweep(config)
    with _writing(args.out):
        report.write_csv(os.path.join(args.out, "simulate.csv"))
        for row, density in zip(report.rows, report.fields):
            svg_path = os.path.join(args.out, f"heatmap_s{row.s:g}.svg")
            write_heatmap_svg(svg_path, density, report.zeros, config.delta,
                              title=f"|zeta|^2 at s = {row.s:g}")
    return _finish(args, report, "simulate", {"config": str(args.config)},
                   config.seed, t0)


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
                        help="comma-separated odd dimensions up to 11 (default 1,3; "
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
