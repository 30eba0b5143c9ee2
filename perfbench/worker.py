"""One pass of one workload in a fresh process, as a user runs it.

Started by ``run.py`` with OMP_NUM_THREADS=1, a fixed PYTHONHASHSEED and
``src`` on PYTHONPATH.  Set-up (imports and input generation) ends at the
first ``cldirac.cli.main`` call; the monotonic clock is shared with the
parent, which started its timer just before spawning this process.  The
pass result is written as JSON to ``--result``; the commands' own output
goes to stdout, which the parent sends to a log file.

Modes: ``--setup-only`` stops after set-up; ``--trace`` records spans
(tracing.py) and adds the scalar and kernel micro-timings; ``--profile``
runs the workload's calls under cProfile and reports the share of time in
``cldirac.scalars`` + ``fractions``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

# Set-up: every import a command may need is paid before the first main().
import numpy
import scipy
import scipy.sparse.linalg
import cldirac.cli
import cldirac.torus.heatmap
import cldirac.torus.sweep

import workloads


def _median_us(fn, items, repeats=7) -> float:
    """Median over ``repeats`` of the mean time per call of ``fn`` on items."""
    runs = []
    for _ in range(repeats):
        t = time.perf_counter()
        for item in items:
            fn(*item)
        runs.append((time.perf_counter() - t) / len(items))
    return 1e6 * statistics.median(runs)


def micro_timings(seed: int) -> dict:
    """Exact scalar ops on operands from ``fiber.random_scalar`` and the
    numpy matvec pair.  They attribute time; by themselves they move no
    end-to-end metric."""
    import random

    from cldirac.fiber import FiberContext, random_scalar
    from cldirac.torus import kernels

    ctx = FiberContext(2)
    rng = random.Random(seed)

    def nonzero():
        while True:
            z = random_scalar(ctx, rng)
            if z:
                return z

    plain = [(random_scalar(ctx, rng), random_scalar(ctx, rng)) for _ in range(400)]
    mixed = [(nonzero() + nonzero() * ctx.sqrt2, nonzero() + nonzero() * ctx.sqrt2)
             for _ in range(400)]
    out = {
        "scalars.mul_add_us": _median_us(lambda a, b: a * b + a, plain),
        "scalars.mul_sqrt2_us": _median_us(lambda a, b: a * b, mixed),
        "scalars.inverse_us": _median_us(lambda a, _b: a.inverse(), mixed),
    }
    gen = numpy.random.default_rng(seed)
    for n, reps in ((64, 40), (256, 6)):
        u = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        w = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        h = 2 * numpy.pi / n

        def pair(u=u, w=w, h=h):
            kernels.dst_apply(kernels.ds_apply(u, w, 8.0, h), w, 8.0, h)
        out[f"kernels.matvec_pair_us.n{n}"] = _median_us(pair, [()] * reps)
    # computed, not measured: each apply reads its field and w and writes
    # one field, all complex128 (16 B per site)
    out["kernels.bytes_per_pair.n256"] = 2 * 3 * 16 * 256 * 256
    return out


def profiled_share(calls) -> float:
    import cProfile
    import pstats

    profile = cProfile.Profile()
    profile.enable()
    for call in calls:
        cldirac.cli.main(call.argv)
    profile.disable()
    stats = pstats.Stats(profile)
    inside = sum(row[2] for key, row in stats.stats.items()
                 if key[0].endswith((os.path.join("cldirac", "scalars.py"),
                                     "fractions.py")))
    return inside / stats.total_tt if stats.total_tt else 0.0


def run_calls(calls, tracer) -> list:
    records = []
    for call in calls:
        run = cldirac.cli.main
        if tracer is not None:
            run = tracer.wrap(run, "cli.report")
        t = time.perf_counter()
        try:
            rc = run(call.argv)
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - the gate counts the crash
            print(f"crash in {call.label}: {exc!r}", file=sys.stderr)
            rc = None
        records.append({"label": call.label, "rc": rc,
                        "seconds": time.perf_counter() - t})
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", metavar="SPANS_FILE")
    mode.add_argument("--profile", action="store_true")
    args = ap.parse_args()

    calls = workloads.make_calls(args.workload, args.seed, os.getcwd(),
                                 args.work_dir, sample=args.profile)
    result = {"setup_end": time.monotonic()}
    if args.profile:
        result["scalars.self_share"] = profiled_share(calls)
    elif not args.setup_only:
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer(args.workload)
            tracer.install()
        result["calls"] = run_calls(calls, tracer)
        if tracer is not None:
            result["per_layer"] = tracing.per_layer(tracer.spans)
            result["per_layer"].update(micro_timings(args.seed))
            tracer.write(args.trace, args.seed, tracing.counters(tracer.spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
