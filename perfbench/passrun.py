"""One pass over a workload's job list, in a fresh interpreter.

Run by run.py as ``python passrun.py --workload W --order 2,0,1 ...``.
Every job runs in this process, one at a time: CLI jobs through
``gradeforge.cli.main(argv)`` with stdout and stderr captured, API jobs
through the public API.  Prints one JSON object on stdout: the pass wall
time, the pass time in calibration units, this process's peak resident
memory, each job's exit code, time and output, and, when asked, per-layer
totals from a traced pass and the scaling probes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter

from jobs import WORKLOADS, run_api
from tracing import Tracer


def run_job(job, cli) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.argv is not None:
                rc = cli.main(list(job.argv))
            else:
                out.write(run_api(job.api))
                rc = 0
    except SystemExit as exc:          # argparse rejects its input
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:           # an API job failed; record and go on
        rc = 1
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - t0
    return {"name": job.name, "rc": rc, "seconds": seconds,
            "output": out.getvalue(), "stderr": err.getvalue()[-2000:]}


# The host's speed swings by up to 2x for seconds to minutes as other tenants
# load it.  A fixed calibration kernel runs before the first job, then after
# any job that ends at least this long after the previous calibration.  Each
# job's time is divided by the mean of the two calibrations before it and the
# two after it, which cancels most of the swing; the sum is the pass time in
# calibration units (wall_calib).
CALIB_EVERY_S = 0.5


def calibrate() -> float:
    """Seconds for fixed work that shares no code with gradeforge: big-integer
    products, Fraction sums and tuple-keyed dict updates."""
    t0 = perf_counter()
    x = 7 ** 60000
    for _ in range(8):
        x * x
    acc = Fraction(0)
    for n in range(1, 2000):
        acc += Fraction(n, n * n + 1)
    counts: dict = {}
    for i in range(66000):
        key = (i % 997, i % 991)
        counts[key] = counts.get(key, 0) + i
    return perf_counter() - t0


def _slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def scaling_probes() -> dict:
    """Time expand_branch and diagonal_extract at two or more sizes each."""
    from gradeforge.algebraic import expand_branch
    from gradeforge.catalog import CORPUS_ANNIHILATORS
    from gradeforge.diagonals import (diagonal_extract, diagonal_witness,
                                      product_lift)

    catalan = CORPUS_ANNIHILATORS["catalan"]
    expand = [(n, _median_time(lambda: expand_branch(catalan, n), reps))
              for n, reps in ((256, 7), (512, 3), (1024, 1))]
    witness = diagonal_witness(CORPUS_ANNIHILATORS["central-binomial"], 6)
    square = product_lift([witness, witness])
    extract = [(order, _median_time(lambda: diagonal_extract(square, order), 1))
               for order in (5, 6)]
    return {
        "algebraic.expand_branch.scaling_exp": _slope(expand),
        "diagonals.diagonal_extract.scaling_exp": _slope(extract),
        "points": {"expand_branch": expand, "diagonal_extract": extract},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--order", required=True,
                    help="comma-separated job indices, in run order")
    ap.add_argument("--trace", metavar="SPANS",
                    help="trace the pass and write its spans to this gzip TSV")
    ap.add_argument("--probes", action="store_true")
    args = ap.parse_args()

    from gradeforge import cli

    jobs = WORKLOADS[args.workload].jobs
    order = [int(i) for i in args.order.split(",")]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    results = []
    calib = [calibrate()]
    since = perf_counter()
    for n, i in enumerate(order):
        if tracer is not None:
            tracer.job = jobs[i].name
        result = run_job(jobs[i], cli)
        # calib[-1] is the last calibration before this job; the next one
        # taken, after this job or a later one, is the first after it.
        result["calib_before"] = len(calib) - 1
        results.append(result)
        if perf_counter() - since >= CALIB_EVERY_S or n == len(order) - 1:
            calib.append(calibrate())
            since = perf_counter()
    wall = sum(r["seconds"] for r in results)
    wall_calib = sum(
        r["seconds"] / statistics.fmean(
            calib[max(0, r["calib_before"] - 1):r["calib_before"] + 3])
        for r in results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {"wall_s": wall, "wall_calib": wall_calib, "calib_s": calib,
              "rss_mb": rss_mb, "jobs": results}
    if tracer is not None:
        layers = tracer.layer_totals()
        layers["cli.main.output_bytes"] = sum(
            len(r["output"].encode()) for i, r in zip(order, results)
            if jobs[i].argv is not None)
        report["layers"] = layers
        tracer.write(args.trace)
    if args.probes:
        report["probes"] = scaling_probes()
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
