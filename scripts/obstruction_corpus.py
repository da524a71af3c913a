#!/usr/bin/env python3
"""Run the grade-obstruction report across the builtin catalog.

One row per series: the verdict, the radius class, the number of primes
in the coefficient denominators, and whether a new prime still appears
in the tail scan window.  Products of catalog entries can be added with
--product NAME NAME to see how verdicts behave under termwise
multiplication.
"""

import argparse
import sys

from gradeforge import expand_builtin, hadamard_mul, obstruction_report
from gradeforge.catalog import builtin_names
from gradeforge.cli import reports_errors
from gradeforge.config import DEFAULTS


@reports_errors
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--terms", type=int, default=64,
                    help="expansion length fed to the detector")
    ap.add_argument("--window", type=int, default=DEFAULTS.window,
                    help="tail window for the prime-support scan")
    ap.add_argument(
        "--product", nargs=2, action="append", metavar=("A", "B"),
        default=[], help="also report on the termwise product A*B",
    )
    args = ap.parse_args(argv)

    rows = [(name, expand_builtin(name, args.terms))
            for name in builtin_names()]
    for a, b in args.product:
        series = hadamard_mul(
            expand_builtin(a, args.terms), expand_builtin(b, args.terms)
        )
        rows.append((f"{a} * {b}", series))

    width = max(len(name) for name, _ in rows)
    print(f"{'series':<{width}}  {'verdict':<24}  {'radius':<18}  "
          f"{'primes':>6}  growing")
    for name, series in rows:
        report = obstruction_report(series, window=args.window)
        print(f"{name:<{width}}  {report.verdict:<24}  "
              f"{report.radius.classification:<18}  "
              f"{len(report.support.primes):>6}  "
              f"{'yes' if report.support.still_growing else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
