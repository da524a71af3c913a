#!/usr/bin/env python3
"""Cross-check the two exponential-integral evaluators over a z grid.

Prints the quadrature value, the branch-formula value, their gap, and
the quadrature error estimate.  The branch formula loses accuracy as z
shrinks (alternating terms in 1/z grow before they cancel), which shows
up in the gap column and eventually as a refusal to evaluate.
"""

import argparse
import sys

from gradeforge.analytic import (
    QuadratureConfig,
    euler_branch_formula,
    euler_derivative_check,
    euler_integral,
)
from gradeforge.cli import reports_errors
from gradeforge.config import DEFAULTS
from gradeforge.errors import InsufficientTerms


@reports_errors
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "-z", type=float, nargs="*",
        default=[0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
        help="evaluation points (default: a six-point grid)",
    )
    ap.add_argument("--terms", type=int, default=DEFAULTS.branch_terms,
                    help="series length for the branch formula")
    ap.add_argument("--nodes", type=int, default=DEFAULTS.laguerre_nodes,
                    help="Gauss-Laguerre node count")
    ap.add_argument("--derivatives", action="store_true",
                    help="also check derivatives at 0 against (n!)^2")
    args = ap.parse_args(argv)

    cfg = QuadratureConfig(nodes=args.nodes)
    print(f"{'z':>8}  {'quadrature':>18}  {'branch formula':>18}  {'gap':>10}")
    for z in args.z:
        quad = euler_integral(z, cfg)
        try:
            branch = euler_branch_formula(z, terms=args.terms)
            branch_s = f"{branch:>18.12f}"
            gap_s = f"{abs(quad - branch):>10.2e}"
        except InsufficientTerms:
            branch_s = f"{'(needs more terms)':>18}"
            gap_s = f"{'-':>10}"
        print(f"{z:>8.3f}  {quad:>18.12f}  {branch_s}  {gap_s}")

    if args.derivatives:
        print("\nderivative checks at 0 (central differences vs (-1)^n (n!)^2):")
        for n in range(4):
            est, ref, rel = euler_derivative_check(n, cfg)
            print(f"  order {n}: estimate {est:+.6f}  exact {ref:+.6f}  "
                  f"rel {rel:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
