#!/usr/bin/env python3
"""Census of kernel closures for the algebraic corpus mod p^r.

Runs the full pipeline (branch expansion, reduction mod p^r, kernel
closure) for each series and modulus, printing state counts and the
number of terms the closure needed.  Exact expansion cost grows quickly
with the term count, so the defaults stay at desk scale; push --moduli
or --max-depth higher to reproduce the deeper entries, and expect the
central binomials mod 25 and mod 49 to refuse to close at any budget a
desk can afford.
"""

import argparse
import sys
import time

from gradeforge.automata import KernelBudgets, christol_report
from gradeforge.catalog import CORPUS_ANNIHILATORS
from gradeforge.config import DEFAULTS
from gradeforge.errors import PrimeDividesDenominator


def factor_prime_power(m: int) -> tuple[int, int]:
    for p in range(2, m + 1):
        if m % p == 0:
            r = 0
            while m % p == 0:
                m //= p
                r += 1
            if m != 1:
                raise SystemExit("moduli must be prime powers")
            return p, r
    raise SystemExit("moduli must be at least 2")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--names", nargs="*",
                    default=sorted(CORPUS_ANNIHILATORS))
    ap.add_argument("--moduli", nargs="*", type=int, default=[2, 3, 4],
                    help="prime-power moduli (default: 2 3 4)")
    ap.add_argument("--max-depth", type=int, default=None,
                    help="depth cap (default: the per-base rule)")
    ap.add_argument("--length", type=int, default=DEFAULTS.fingerprint_length,
                    help="fingerprint length")
    args = ap.parse_args(argv)

    print(f"{'series':<18}  {'mod':>4}  {'states':>6}  {'terms':>7}  "
          f"{'status':<18}  {'time':>7}")
    for name in args.names:
        for modulus in args.moduli:
            p, r = factor_prime_power(modulus)
            budgets = None
            if args.max_depth is not None:
                budgets = KernelBudgets(
                    DEFAULTS.max_states, args.max_depth, args.length
                )
            t0 = time.perf_counter()
            try:
                rep = christol_report(
                    CORPUS_ANNIHILATORS[name], p, r, budgets=budgets
                )
            except PrimeDividesDenominator as exc:
                print(f"{name:<18}  {modulus:>4}  {'-':>6}  {'-':>7}  "
                      f"{'denominator hits ' + str(exc.p):<18}")
                continue
            elapsed = time.perf_counter() - t0
            aut = rep.automaton
            print(f"{name:<18}  {modulus:>4}  {rep.state_count:>6}  "
                  f"{aut.truncation:>7}  {rep.status:<18}  {elapsed:>6.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
