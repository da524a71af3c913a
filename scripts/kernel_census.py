#!/usr/bin/env python3
"""Census of kernel closures for the algebraic corpus mod p^r.

Runs the full pipeline for each series and modulus and prints the state
count, the truncation the closure reached and its status.  The residues
come from Newton iteration mod p^r, or, where p divides P_y at the branch
point, from the branch's exact recurrence reduced mod p^r; attempt k of
the closure needs L·q^k of them, so the cost grows geometrically with the
depth k and with the fingerprint length L.  The defaults stay at desk
scale (depth by the per-base rule, L from the configuration); push
--moduli, --max-depth or --length higher to reproduce the deeper entries,
and expect the central binomials mod 25 and mod 49 to refuse to close at
any budget a desk can afford.
"""

import argparse
import sys
import time

from gradeforge.automata import KernelBudgets, christol_report
from gradeforge.catalog import CORPUS_ANNIHILATORS
from gradeforge.cli import reports_errors
from gradeforge.config import DEFAULTS
from gradeforge.errors import PrimeDividesDenominator, SchemaError


def factor_prime_power(m: int) -> tuple[int, int]:
    for p in range(2, m + 1):
        if m % p == 0:
            r, rest = 0, m
            while rest % p == 0:
                rest //= p
                r += 1
            if rest != 1:
                raise SchemaError(f"modulus {m} is not a prime power")
            return p, r
    raise SchemaError(f"modulus {m} is below 2")


def at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@reports_errors
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--names", nargs="*", choices=sorted(CORPUS_ANNIHILATORS),
                    default=sorted(CORPUS_ANNIHILATORS))
    ap.add_argument("--moduli", nargs="*", type=int, default=[2, 3, 4],
                    help="prime-power moduli (default: 2 3 4)")
    ap.add_argument("--max-depth", type=at_least_one, default=None,
                    help="depth cap (default: the per-base rule)")
    ap.add_argument("--length", type=at_least_one,
                    default=DEFAULTS.fingerprint_length,
                    help="fingerprint length L")
    args = ap.parse_args(argv)
    moduli = [(modulus, *factor_prime_power(modulus))
              for modulus in args.moduli]

    print(f"{'series':<18}  {'mod':>4}  {'states':>6}  {'terms':>7}  "
          f"{'status':<18}  {'time':>7}")
    for name in args.names:
        for modulus, p, r in moduli:
            depth = args.max_depth or DEFAULTS.depth_for_base(p)
            budgets = KernelBudgets(DEFAULTS.max_states, depth, args.length)
            t0 = time.perf_counter()
            try:
                aut = christol_report(
                    CORPUS_ANNIHILATORS[name], p, r, budgets=budgets
                )
            except PrimeDividesDenominator as exc:
                print(f"{name:<18}  {modulus:>4}  {'-':>6}  {'-':>7}  "
                      f"{'denominator hits ' + str(exc.p):<18}")
                continue
            elapsed = time.perf_counter() - t0
            print(f"{name:<18}  {modulus:>4}  {len(aut.states):>6}  "
                  f"{aut.truncation:>7}  {aut.status:<18}  {elapsed:>6.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
