"""Evidence scans for infinite Hadamard grade.

Three semi-decision tests over a truncated series, each a necessary-condition
check run in reverse: unbounded denominator prime support, growth too fast
for any positive radius of convergence, and (for ±1 coefficient sequences)
failure of eventual periodicity.  Firing any one of them is *evidence* — a
truncation can never prove infinitude, so every report carries the
truncation order it was computed from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .config import DEFAULTS
from .errors import NotSignSequence, SchemaError, TooSparse, TruncationExceeded
from .series import TruncSeries

TRIAL_DIVISION_BOUND = 10 ** 6
#: The first 13 primes: Miller–Rabin to these bases is exact below
#: MILLER_RABIN_EXACT_BELOW (Sorenson and Webster 2017).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
#: Pollard–Brent gives up on a cofactor after about this many iterations.
POLLARD_BRENT_STEPS = 1 << 16
_BRENT_BATCH = 128


class PrimeSupportScan(NamedTuple):
    """Primes dividing coefficient denominators, with first-occurrence index.

    `incomplete` lists indices whose denominator kept a part that could not
    be split into certified primes: Pollard–Brent ran out of steps, or a
    probable prime lies above MILLER_RABIN_EXACT_BELOW.  No prime in
    `primes` is uncertified.
    """

    primes: tuple[tuple[int, int], ...]
    still_growing: bool
    incomplete: tuple[int, ...]


class RadiusEstimate(NamedTuple):
    beta: float
    classification: str


@dataclass(frozen=True)
class Periodicity:
    """Outcome of the ±1 periodicity scan (report form)."""

    kind: str  # eventually-periodic | aperiodic-up-to | not-a-sign-sequence
    preperiod: Optional[int] = None
    period: Optional[int] = None
    bound: Optional[int] = None

    def to_json_dict(self) -> dict:
        if self.kind == "eventually-periodic":
            return {
                "kind": self.kind,
                "preperiod": self.preperiod,
                "period": self.period,
            }
        if self.kind == "aperiodic-up-to":
            return {"kind": self.kind, "bound": self.bound}
        return {"kind": self.kind}


def is_prime(n: int) -> bool:
    """Exact primality test for n < MILLER_RABIN_EXACT_BELOW.

    Raises SchemaError at or above that bound, where Miller–Rabin to the
    bases MILLER_RABIN_BASES is no longer a proof.
    """
    if n >= MILLER_RABIN_EXACT_BELOW:
        raise SchemaError(
            f"primality is certified only below {MILLER_RABIN_EXACT_BELOW}")
    if n <= MILLER_RABIN_BASES[-1]:
        return n in MILLER_RABIN_BASES
    return n % 2 == 1 and _is_probable_prime(n)


def _is_probable_prime(n: int) -> bool:
    """Miller–Rabin on the odd n > 41 to the bases MILLER_RABIN_BASES."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> Optional[int]:
    """A proper factor of the odd composite n, or None once about
    POLLARD_BRENT_STEPS iterations of y -> y^2 + c (at most twice that)
    found none."""
    budget = POLLARD_BRENT_STEPS
    c = 0
    while budget > 0:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and budget > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_BRENT_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _BRENT_BATCH
            budget -= 2 * r
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
    return None


def _factor_cofactor(m: int) -> tuple[list[int], bool]:
    """Certified prime factors of m > 1, and whether some part of m could
    not be split into certified primes.

    Trial division up to TRIAL_DIVISION_BOUND, then, for what is left,
    Miller–Rabin (a proof below MILLER_RABIN_EXACT_BELOW) and Pollard–Brent.
    """
    primes = []
    d = 2
    while d <= TRIAL_DIVISION_BOUND and d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    # every prime factor of what is left exceeds d - 1
    pending = [m] if m > 1 else []
    stuck = False
    while pending:
        x = pending.pop()
        if x < d * d or (x < MILLER_RABIN_EXACT_BELOW
                         and _is_probable_prime(x)):
            primes.append(x)
        elif _is_probable_prime(x):
            stuck = True  # probably prime, but too large to certify
        else:
            factor = _pollard_brent(x)
            if factor is None:
                stuck = True
            else:
                pending += [factor, x // factor]
    return sorted(set(primes)), stuck


def prime_support_scan(f: TruncSeries, window: int) -> PrimeSupportScan:
    """Scan denominator prime support; flag support still growing near the end.

    still_growing is true iff some prime makes its first appearance within
    the final `window` indices — the signature of support that keeps
    expanding with the truncation, i.e. of a series that cannot have finite
    Hadamard grade.

    Only primes seen for the first time change the result, so each
    denominator is first stripped of the primes already found (a gcd with
    their product), and only the cofactor left is factored.
    """
    if window < 1:
        raise SchemaError("window must be positive")
    if f.order < 2 * window:
        raise TruncationExceeded(
            f"need at least {2 * window} coefficients for window {window}"
        )
    first: dict[int, int] = {}
    incomplete = []
    known = 1  # product of the primes in `first`
    for n, c in enumerate(f.coeffs):
        den = c.denominator
        g = math.gcd(den, known)
        while g > 1:
            den //= g
            g = math.gcd(den, g)
        if den == 1:
            continue
        primes, stuck = _factor_cofactor(den)
        if stuck:
            incomplete.append(n)
        for p in primes:
            first[p] = n
            known *= p
    cutoff = f.order - window
    return PrimeSupportScan(
        primes=tuple(sorted(first.items())),
        still_growing=any(n >= cutoff for n in first.values()),
        incomplete=tuple(incomplete),
    )


def radius_estimate(f: TruncSeries, *,
                    zero_threshold: float = DEFAULTS.zero_threshold,
                    positive_threshold: float = DEFAULTS.positive_threshold,
                    ) -> RadiusEstimate:
    """Fit log|a_n| ~ beta·n·log n + c·n over the last half of the data.

    beta >= zero_threshold means factorial-type growth (radius zero);
    beta <= positive_threshold with the per-term exponential rate staying
    consistent with the fit means positive radius; anything else is
    inconclusive.
    """
    n_terms = f.order
    if n_terms < 16:
        raise TruncationExceeded("radius fit needs at least 16 coefficients")
    nonzero = sum(1 for c in f.coeffs if c != 0)
    if 2 * nonzero < n_terms:
        raise TooSparse(
            f"only {nonzero} of {n_terms} coefficients are nonzero"
        )
    points = [
        (n, math.log(abs(c.numerator)) - math.log(c.denominator))
        for n, c in enumerate(f.coeffs)
        if n >= n_terms // 2 and c != 0
    ]
    if len(points) < 2:
        raise TooSparse(
            f"only {len(points)} nonzero coefficients in the fitted half"
        )
    # Least squares in closed form.  Divided by n, the model reads
    # y/n = beta·log n + c with weight n² per point: a weighted straight-line
    # fit, solved about the weighted means so nothing cancels.
    weight = sum(n * n for n, _ in points)
    t_mean = sum(n * n * math.log(n) for n, _ in points) / weight
    u_mean = sum(n * y for n, y in points) / weight
    stt = sum(n * n * (math.log(n) - t_mean) ** 2 for n, _ in points)
    stu = sum(n * n * (math.log(n) - t_mean) * (y / n - u_mean)
              for n, y in points)
    beta = stu / stt
    c_lin = u_mean - beta * t_mean
    if beta >= zero_threshold:
        return RadiusEstimate(beta, "zero-evidence")
    if beta <= positive_threshold:
        # bounded |a_n|^(1/n): no point's exponential rate may drift far
        # above the fitted rate
        if all(y / n <= beta * math.log(n) + c_lin + 1.0 for n, y in points):
            return RadiusEstimate(beta, "positive-evidence")
    return RadiusEstimate(beta, "inconclusive")


def eventual_period(signs: Sequence[int], max_period: int) -> Periodicity:
    """Least (period, preperiod) consistent with a ±1 sequence, or aperiodic.

    A candidate period q with minimal preperiod ℓ is accepted only when the
    periodic tail covers at least two full periods *and* at least half the
    data (ℓ + 2q <= n and ℓ <= n/2).  Without the half-data guard, short
    accidental suffix matches — the Thue–Morse word echoes itself at shift 8
    over its final 16 letters — would masquerade as eventual periodicity.
    The result is a report about the supplied window, not a proof.
    """
    n = len(signs)
    if max_period < 1:
        raise SchemaError("max_period must be positive")
    if n < 3 * max_period:
        raise TruncationExceeded(
            f"need at least {3 * max_period} signs for max_period "
            f"{max_period}, got {n}"
        )
    for s in signs:
        if s not in (1, -1):
            raise NotSignSequence(f"entry {s!r} is not ±1")
    for q in range(1, max_period + 1):
        pre = 0
        for i in range(n - q - 1, -1, -1):
            if signs[i] != signs[i + q]:
                pre = i + 1
                break
        if pre + 2 * q <= n and 2 * pre <= n:
            return Periodicity("eventually-periodic", preperiod=pre, period=q)
    return Periodicity("aperiodic-up-to", bound=max_period)


@dataclass(frozen=True)
class ObstructionReport:
    prime_support: tuple[tuple[int, int], ...]
    prime_still_growing: bool
    radius_beta: Optional[float]
    radius_class: str
    periodicity: Periodicity
    verdict: str
    truncation: int

    def to_json_dict(self) -> dict:
        return {
            "prime_support": [list(pair) for pair in self.prime_support],
            "radius": {"beta": self.radius_beta, "class": self.radius_class},
            "periodicity": self.periodicity.to_json_dict(),
            "verdict": self.verdict,
            "truncation": self.truncation,
        }


def obstruction_report(f: TruncSeries, *,
                       window: int = DEFAULTS.window,
                       max_period: int = DEFAULTS.max_period,
                       zero_threshold: float = DEFAULTS.zero_threshold,
                       positive_threshold: float = DEFAULTS.positive_threshold,
                       ) -> ObstructionReport:
    """Run all three scans and compose the verdict.

    The verdict is infinite-grade-evidence iff at least one scan fired:
    growing prime support, zero-radius growth, or an aperiodic ±1 sequence.
    Budgets are clamped to what the truncation supports.
    """
    window = max(1, min(window, f.order // 2))
    support = prime_support_scan(f, window)

    try:
        beta, radius_class = radius_estimate(
            f,
            zero_threshold=zero_threshold,
            positive_threshold=positive_threshold,
        )
        radius_beta: Optional[float] = beta
    except TooSparse:
        radius_beta, radius_class = None, "inconclusive"

    try:
        periodicity = eventual_period(
            list(f.coeffs),
            max(1, min(max_period, f.order // 3)),
        )
    except NotSignSequence:
        periodicity = Periodicity("not-a-sign-sequence")

    fired = (
        support.still_growing
        or radius_class == "zero-evidence"
        or periodicity.kind == "aperiodic-up-to"
    )
    return ObstructionReport(
        prime_support=support.primes,
        prime_still_growing=support.still_growing,
        radius_beta=radius_beta,
        radius_class=radius_class,
        periodicity=periodicity,
        verdict="infinite-grade-evidence" if fired else "no-obstruction-found",
        truncation=f.order,
    )
