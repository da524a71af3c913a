import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from gradeforge.catalog import expand_builtin
from gradeforge.errors import NotSignSequence, TooSparse
from gradeforge.holonomic import PRecurrence, unroll
from gradeforge.obstruction import (
    MILLER_RABIN_EXACT_BELOW,
    eventual_period,
    is_prime,
    obstruction_report,
    prime_support_scan,
    radius_estimate,
)
from gradeforge.series import TruncSeries, hadamard_mul


# ---------------------------------------------------------------------------
# primality


def test_is_prime_matches_a_sieve():
    n = 10**5
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for d in range(2, math.isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, n, d)))
    assert [k for k in range(-3, n) if is_prime(k)] == [
        k for k in range(n) if sieve[k]]


@pytest.mark.parametrize("n, prime", [
    (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5, 7
    (3825123056546413051, False),  # ... to every prime base up to 31
    (10**18 + 3, True),
])
def test_is_prime_beyond_trial_division(n, prime):
    assert is_prime(n) is prime


def test_is_prime_refuses_numbers_it_cannot_certify():
    with pytest.raises(ValueError, match=str(MILLER_RABIN_EXACT_BELOW)):
        is_prime(MILLER_RABIN_EXACT_BELOW)


# ---------------------------------------------------------------------------
# prime support


def test_exponential_support_keeps_growing():
    scan = prime_support_scan(expand_builtin("exp", 40), 10)
    assert [p for p, _ in scan.primes] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert all(first == p for p, first in scan.primes)  # 1/n! admits p at n=p
    assert scan.still_growing
    assert not scan.incomplete


def test_integer_series_has_empty_support():
    scan = prime_support_scan(expand_builtin("central-binomial", 40), 10)
    assert scan.primes == ()
    assert not scan.still_growing


def test_log_series_support():
    scan = prime_support_scan(expand_builtin("log1p", 41), 10)
    assert [p for p, _ in scan.primes] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert scan.still_growing


def test_support_window_preconditions():
    f = expand_builtin("exp", 10)
    with pytest.raises(ValueError):
        prime_support_scan(f, 0)
    with pytest.raises(ValueError):
        prime_support_scan(f, 6)  # needs 2*window terms


@pytest.mark.parametrize("name", ["exp", "log1p", "euler", "catalan"])
def test_support_is_monotone_in_truncation(name):
    small = dict(prime_support_scan(expand_builtin(name, 24), 4).primes)
    large = dict(prime_support_scan(expand_builtin(name, 48), 4).primes)
    for p, first in small.items():
        assert large[p] == first


APERY = ((1, 3, 3, 1), (-117, -231, -153, -34), (8, 12, 6, 1))
PREFIXES = {
    "exp": lambda n: expand_builtin("exp", n),
    "log1p": lambda n: expand_builtin("log1p", n),
    "euler": lambda n: expand_builtin("euler", n),
    # Apéry's zeta(3) companion b_n and 1/prod(k^2 + 1)
    "apery-b": lambda n: unroll(PRecurrence(APERY, 0, (0, 6)), n),
    "inverse-product": lambda n: unroll(
        PRecurrence(((-1,), (1, 0, 1)), 0, (1,)), n),
}


@pytest.mark.parametrize("name", sorted(PREFIXES))
def test_incremental_scan_matches_trial_division(name):
    f = PREFIXES[name](240)
    scan = prime_support_scan(f, 30)
    assert (scan.primes, scan.still_growing, scan.incomplete) == (
        oracles.trial_division_support(f.coeffs, 30))


def series_with_denominator(den):
    return TruncSeries.from_list([Fraction(1)] * 3 + [Fraction(1, den)] + [Fraction(1)] * 4)


def test_large_prime_denominator_is_certified():
    # trial division up to 10^6 cannot certify a prime above 10^12
    p = 10**13 + 37
    scan = prime_support_scan(series_with_denominator(p), 4)
    assert scan.primes == ((p, 3),)
    assert scan.incomplete == ()
    assert oracles.trial_division_support(
        series_with_denominator(p).coeffs, 4)[2] == (3,)


def test_product_of_two_large_primes_is_split():
    p, q = 10**9 + 7, 10**9 + 9
    scan = prime_support_scan(series_with_denominator(2 * p * q), 4)
    assert scan.primes == ((2, 3), (p, 3), (q, 3))
    assert scan.incomplete == ()


def test_unsplittable_cofactor_is_marked_incomplete_quickly():
    # the first two primes above 10^20: Pollard–Brent would need about
    # 10^10 steps to split their product
    p, q = 10**20 + 39, 10**20 + 129
    start = time.perf_counter()
    scan = prime_support_scan(series_with_denominator(5 * p * q), 4)
    assert time.perf_counter() - start < 1.0
    assert scan.primes == ((5, 3),)
    assert scan.incomplete == (3,)


def test_probable_prime_beyond_the_proof_bound_is_not_reported():
    # 2^89 - 1 is prime, but Miller–Rabin on 13 bases proves nothing there
    scan = prime_support_scan(series_with_denominator(7 * (2**89 - 1)), 4)
    assert scan.primes == ((7, 3),)
    assert scan.incomplete == (3,)


def test_known_primes_are_divided_out_before_factoring():
    # the second denominator only adds 7; 2^40 and 3^30 are already known
    f = TruncSeries.from_list(
        [Fraction(1, 6), Fraction(1, 2**40 * 3**30 * 7)] + [Fraction(1)] * 6)
    scan = prime_support_scan(f, 4)
    assert scan.primes == ((2, 0), (3, 0), (7, 1))


# ---------------------------------------------------------------------------
# radius


def test_factorial_growth_reads_as_zero_radius():
    beta, cls = radius_estimate(expand_builtin("euler", 60))
    assert cls == "zero-evidence"
    assert 0.7 < beta < 1.3


def test_geometric_growth_reads_as_positive_radius():
    beta, cls = radius_estimate(expand_builtin("geometric", 60))
    assert cls == "positive-evidence"
    assert abs(beta) < 0.05


def test_exponential_growth_reads_as_positive_radius():
    beta, cls = radius_estimate(expand_builtin("central-binomial", 60))
    assert cls == "positive-evidence"
    assert abs(beta) < 0.1


@pytest.mark.parametrize("scale", [2, Fraction(1, 3), -5])
@pytest.mark.parametrize("name", ["euler", "central-binomial", "geometric"])
def test_radius_class_is_scale_invariant(name, scale):
    f = expand_builtin(name, 60)
    rescaled = TruncSeries(tuple(c * Fraction(scale) ** n
                                 for n, c in enumerate(f.coeffs)))  # z -> scale·z
    assert radius_estimate(f).classification == radius_estimate(
        rescaled).classification


@pytest.mark.parametrize("name", ["euler", "central-binomial", "geometric",
                                  "exp", "log1p", "apery-b",
                                  "inverse-product"])
def test_closed_form_fit_matches_numpy_least_squares(name):
    f = PREFIXES[name](120) if name in PREFIXES else expand_builtin(name, 120)
    points = [(n, math.log(abs(c.numerator)) - math.log(c.denominator))
              for n, c in enumerate(f.coeffs) if n >= 60 and c != 0]
    design = np.array([[n * math.log(n), float(n)] for n, _ in points])
    target = np.array([y for _, y in points])
    (want, _), *_ = np.linalg.lstsq(design, target, rcond=None)
    assert abs(radius_estimate(f).beta - want) <= 1e-9


def test_fit_needs_two_points_in_its_half():
    # 8 nonzero terms of 16, but only one in the fitted second half
    f = TruncSeries.from_list([Fraction(1)] * 7 + [Fraction(0)] * 8 + [3])
    with pytest.raises(TooSparse):
        radius_estimate(f)
    assert obstruction_report(f).radius_class == "inconclusive"


def test_sparse_series_rejected():
    # 20 nonzero entries out of 41: strictly more than half vanish
    sparse = TruncSeries.from_list(oracles.odd_sqrt_kernel(41))
    with pytest.raises(TooSparse):
        radius_estimate(sparse)


def test_exactly_half_zero_is_still_fittable():
    half = TruncSeries.from_list(oracles.odd_sqrt_kernel(40))
    assert radius_estimate(half).classification in (
        "positive-evidence", "inconclusive",
    )


def test_radius_needs_terms():
    with pytest.raises(ValueError):
        radius_estimate(expand_builtin("euler", 12))


# ---------------------------------------------------------------------------
# periodicity


def test_alternating_signs():
    out = eventual_period([(-1) ** n for n in range(60)], 20)
    assert (out.kind, out.preperiod, out.period) == ("eventually-periodic", 0, 2)


def test_constant_tail():
    signs = [1, 1] + [-1] * 58
    out = eventual_period(signs, 20)
    assert (out.kind, out.preperiod, out.period) == ("eventually-periodic", 2, 1)


def test_thue_morse_is_aperiodic_in_window():
    out = eventual_period(oracles.thue_morse_signs(200), 60)
    assert (out.kind, out.bound) == ("aperiodic-up-to", 60)


def test_non_sign_entries_rejected():
    with pytest.raises(NotSignSequence):
        eventual_period([1, -1, 2] + [1] * 57, 20)


def test_period_length_precondition():
    with pytest.raises(ValueError):
        eventual_period([1] * 50, 20)


@given(st.lists(st.sampled_from([1, -1]), min_size=45, max_size=45))
def test_reported_period_reverifies(signs):
    out = eventual_period(signs, 15)
    if out.kind != "eventually-periodic":
        return
    pre, q = out.preperiod, out.period
    n = len(signs)
    assert all(signs[i] == signs[i + q] for i in range(pre, n - q))
    assert pre + 2 * q <= n and 2 * pre <= n
    # pre is minimal for this q
    assert pre == 0 or signs[pre - 1] != signs[pre - 1 + q]


# ---------------------------------------------------------------------------
# composed verdicts


INFINITE = ["exp", "log1p", "euler", "thue-morse-signs"]
CLEAN = ["geometric", "central-binomial"]


@pytest.mark.parametrize("name", INFINITE)
def test_verdict_fires_on_obstructed_corpus(name):
    report = obstruction_report(expand_builtin(name, 80))
    assert report.verdict == "infinite-grade-evidence"


@pytest.mark.parametrize("name", CLEAN)
def test_verdict_clean_on_bounded_corpus(name):
    report = obstruction_report(expand_builtin(name, 80))
    assert report.verdict == "no-obstruction-found"


def test_verdict_clean_on_hadamard_square():
    cb = expand_builtin("central-binomial", 80)
    report = obstruction_report(hadamard_mul(cb, cb))
    assert report.verdict == "no-obstruction-found"


def test_which_scan_fired():
    euler = obstruction_report(expand_builtin("euler", 80))
    assert euler.radius_class == "zero-evidence"
    assert not euler.prime_still_growing  # integer coefficients
    tm = obstruction_report(expand_builtin("thue-morse-signs", 200))
    assert tm.periodicity.kind == "aperiodic-up-to"
    assert tm.radius_class == "positive-evidence"


def test_report_json_shape():
    data = obstruction_report(expand_builtin("exp", 60)).to_json_dict()
    assert set(data) == {
        "prime_support", "radius", "periodicity", "verdict", "truncation",
    }
    assert data["truncation"] == 60
    assert data["radius"].keys() == {"beta", "class"}
    assert all(
        isinstance(pair, list) and len(pair) == 2 for pair in data["prime_support"]
    )
