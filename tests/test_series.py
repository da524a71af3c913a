from fractions import Fraction

import pytest
from hypothesis import given

import oracles
from conftest import rationals, series_of
from gradeforge.series import TruncSeries, hadamard_mul


def S(*values):
    return TruncSeries.from_list(values)


# ---------------------------------------------------------------------------
# hadamard_mul


def test_geometric_is_identity():
    assert hadamard_mul(S(1, 1, 1, 1), S(1, 2, 6, 20)) == S(1, 2, 6, 20)


def test_central_binomial_square():
    cb = oracles.central_binomials(5)
    sq = hadamard_mul(TruncSeries.from_list(cb), TruncSeries.from_list(cb))
    assert list(sq.coeffs) == [1, 4, 36, 400, 4900]


def test_alternating_factorial_times_exponential():
    euler = S(1, -1, 2, -6, 24)
    exp = S(1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))
    assert hadamard_mul(euler, exp) == S(1, -1, 1, -1, 1)


def test_order_is_min_of_inputs():
    out = hadamard_mul(S(1, 2, 3), S(1, 1, 1, 1, 1))
    assert out.order == 3


def test_truncate_never_extends():
    s = S(1, 2, 3)
    assert s.truncate(2) == S(1, 2)
    with pytest.raises(ValueError):
        s.truncate(5)


# ---------------------------------------------------------------------------
# algebraic laws (randomized)


@given(series_of(20), series_of(20))
def test_hadamard_commutative(a, b):
    assert hadamard_mul(a, b) == hadamard_mul(b, a)


@given(series_of(12), series_of(12), series_of(12))
def test_hadamard_associative(a, b, c):
    assert hadamard_mul(hadamard_mul(a, b), c) == hadamard_mul(a, hadamard_mul(b, c))


@given(series_of(12), series_of(12), series_of(12), rationals(), rationals())
def test_hadamard_bilinear(a, b, c, lam, mu):
    lam_b = compose_scale_free(b, lam)
    mu_c = compose_scale_free(c, mu)
    combo = TruncSeries.from_list(
        [lam_b[n] + mu_c[n] for n in range(12)]
    )
    lhs = hadamard_mul(a, combo)
    rhs = TruncSeries.from_list(
        [lam * hadamard_mul(a, b)[n] + mu * hadamard_mul(a, c)[n] for n in range(12)]
    )
    assert lhs == rhs


def compose_scale_free(s, lam):
    # scalar multiple of a series (the coefficients, not z, are scaled)
    return TruncSeries.from_list([lam * c for c in s.coeffs])


@given(series_of(20))
def test_geometric_identity_two_sided(a):
    geom = TruncSeries.from_list([1] * 20)
    assert hadamard_mul(a, geom) == a
    assert hadamard_mul(geom, a) == a


@given(series_of(10), series_of(10))
def test_even_times_odd_vanishes(even_part, odd_part):
    even = TruncSeries.from_list(
        [even_part[n] if n % 2 == 0 else Fraction(0) for n in range(10)]
    )
    odd = TruncSeries.from_list(
        [odd_part[n] if n % 2 == 1 else Fraction(0) for n in range(10)]
    )
    assert all(c == 0 for c in hadamard_mul(even, odd).coeffs)
