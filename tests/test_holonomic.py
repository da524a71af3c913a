import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from gradeforge import _intpoly as ip
from gradeforge.algebraic import expand_branch
from gradeforge.catalog import CORPUS_ANNIHILATORS
from gradeforge.errors import (
    DegenerateInput,
    NoFit,
    SchemaError,
    UnderdeterminedRecurrence,
)
from gradeforge.holonomic import (
    PRecurrence,
    guess_recurrence,
    hadamard_recurrence,
    unroll,
)
from gradeforge.rationals import integers_of_any_size
from gradeforge.series import TruncSeries, hadamard_mul

CENTRAL_BINOMIAL = PRecurrence.from_dense([[-2, -4], [1, 1]], 0, [1])
EULER = PRecurrence.from_dense([[1, 1], [1]], 0, [1])
EXP = PRecurrence.from_dense([[-1], [1, 1]], 0, [1])
GEOMETRIC = PRecurrence.from_dense([[-1], [1]], 0, [1])
CATALAN = PRecurrence.from_dense([[-2, -4], [2, 1]], 0, [1])
LOG1P = PRecurrence.from_dense([[0, 1], [1, 1]], 1, [0, 1])
APERY_B = PRecurrence.from_dense(
    [[1, 3, 3, 1], [-117, -231, -153, -34], [8, 12, 6, 1]], 0, [0, 6])
GEOMETRIC_3_5 = PRecurrence.from_dense([[-1], [2]], 0, ["3/5"])  # 3/5·2^-n


# ---------------------------------------------------------------------------
# construction and unroll


def test_unroll_central_binomial():
    assert list(unroll(CENTRAL_BINOMIAL, 5).coeffs) == [1, 2, 6, 20, 70]


def test_unroll_euler():
    assert list(unroll(EULER, 5).coeffs) == [1, -1, 2, -6, 24]


def test_unroll_constant():
    const = PRecurrence.from_dense([[-1], [1]], 0, [7])
    assert list(unroll(const, 6).coeffs) == [7] * 6


def fraction_unroll(rec, n):
    """Reference: every term a reduced Fraction."""
    out = list(rec.initial[:n])
    while len(out) < n:
        m = len(out) - rec.order
        acc = sum(ip.eval_at(c, m) * out[m + i]
                  for i, c in enumerate(rec.coeffs[:-1]))
        out.append(-Fraction(acc) / ip.eval_at(rec.coeffs[-1], m))
    return out


@pytest.mark.parametrize("rec", [
    CENTRAL_BINOMIAL, EULER, EXP, CATALAN,
    LOG1P,
    APERY_B,            # integer division fails from n = 2
    GEOMETRIC_3_5,
])
def test_unroll_integer_path_matches_fraction_arithmetic(rec):
    got = unroll(rec, 120).coeffs
    assert list(got) == fraction_unroll(rec, 120)
    assert all(type(c) is Fraction for c in got)


@st.composite
def rational_recurrences(draw):
    """Orders 1-3, small integer coefficients, rational or zero initials."""
    r = draw(st.integers(1, 3))
    poly = st.lists(st.integers(-6, 6), min_size=1, max_size=3)
    lead = draw(poly.filter(any))
    coeffs = [draw(poly) for _ in range(r)] + [lead]
    n0 = max([draw(st.integers(0, 2))]
             + [x + 1 for x in ip.int_roots(ip.trim(list(lead)))])
    term = st.one_of(st.just(0), st.fractions(-9, 9, max_denominator=12))
    initial = draw(st.lists(term, min_size=n0 + r, max_size=n0 + r))
    return PRecurrence.from_dense(coeffs, n0, initial)


@given(rational_recurrences())
@settings(max_examples=200, deadline=None)
# p_r = 2n - 7 has no integer root, so the base stays 0 where p_r < 0
@example(PRecurrence.from_dense([[-1], [-7, 2]], 0, ["3/5"]))
@example(PRecurrence.from_dense([[1, 1], [0, -1], [-7, 2]], 0, ["1/3", 2]))
# 2·a_{n+1} = (n+1)·a_n: exact and inexact divisions alternate
@example(PRecurrence.from_dense([[-1, -1], [2]], 0, [1]))
# a_{n+2} = a_n and a_{n+3} = -a_n/(n+1): every other term is zero
@example(PRecurrence.from_dense([[-1], [], [1]], 0, ["1/3", 0]))
@example(PRecurrence.from_dense([[1], [], [], [1, 1]], 0, [0, "2/7", 0]))
def test_unroll_matches_fraction_arithmetic_on_rational_recurrences(rec):
    got = unroll(rec, 30).coeffs
    assert list(got) == fraction_unroll(rec, 30)
    assert all(c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
               for c in got)


def test_leading_root_raises_base():
    # (n-3) a_{n+1} = a_n forces a_0..a_3 = 0; base moves past the root
    rec = PRecurrence.from_dense([[-1], [-3, 1]], 0, [0, 0, 0, 0, 1])
    assert rec.n0 == 4
    expected = [0, 0, 0, 0, 1, 1, Fraction(1, 2), Fraction(1, 6)]
    assert list(unroll(rec, 8).coeffs) == expected


def test_underdetermined_rejected():
    with pytest.raises(UnderdeterminedRecurrence):
        PRecurrence.from_dense([[-1], [-3, 1]], 0, [0, 0])


def test_inconsistent_initial_rejected():
    with pytest.raises(ValueError):
        PRecurrence.from_dense([[-1], [1, 1]], 0, [1, 5, Fraction(5, 2)])


def test_normalization_is_canonical():
    # scalar multiples and rational coefficients collapse to one object
    a = PRecurrence.from_dense([[-2, -4], [1, 1]], 0, [1])
    b = PRecurrence.from_dense([[1, 2], [Fraction(-1, 2), Fraction(-1, 2)]], 0, [1])
    assert a == b


def test_from_dense_stores_primitive_integer_tuples():
    rec = PRecurrence.from_dense(
        [[Fraction(2, 3), "-4/3"], [Fraction(-1, 3), 0, "-2/9"]], 0, [1]
    )
    assert rec.coeffs == ((-6, 12), (3, 0, 2))
    assert all(type(x) is int for p in rec.coeffs for x in p)


@pytest.mark.parametrize("bad", [Fraction(1, 2), True, 1.0])
def test_non_integer_coefficient_rejected(bad):
    with pytest.raises(ValueError):
        PRecurrence(((1, bad), (1,)), 0, (1,))


@pytest.mark.parametrize("coeffs, message", [
    (((1,),), "order must be at least 1"),
    (((1,), (0, 0)), "p_r must be nonzero"),
], ids=["order 0", "p_r = 0"])
def test_degenerate_recurrence_rejected(coeffs, message):
    with pytest.raises(SchemaError, match=message):
        PRecurrence(coeffs, 0, (1,))


def test_json_round_trip():
    rec = hadamard_recurrence(CENTRAL_BINOMIAL, CATALAN)
    assert PRecurrence.from_json_dict(rec.to_json_dict()) == rec


def test_json_renders_coefficients_past_the_digit_cap():
    # a_(n+1) = (10^5000 + 1)·a_n: a 5,001-digit coefficient
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    big = 10 ** 5000 + 1
    rec = PRecurrence(((-big,), (1,)), 0, (1,))
    data = rec.to_json_dict()
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
    with integers_of_any_size():
        assert data["coeffs"] == [[str(-big)], ["1"]]
        assert PRecurrence.from_json_dict(data) == rec


# ---------------------------------------------------------------------------
# hadamard_recurrence


def test_square_of_central_binomial():
    sq = hadamard_recurrence(CENTRAL_BINOMIAL, CENTRAL_BINOMIAL)
    assert sq.order == 1
    # equivalent to (n+1)^2 c_{n+1} - 4(2n+1)^2 c_n = 0
    assert sq == PRecurrence.from_dense([[-4, -16, -16], [1, 2, 1]], 0, [1])
    cb = oracles.central_binomials_fast(200)
    assert list(unroll(sq, 200).coeffs) == [c * c for c in cb]


def test_euler_times_exp_is_alternating():
    prod = hadamard_recurrence(EULER, EXP)
    assert list(unroll(prod, 8).coeffs) == [(-1) ** n for n in range(8)]
    assert prod == PRecurrence.from_dense([[1], [1]], 0, [1])


def test_geometric_is_identity_on_recurrences():
    for rec in (CENTRAL_BINOMIAL, EULER, CATALAN):
        prod = hadamard_recurrence(rec, GEOMETRIC)
        assert unroll(prod, 200) == unroll(rec, 200)


def test_zero_sequence_rejected():
    zero = PRecurrence.from_dense([[-1], [1]], 0, [0])
    with pytest.raises(DegenerateInput):
        hadamard_recurrence(zero, GEOMETRIC)


def _random_recurrence(rng: random.Random, order: int) -> PRecurrence:
    lead_choices = [[1], [2], [1, 1], [2, 1], [1, 0, 1], [3, 0, 1]]
    while True:
        coeffs = [
            [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            for _ in range(order)
        ]
        coeffs.append(rng.choice(lead_choices))
        if all(all(c == 0 for c in row) for row in coeffs[:-1]):
            continue
        init = [Fraction(rng.randint(-4, 4)) for _ in range(order)]
        if all(x == 0 for x in init):
            continue
        try:
            rec = PRecurrence.from_dense(coeffs, 0, init)
        except (ValueError, UnderdeterminedRecurrence):
            continue
        window = unroll(rec, rec.n0 + rec.order)
        if all(x == 0 for x in window.coeffs):
            continue
        return rec


def test_closure_soundness_randomized():
    """unroll(product) == termwise product of unrolls, 200 terms, 20 pairs."""
    rng = random.Random(0xC10E)
    for _ in range(20):
        ra = _random_recurrence(rng, rng.randint(1, 3))
        rb = _random_recurrence(rng, rng.randint(1, 3))
        try:
            prod = hadamard_recurrence(ra, rb)
        except DegenerateInput:
            continue  # termwise product can vanish identically
        assert prod.order <= ra.order * rb.order
        lhs = unroll(prod, 200)
        rhs = hadamard_mul(unroll(ra, 200), unroll(rb, 200))
        assert lhs == rhs


def test_closure_is_symmetric_in_its_factors():
    """Swapping the factors only permutes the equations of the kernel
    problem, so both orders give the same coeffs, n0 and initial terms."""
    rng = random.Random(0x5A4D)
    for _ in range(20):
        r, s = rng.sample(range(1, 4), 2)
        ra, rb = _random_recurrence(rng, r), _random_recurrence(rng, s)
        ab, ba = hadamard_recurrence(ra, rb), hadamard_recurrence(rb, ra)
        assert (ab.coeffs, ab.n0, ab.initial) == (ba.coeffs, ba.n0, ba.initial)


# ---------------------------------------------------------------------------
# guessing


def test_guess_catalan():
    guessed = guess_recurrence(unroll(CATALAN, 30), 1, 1)
    assert guessed.empirical
    assert guessed == CATALAN


def test_guess_constant():
    const = TruncSeries.from_list([3] * 25)
    guessed = guess_recurrence(const, 1, 0)
    assert guessed == PRecurrence.from_dense([[-1], [1]], 0, [3])


def test_guess_random_data_has_no_fit():
    rng = random.Random(424242)
    data = TruncSeries.from_list(
        [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(30)]
    )
    with pytest.raises(NoFit):
        guess_recurrence(data, 2, 2)


def test_guess_refuses_a_fit_it_cannot_certify():
    # (n - 100)·a_(n+1) = a_n fits every term, but its base rises past
    # n = 100, far beyond the 15 supplied terms
    terms = [Fraction(1)]
    for n in range(14):
        terms.append(terms[-1] / (n - 100))
    with pytest.raises(NoFit, match="needs 102 terms, only 15 supplied"):
        guess_recurrence(TruncSeries.from_list(terms), 1, 1)


def test_guess_refuses_a_fit_that_misses_the_last_term():
    # with order 2, no equation reaches the last term through a_(n+1), so
    # a_(n+1) = 2·a_n fits all equations but does not reproduce that term
    terms = [2**n for n in range(14)] + [2**14 + 1]
    with pytest.raises(NoFit, match="does not extend to all supplied terms"):
        guess_recurrence(TruncSeries.from_list(terms), 2, 0)


def test_guess_needs_enough_terms():
    with pytest.raises(ValueError):
        guess_recurrence(unroll(CATALAN, 12), 2, 2)


@pytest.mark.parametrize(
    "rec, order, degree", [
        (CENTRAL_BINOMIAL, 2, 2), (EULER, 2, 2), (EXP, 2, 2),
        (GEOMETRIC, 2, 2), (CATALAN, 2, 2), (APERY_B, 2, 3),
        (GEOMETRIC_3_5, 2, 2), (LOG1P, 2, 2),
    ],
    ids=["central-binomial", "euler", "exp", "geometric", "catalan",
         "apery-b", "geometric-3-5", "log1p"],
)
def test_guess_round_trips_corpus(rec, order, degree):
    guessed = guess_recurrence(unroll(rec, 40), order, degree)
    assert unroll(guessed, 120) == unroll(rec, 120)


def test_guess_finds_aperys_recurrence_for_b():
    assert guess_recurrence(unroll(APERY_B, 200), 3, 6) == APERY_B


def test_algebraic_factors_to_product_recurrence():
    """Chain: expand factors, guess each, close under the termwise product.

    The composite recurrence must reproduce the termwise product of the
    branch expansions well past the guessing window.
    """
    factors = [
        CORPUS_ANNIHILATORS["central-binomial"],
        CORPUS_ANNIHILATORS["catalan"],
    ]
    expansions = [expand_branch(a, 120) for a in factors]
    recs = [guess_recurrence(f.truncate(40), 2, 2) for f in expansions]
    combined = recs[0]
    for rec in recs[1:]:
        combined = hadamard_recurrence(combined, rec)
    product = expansions[0]
    for f in expansions[1:]:
        product = hadamard_mul(product, f)
    assert unroll(combined, 120) == product


# ---------------------------------------------------------------------------
# input guards


def _payload(**changes):
    d = {"order": 1, "coeffs": [[-1], [1]], "n0": 0, "initial": ["1"]}
    d.update(changes)
    return d


@pytest.mark.parametrize("call, message", [
    # each payload would read as a recurrence without its guard
    (lambda: PRecurrence.from_json_dict(_payload(coeffs="12")), "'coeffs'"),
    (lambda: PRecurrence.from_json_dict(
        _payload(coeffs=[[1], [1], [1]], initial=["1", "1"])), "'coeffs'"),
    (lambda: PRecurrence.from_json_dict(_payload(coeffs=[[], [1]])),
     "'coeffs'"),
    (lambda: PRecurrence.from_json_dict(_payload(initial="1")), "'initial'"),
    (lambda: unroll(EXP, 0), "at least one term"),
    (lambda: guess_recurrence(unroll(EXP, 20), 0, 1), "max_order >= 1"),
    (lambda: guess_recurrence(unroll(EXP, 20), 1, -1), "max_degree >= 0"),
], ids=["coeffs not a list", "coeffs too long", "empty coefficient list",
        "initial not a list", "unroll 0 terms", "guess order 0",
        "guess degree -1"])
def test_entries_refuse_malformed_arguments(call, message):
    with pytest.raises(SchemaError, match=message):
        call()
