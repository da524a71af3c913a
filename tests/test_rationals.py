import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import rationals
from gradeforge.errors import SchemaError
from gradeforge.rationals import coerce_rational, format_rational, parse_rational


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", Fraction(0)),
        ("-3/7", Fraction(-3, 7)),
        ("12", Fraction(12)),
        ("4/6", Fraction(2, 3)),  # reduced on the way in
        ("-0/5", Fraction(0)),
    ],
)
def test_parse(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text", ["", "1/0", "1.5", "1/-2", "a", "1 / 2", "+3", "5\n", "١٢"])
def test_parse_rejects(text):
    with pytest.raises(SchemaError):
        parse_rational(text)


def test_parse_rejects_literals_past_the_digit_cap():
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not cap:
        pytest.skip("this interpreter has no int<->str digit cap")
    with pytest.raises(SchemaError):
        parse_rational("1" * (cap + 1))


@given(rationals(max_num=10**6, max_den=10**6))
def test_format_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_format_lowest_terms():
    assert format_rational(Fraction(4, 6)) == "2/3"
    assert format_rational(Fraction(-8, 2)) == "-4"
    assert format_rational(Fraction(0)) == "0"


def test_coerce_accepts_exact_types():
    assert coerce_rational(3) == Fraction(3)
    assert coerce_rational("5/2") == Fraction(5, 2)
    assert coerce_rational(Fraction(1, 3)) == Fraction(1, 3)


def test_coerce_rejects_floats_and_junk():
    with pytest.raises(SchemaError):
        coerce_rational(0.5)
    with pytest.raises(SchemaError):
        coerce_rational(True)
    with pytest.raises(SchemaError):
        coerce_rational(None)


def test_arithmetic_exactness_bulk():
    # (a+b)-b == a over 10^4 random pairs; Fraction is the substrate, this
    # guards against any future coefficient-type swap being lossy.
    rng = random.Random(20260818)
    for _ in range(10_000):
        a = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        b = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        assert (a + b) - b == a
