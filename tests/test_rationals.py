import ast
import dataclasses
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given

from conftest import rationals
from gradeforge import cli
from gradeforge.config import Defaults, load_defaults
from gradeforge.descriptors import descriptor_from_tokens, materialize
from gradeforge.diagonals import DiagonalWitness
from gradeforge.errors import SchemaError
from gradeforge.rationals import (
    coerce_rational,
    format_rational,
    parse_rational,
    read_json_arg,
)


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


# ---------------------------------------------------------------------------
# every payload reader checks integers and rationals the same way


def _descriptor_reader(kind):
    return lambda arg: materialize(descriptor_from_tokens(kind, arg))


# reader: (a well-formed payload, how the reader takes an argument)
WIRE_READERS = {
    "holonomic": (
        {"order": 1, "coeffs": [["-2", "-4"], ["2", "1"]], "n0": 0,
         "initial": ["1"]},
        _descriptor_reader("holonomic"),
    ),
    "algebraic": (
        {"P": [[0, 2, "1"], [0, 1, "-1"], [1, 0, "1"]], "y0": "0"},
        _descriptor_reader("algebraic"),
    ),
    "rational-exppoly": (
        {"terms": [["1/2", 2, ["1", "3"]]]},
        _descriptor_reader("rational-exppoly"),
    ),
    "coeffs": ({"coeffs": [1, "1/2"]}, _descriptor_reader("coeffs")),
    "witness": (
        {"d": 1, "R": {"num": [[0, 0, "1"]],
                       "den": [[0, 0, "1"], [1, 0, "-1"], [0, 1, "-1"]]},
         "verified_order": 4, "constant_shift": "0"},
        lambda arg: DiagonalWitness.from_json_dict(
            read_json_arg(arg, "witness")),
    ),
    "plates": ([[1, 1], ["1/2", 3]], cli._parse_plates),
    "config": ({}, lambda arg: load_defaults(
        env={"GRADEFORGE_CONFIG": arg[1:]})),
}

# (reader, path to one integer or rational field of its payload)
WIRE_FIELDS = [
    ("holonomic", ("order",)),
    ("holonomic", ("n0",)),
    ("holonomic", ("coeffs", 1, 0)),
    ("holonomic", ("initial", 0)),
    ("witness", ("d",)),
    ("witness", ("verified_order",)),
    ("witness", ("constant_shift",)),
    ("witness", ("R", "den", 1, 0)),
    ("witness", ("R", "den", 1, 2)),
    ("algebraic", ("P", 0, 1)),
    ("algebraic", ("P", 0, 2)),
    ("algebraic", ("y0",)),
    ("rational-exppoly", ("terms", 0, 0)),
    ("rational-exppoly", ("terms", 0, 1)),
    ("rational-exppoly", ("terms", 0, 2, 0)),
    ("coeffs", ("coeffs", 0)),
    ("plates", (0, 0)),
    ("plates", (0, 1)),
] + [("config", (f.name,)) for f in dataclasses.fields(Defaults)
     if f.type == "int"]


def _as_file_arg(tmp_path, payload) -> str:
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return f"@{path}"


@pytest.mark.parametrize("value", [True, False, 1.5, None],
                         ids=["true", "false", "1.5", "null"])
@pytest.mark.parametrize(
    "reader, field", WIRE_FIELDS,
    ids=["-".join([r, *map(str, f)]) for r, f in WIRE_FIELDS])
def test_readers_refuse_booleans_floats_and_null(tmp_path, reader, field,
                                                 value):
    payload, read = WIRE_READERS[reader]
    read(_as_file_arg(tmp_path, payload))  # the unmodified payload reads
    payload = json.loads(json.dumps(payload))
    *parents, last = field
    target = payload
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(SchemaError):
        read(_as_file_arg(tmp_path, payload))


def test_only_the_wire_module_reads_json_or_opens_files():
    package = Path(__file__).resolve().parents[1] / "src" / "gradeforge"
    readers = sorted(
        path.name for path in package.glob("*.py")
        if any(word in path.read_text(encoding="utf-8")
               for word in ("json.load", "open("))
    )
    assert readers == ["rationals.py"]


def test_no_module_relies_on_assert_statements():
    # `python -O` strips asserts, so a check written as one would vanish
    package = Path(__file__).resolve().parents[1] / "src" / "gradeforge"
    asserting = sorted(
        path.name for path in package.glob("*.py")
        if any(isinstance(node, ast.Assert)
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    )
    assert asserting == []
