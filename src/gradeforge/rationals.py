"""Exact rational scalars and their wire format.

The scalar type throughout the package is :class:`fractions.Fraction`, which
already guarantees the canonical form we rely on (positive denominator,
reduced to lowest terms, zero as 0/1).  This module adds the text format used
by every JSON payload: optional leading '-', an integer, and an optional
'/positive-integer' part, always in lowest terms.  It is also the one place
payloads are read and their shape checked: JSON text or @file, objects,
integers (never booleans) and rationals.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
from fractions import Fraction

from .errors import SchemaError

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def parse_rational(text: str) -> Fraction:
    """Parse the wire format into a Fraction.

    Rejects anything outside ``-?digits(/digits)?`` (no whitespace, no
    floats, no '+' sign, denominator positive and nonzero).
    """
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ValueError as exc:  # more digits than CPython's int<->str cap
        raise SchemaError(f"rational literal too long: {exc}") from exc


@contextlib.contextmanager
def integers_of_any_size():
    """Lift CPython's cap on int<->str digits inside the block, so exact
    integers of any size render and re-read (the cap only exists from
    Python 3.10.7 on)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _wire_text(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_rational(value: Fraction) -> str:
    """Render a Fraction in the wire format (lowest terms, '-3/7' style).

    Any size renders: past CPython's int->str digit cap, the cap is lifted
    for this one rendering."""
    value = Fraction(value)
    try:
        return _wire_text(value)
    except ValueError:  # more digits than the int->str cap allows
        with integers_of_any_size():
            return _wire_text(value)


def residue(value: Fraction, modulus: int) -> int:
    """``value`` in Z/modulus, whose denominator must be a unit there."""
    return value.numerator * pow(value.denominator, -1, modulus) % modulus


def coerce_rational(value) -> Fraction:
    """Accept Fraction/int/rational-string inputs from user-facing layers."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise SchemaError(f"cannot interpret {value!r} as a rational")


def read_json_arg(arg: str, what: str):
    """Parse a command-line JSON argument: inline text, or @path to a file."""
    text = arg
    if arg.startswith("@"):
        try:
            with open(arg[1:], encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read {what} file {arg[1:]}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or past the digit cap
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc


def wire_object(value, keys, what: str) -> dict:
    """``value`` as a JSON object holding every one of ``keys``."""
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be a JSON object")
    missing = set(keys) - set(value)
    if missing:
        raise SchemaError(f"{what} missing keys: {sorted(missing)}")
    return value


def wire_int(value, what: str, least: int) -> int:
    """``value`` as a JSON integer, not a boolean, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise SchemaError(f"{what} must be an integer of at least {least}")
    return value
