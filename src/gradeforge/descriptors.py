"""Series descriptors: the uniform way commands name a series.

A descriptor is a kind plus a JSON payload.  Kinds: fixed coefficient
lists, algebraic annihilators, P-recursive recurrences, exp-poly rational
coefficient forms, and named builtins.  Command lines pass the payload
inline, via @file, or (for builtins) as a bare name.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebraic import Annihilator, expand_branch
from .analytic import ExpPolyRational
from .catalog import BuiltinSeries, get_builtin
from .errors import SchemaError, TruncationExceeded
from .holonomic import PRecurrence, unroll
from .polynomials import poly_from_rows, poly_rows
from .rationals import (
    coerce_rational,
    format_rational,
    read_json_arg,
    wire_object,
)
from .series import TruncSeries

KINDS = ("coeffs", "algebraic", "holonomic", "rational-exppoly", "builtin")


@dataclass(frozen=True)
class SeriesDescriptor:
    kind: str
    payload: object

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(
                f"unknown descriptor kind {self.kind!r}; "
                f"choose from {', '.join(KINDS)}"
            )


def descriptor_from_tokens(kind: str, arg: str) -> SeriesDescriptor:
    """Build a descriptor from a (kind, argument) command-line pair.

    The argument is a builtin name for kind=builtin; otherwise inline
    JSON, or @path to read the JSON from a file.
    """
    if kind == "builtin":
        return SeriesDescriptor(kind, arg)
    return SeriesDescriptor(kind, read_json_arg(arg, "descriptor"))


def _check_kind_label(payload: dict, expected: str) -> None:
    label = payload.get("kind")
    if label is not None and label != expected:
        raise SchemaError(
            f'payload says kind {label!r} but the descriptor is {expected!r}'
        )


def _coeffs_from_json(payload) -> TruncSeries:
    if isinstance(payload, dict):
        _check_kind_label(payload, "coeffs")
        payload = wire_object(payload, ("coeffs",), "coeffs payload")["coeffs"]
    if not isinstance(payload, list) or not payload:
        raise SchemaError("coeffs payload must be a nonempty list")
    return TruncSeries.from_list(payload)


def annihilator_from_json(payload) -> Annihilator:
    payload = wire_object(payload, ("P", "y0"), "algebraic payload")
    _check_kind_label(payload, "algebraic")
    return Annihilator(poly_from_rows(payload["P"], 2, '"P"'), payload["y0"])


def annihilator_to_json(ann: Annihilator) -> dict:
    return {"kind": "algebraic", "P": poly_rows(ann.poly),
            "y0": format_rational(ann.y0)}


def _exppoly_from_json(payload) -> ExpPolyRational:
    payload = wire_object(payload, ("terms",), "rational-exppoly payload")
    _check_kind_label(payload, "rational-exppoly")
    if not isinstance(payload["terms"], list):
        raise SchemaError('rational-exppoly payload needs a "terms" list')
    built = []
    for row in payload["terms"]:
        if (not isinstance(row, list) or len(row) != 3
                or not isinstance(row[2], list)):
            raise SchemaError(
                "each term must be [pole, multiplicity, [poly coeffs...]]"
            )
        built.append((coerce_rational(row[0]), row[1],
                      tuple(coerce_rational(c) for c in row[2])))
    return ExpPolyRational(tuple(built))


def materialize(desc: SeriesDescriptor):
    """Payload -> the exact object the descriptor names."""
    if desc.kind == "coeffs":
        return _coeffs_from_json(desc.payload)
    if desc.kind == "algebraic":
        return annihilator_from_json(desc.payload)
    if desc.kind == "holonomic":
        return PRecurrence.from_json_dict(desc.payload)
    if desc.kind == "rational-exppoly":
        return _exppoly_from_json(desc.payload)
    if not isinstance(desc.payload, str):
        raise SchemaError("builtin payload must be a name string")
    return get_builtin(desc.payload)


def expand_descriptor(desc: SeriesDescriptor, terms: int) -> TruncSeries:
    """First ``terms`` exact coefficients of the series the descriptor names."""
    if terms < 1:
        raise SchemaError("terms must be positive")
    obj = materialize(desc)
    if isinstance(obj, TruncSeries):
        if obj.order < terms:
            raise TruncationExceeded(
                f"descriptor holds {obj.order} coefficients, "
                f"requested {terms}"
            )
        return obj.truncate(terms)
    if isinstance(obj, PRecurrence):
        return unroll(obj, terms)
    if isinstance(obj, Annihilator):
        return expand_branch(obj, terms)
    if isinstance(obj, (ExpPolyRational, BuiltinSeries)):
        return obj.expand(terms)
    raise SchemaError(f"descriptor kind {desc.kind!r} names no series")


def coeffs_json(series: TruncSeries) -> dict:
    """Wire form of a coefficient table; re-ingestable as a coeffs payload."""
    return {
        "kind": "coeffs",
        "terms": series.order,
        "coeffs": [format_rational(c) for c in series.coeffs],
    }
