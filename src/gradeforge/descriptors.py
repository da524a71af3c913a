"""Series descriptors: the uniform way commands name a series.

A descriptor is a kind plus a JSON payload.  Kinds: fixed coefficient
lists, algebraic annihilators, P-recursive recurrences, exp-poly rational
coefficient forms, and named builtins.  Command lines pass the payload
inline, via @file, or (for builtins) as a bare name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebraic import Annihilator, expand_branch
from .analytic import ExpPolyRational
from .catalog import BuiltinSeries, get_builtin
from .errors import SchemaError, TruncationExceeded
from .holonomic import PRecurrence, unroll
from .polynomials import poly_from_rows, poly_rows
from .rationals import coerce_rational, format_rational
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
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc


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
        if "coeffs" not in payload:
            raise SchemaError('coeffs payload object needs a "coeffs" key')
        payload = payload["coeffs"]
    if not isinstance(payload, list) or not payload:
        raise SchemaError("coeffs payload must be a nonempty list")
    out = []
    for i, entry in enumerate(payload):
        if isinstance(entry, bool) or not isinstance(entry, (int, str)):
            raise SchemaError(
                f"coefficient {i} must be an integer or rational string"
            )
        out.append(coerce_rational(entry))
    return TruncSeries(tuple(out))


def annihilator_from_json(payload) -> Annihilator:
    if not isinstance(payload, dict):
        raise SchemaError("algebraic payload must be an object")
    _check_kind_label(payload, "algebraic")
    missing = {"P", "y0"} - set(payload)
    if missing:
        raise SchemaError(f"algebraic payload missing keys: {sorted(missing)}")
    rows = payload["P"]
    if not isinstance(rows, list) or not rows:
        raise SchemaError('"P" must be a nonempty list of [i, j, coeff] rows')
    poly = poly_from_rows(rows, 2, '"P"')
    if isinstance(payload["y0"], bool) or not isinstance(payload["y0"], (int, str)):
        raise SchemaError('"y0" must be an integer or rational string')
    return Annihilator(poly, coerce_rational(payload["y0"]))


def annihilator_to_json(ann: Annihilator) -> dict:
    return {"kind": "algebraic", "P": poly_rows(ann.poly),
            "y0": format_rational(ann.y0)}


def _exppoly_from_json(payload) -> ExpPolyRational:
    if not isinstance(payload, dict):
        raise SchemaError("rational-exppoly payload must be an object")
    _check_kind_label(payload, "rational-exppoly")
    if "terms" not in payload or not isinstance(payload["terms"], list):
        raise SchemaError('rational-exppoly payload needs a "terms" list')
    built = []
    for row in payload["terms"]:
        if (not isinstance(row, list) or len(row) != 3
                or isinstance(row[1], bool) or not isinstance(row[1], int)
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
