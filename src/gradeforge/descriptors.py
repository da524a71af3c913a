"""Series descriptors: the uniform way commands name a series.

A descriptor is a kind plus a payload.  Kinds: fixed coefficient lists,
algebraic annihilators, P-recursive recurrences, exp-poly rational
coefficient forms, and named builtins (each its catalog object).  Command
lines pass the payload as inline JSON, as @file, or (for builtins) as a
bare name.  ``read_series`` reads a (KIND, PAYLOAD) pair once into the
exact object it names, and ``expand_series`` expands that object.
"""

from __future__ import annotations

from .algebraic import Annihilator, expand_branch
from .analytic import ExpPolyRational
from .catalog import get_builtin
from .errors import SchemaError
from .holonomic import PRecurrence, unroll
from .polynomials import poly_from_rows, poly_rows
from .rationals import (
    coerce_rational,
    format_rational,
    read_json_arg,
    wire_int,
    wire_object,
)
from .series import TruncSeries

KINDS = ("coeffs", "algebraic", "holonomic", "rational-exppoly", "builtin")


def _check_kind_label(payload: dict, expected: str) -> None:
    label = payload.get("kind")
    if label is not None and label != expected:
        raise SchemaError(
            f'payload says kind {label!r} but the descriptor is {expected!r}'
        )


def _coeffs_from_json(payload) -> TruncSeries:
    terms = None
    if isinstance(payload, dict):
        wire_object(payload, ("coeffs",), "coeffs payload")
        if "terms" in payload:
            terms = wire_int(payload["terms"], 'coeffs "terms"', 1)
        payload = payload["coeffs"]
    if not isinstance(payload, list) or not payload:
        raise SchemaError("coeffs payload must be a nonempty list")
    if terms is not None and terms != len(payload):
        raise SchemaError(
            f'coeffs payload has "terms": {terms} but {len(payload)} entries'
        )
    return TruncSeries.from_list(payload)


def annihilator_from_json(payload) -> Annihilator:
    payload = wire_object(payload, ("P", "y0"), "algebraic payload")
    _check_kind_label(payload, "algebraic")
    poly, _ = poly_from_rows(payload["P"], 2, '"P"')
    return Annihilator(poly, payload["y0"])


def annihilator_to_json(ann: Annihilator) -> dict:
    return {"kind": "algebraic", "P": poly_rows(ann.poly),
            "y0": format_rational(ann.y0)}


def _exppoly_from_json(payload) -> ExpPolyRational:
    payload = wire_object(payload, ("terms",), "rational-exppoly payload")
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


def read_series(kind: str, arg: str):
    """The exact object a (kind, argument) command-line pair names.

    The argument is a builtin name for kind=builtin; otherwise inline
    JSON, or @path to read the JSON from a file.
    """
    if kind not in KINDS:
        raise SchemaError(
            f"unknown descriptor kind {kind!r}; choose from {', '.join(KINDS)}"
        )
    if kind == "builtin":
        return get_builtin(arg)
    payload = read_json_arg(arg, "descriptor")
    if kind == "algebraic":  # a reader of its own, label check included
        return annihilator_from_json(payload)
    if isinstance(payload, dict):
        _check_kind_label(payload, kind)
    if kind == "coeffs":
        return _coeffs_from_json(payload)
    if kind == "holonomic":
        return PRecurrence.from_json_dict(payload)
    return _exppoly_from_json(payload)


def expand_series(obj, terms: int) -> TruncSeries:
    """First ``terms`` exact coefficients of an object ``read_series`` made."""
    if terms < 1:
        raise SchemaError("terms must be positive")
    if isinstance(obj, TruncSeries):
        return obj.truncate(terms)
    if isinstance(obj, PRecurrence):
        return unroll(obj, terms)
    if isinstance(obj, Annihilator):
        return expand_branch(obj, terms)
    return obj.expand(terms)


def expand_builtin(name: str, terms: int) -> TruncSeries:
    """First ``terms`` exact coefficients of the builtin ``name``."""
    return expand_series(get_builtin(name), terms)


def coeffs_json(series: TruncSeries) -> dict:
    """Wire form of a coefficient table; re-ingestable as a coeffs payload."""
    return {
        "kind": "coeffs",
        "terms": series.order,
        "coeffs": [format_rational(c) for c in series.coeffs],
    }
