"""Wire-format descriptors: every exact object behind one (kind, payload)."""

import json
from fractions import Fraction

import pytest

from gradeforge import expand_series, read_series
from gradeforge.algebraic import Annihilator
from gradeforge.analytic import ExpPolyRational
from gradeforge.catalog import CORPUS_ANNIHILATORS, get_builtin
from gradeforge.descriptors import (
    KINDS,
    annihilator_from_json,
    annihilator_to_json,
    coeffs_json,
)
from gradeforge.errors import (
    NotARoot,
    RamifiedBranch,
    SchemaError,
    TruncationExceeded,
)
from gradeforge.holonomic import PRecurrence
from gradeforge.series import TruncSeries


def test_kind_whitelist():
    assert KINDS == ("coeffs", "algebraic", "holonomic",
                     "rational-exppoly", "builtin")
    with pytest.raises(SchemaError):
        read_series("polynomial", "{}")


# ---------------------------------------------------------------------------
# token parsing (the CLI entry path)


def test_builtin_tokens_pass_through():
    assert read_series("builtin", "catalan") is get_builtin("catalan")


def test_inline_json_tokens():
    got = expand_series(read_series("coeffs", '[1, "1/2", 3]'), 3)
    assert got.coeffs == (Fraction(1), Fraction(1, 2), Fraction(3))


def test_file_reference_tokens(tmp_path):
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"kind": "coeffs", "coeffs": [0, 1, 1, 2, 5]}))
    series = read_series("coeffs", f"@{path}")
    assert list(expand_series(series, 5).coeffs) == [0, 1, 1, 2, 5]


def test_missing_file_and_bad_json_are_schema_errors(tmp_path):
    with pytest.raises(SchemaError):
        read_series("coeffs", f"@{tmp_path / 'absent.json'}")
    with pytest.raises(SchemaError):
        read_series("coeffs", "[1, 2")


# ---------------------------------------------------------------------------
# coefficient tables


def test_coeffs_accepts_bare_list_and_labeled_object():
    bare = read_series("coeffs", "[1, 2, 3]")
    labeled = read_series("coeffs", '{"kind": "coeffs", "coeffs": [1, 2, 3]}')
    assert expand_series(bare, 3).coeffs == expand_series(labeled, 3).coeffs


def test_coeffs_truncates_but_never_extends():
    series = read_series("coeffs", "[1, 2, 3]")
    assert expand_series(series, 2).coeffs == (Fraction(1), Fraction(2))
    with pytest.raises(TruncationExceeded):
        expand_series(series, 4)


@pytest.mark.parametrize("payload", [
    [],
    [1.5],
    [True],
    ["1/0"],
    {"kind": "holonomic", "coeffs": [1]},
    {"coefficients": [1]},
    {"kind": "coeffs", "terms": 5, "coeffs": [1, 2]},
])
def test_coeffs_rejects_malformed_payloads(payload):
    with pytest.raises(SchemaError):
        expand_series(read_series("coeffs", json.dumps(payload)), 1)


def test_coeffs_json_round_trips():
    series = TruncSeries.from_list([1, "1/2", "-3/7", 0])
    blob = coeffs_json(series)
    assert blob["kind"] == "coeffs"
    assert blob["terms"] == 4
    back = expand_series(read_series("coeffs", json.dumps(blob)), 4)
    assert back.coeffs == series.coeffs


# ---------------------------------------------------------------------------
# algebraic payloads


def test_annihilator_json_round_trips_the_corpus():
    for name, ann in CORPUS_ANNIHILATORS.items():
        blob = annihilator_to_json(ann)
        assert blob["kind"] == "algebraic"
        back = annihilator_from_json(json.loads(json.dumps(blob)))
        assert back == ann, name


def test_annihilator_rows_merge_duplicates():
    got = annihilator_from_json({
        "P": [[0, 2, "1"], [0, 1, "-2"], [0, 1, "1"], [1, 0, 1]],
        "y0": 0,
    })
    want = annihilator_from_json({
        "P": [[0, 2, 1], [0, 1, -1], [1, 0, 1]],
        "y0": "0",
    })
    assert got == want


@pytest.mark.parametrize("payload", [
    [1, 2],
    {"P": [[0, 1, "1"]]},
    {"P": [], "y0": 0},
    {"P": [[0, 1]], "y0": 0},
    {"P": [[0, -1, "1"]], "y0": 0},
    {"P": [[0, 1, True]], "y0": 0},
    {"P": [[0, 1, "1/0"]], "y0": 0},
    {"P": [[0, 1, "1"]], "y0": 1.5},
    {"kind": "coeffs", "P": [[0, 1, "1"]], "y0": 0},
])
def test_annihilator_rejects_malformed_payloads(payload):
    with pytest.raises(SchemaError):
        annihilator_from_json(payload)


def test_algebraic_descriptor_expands_the_branch():
    ann = read_series("algebraic", json.dumps({
        "P": [[0, 2, "1"], [0, 1, "-1"], [1, 0, "1"]],  # y^2 - y + z
        "y0": "0",
    }))
    assert isinstance(ann, Annihilator)
    got = expand_series(ann, 7)
    assert [int(c) for c in got.coeffs] == [0, 1, 1, 2, 5, 14, 42]


@pytest.mark.parametrize("payload, error", [
    ({"P": [[0, 2, "1"], [0, 1, "-1"], [1, 0, "1"]], "y0": "2"}, NotARoot),
    ({"P": [[0, 2, "1"], [1, 0, "-1"]], "y0": "0"}, RamifiedBranch),
], ids=["not-a-root", "ramified"])
def test_algebraic_descriptor_is_checked_when_read(payload, error):
    with pytest.raises(error):
        read_series("algebraic", json.dumps(payload))


# ---------------------------------------------------------------------------
# holonomic and pole-form payloads


@pytest.mark.parametrize("kind, payload", [
    ("coeffs", {"coeffs": [1, 2]}),
    ("algebraic", {"P": [[0, 2, "1"], [0, 1, "-1"], [1, 0, "1"]], "y0": "0"}),
    ("holonomic", {"order": 1, "coeffs": [["-1"], ["1"]], "n0": 0,
                   "initial": ["1"]}),
    ("rational-exppoly", {"terms": [["1/2", 1, ["1"]]]}),
])
def test_every_reader_refuses_a_mismatched_kind_label(kind, payload):
    assert read_series(kind, json.dumps({"kind": kind, **payload}))
    other = "algebraic" if kind != "algebraic" else "holonomic"
    with pytest.raises(SchemaError, match="payload says kind"):
        read_series(kind, json.dumps({"kind": other, **payload}))


CATALAN_REC = PRecurrence.from_dense([[-2, -4], [2, 1]], 0, [1])


def test_holonomic_descriptor_unrolls():
    rec = read_series("holonomic", json.dumps(CATALAN_REC.to_json_dict()))
    assert rec == CATALAN_REC
    got = expand_series(rec, 6)
    assert [int(c) for c in got.coeffs] == [1, 1, 2, 5, 14, 42]


def test_exppoly_descriptor_expands():
    form = read_series("rational-exppoly", json.dumps({
        "terms": [["1/2", 1, ["1"]]],
    }))
    assert isinstance(form, ExpPolyRational)
    got = expand_series(form, 5)
    assert [int(c) for c in got.coeffs] == [2, 4, 8, 16, 32]  # (1/2)^(-n-1)


@pytest.mark.parametrize("payload", [
    {"terms": "no"},
    {"terms": [["0", 1, ["1"]]]},          # zero pole
    {"terms": [["2", 0, ["1"]]]},          # multiplicity too small
    {"terms": [["2", 1, ["1", "1"]]]},     # polynomial too long
    {"terms": [["2", True, ["1"]]]},
    {"terms": [["x", 1, ["1"]]]},
    {},
])
def test_exppoly_rejects_malformed_payloads(payload):
    with pytest.raises(SchemaError):
        read_series("rational-exppoly", json.dumps(payload))


# ---------------------------------------------------------------------------
# builtins and shared validation


def test_builtin_payload_must_be_a_name():
    with pytest.raises(SchemaError):
        read_series("builtin", "unknown-series")


def test_expansion_needs_positive_count():
    with pytest.raises(SchemaError):
        expand_series(read_series("builtin", "exp"), 0)


def test_holonomic_round_trip_through_descriptor():
    rec = PRecurrence.from_dense([[-2, -4], [2, 1]], 0, [1])
    assert read_series("holonomic", json.dumps(rec.to_json_dict())) == rec
