"""Default knobs and the JSON override file."""

import inspect
import json

import pytest

import gradeforge.automata as automata
from gradeforge import Defaults, load_defaults
from gradeforge.analytic import (
    QuadratureConfig,
    euler_branch_formula,
    euler_report,
)
from gradeforge.catalog import CORPUS_ANNIHILATORS
from gradeforge.diagonals import diagonal_witness
from gradeforge.errors import SchemaError
from gradeforge.obstruction import obstruction_report, radius_estimate


def test_default_values():
    d = Defaults()
    assert d.terms == 32
    assert d.window == 10
    assert d.max_period == 60
    assert d.zero_threshold == 0.5
    assert d.positive_threshold == 0.1
    assert d.max_states == 4096
    assert d.depth_budget == 8
    assert d.fingerprint_length == 64
    assert d.laguerre_nodes == 64
    assert d.quad_tolerance == 1e-10
    assert d.branch_terms == 40
    assert d.diagonal_order == 10


def test_depth_scales_inversely_with_log_base():
    d = Defaults()
    assert d.depth_for_base(2) == 8
    assert d.depth_for_base(3) == 5
    assert d.depth_for_base(4) == 4
    assert d.depth_for_base(5) == 3
    assert d.depth_for_base(7) == 2
    assert d.depth_for_base(257) == 1  # floors at 1


def test_as_dict_round_trips():
    d = Defaults(terms=48)
    assert Defaults(**d.as_dict()) == d


def test_fields_must_be_positive():
    with pytest.raises(SchemaError):
        Defaults(terms=0)
    with pytest.raises(SchemaError):
        Defaults(quad_tolerance=-1e-10)


def test_load_without_env_gives_defaults():
    assert load_defaults(env={}) == Defaults()


def test_load_overrides_from_file(tmp_path):
    path = tmp_path / "knobs.json"
    path.write_text(json.dumps({"terms": 64, "quad_tolerance": 1e-8}))
    d = load_defaults(env={"GRADEFORGE_CONFIG": str(path)})
    assert d.terms == 64
    assert d.quad_tolerance == 1e-8
    assert d.window == Defaults().window  # untouched fields keep defaults


def test_load_accepts_integral_floats_for_int_fields(tmp_path):
    path = tmp_path / "knobs.json"
    path.write_text(json.dumps({"terms": 64.0}))
    d = load_defaults(env={"GRADEFORGE_CONFIG": str(path)})
    assert d.terms == 64 and isinstance(d.terms, int)


@pytest.mark.parametrize("payload", [
    {"terms": 12.5},          # fractional value for an integer knob
    {"terms": True},          # bool is not a number here
    {"cutoff": 10},           # unknown key
    {"terms": "64"},          # strings are not coerced
    [1, 2, 3],                # not an object
])
def test_load_rejects_malformed_files(tmp_path, payload):
    path = tmp_path / "knobs.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        load_defaults(env={"GRADEFORGE_CONFIG": str(path)})


def test_load_rejects_missing_or_broken_files(tmp_path):
    with pytest.raises(SchemaError):
        load_defaults(env={"GRADEFORGE_CONFIG": str(tmp_path / "absent.json")})
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_defaults(env={"GRADEFORGE_CONFIG": str(path)})


def test_override_values_are_validated_like_defaults(tmp_path):
    path = tmp_path / "knobs.json"
    path.write_text(json.dumps({"max_states": -5}))
    with pytest.raises(SchemaError):
        load_defaults(env={"GRADEFORGE_CONFIG": str(path)})


def test_library_defaults_are_the_config_fields(monkeypatch):
    d = Defaults()
    report = inspect.signature(obstruction_report).parameters
    radius = inspect.signature(radius_estimate).parameters
    assert report["window"].default == d.window
    assert report["max_period"].default == d.max_period
    for params in (report, radius):
        assert params["zero_threshold"].default == d.zero_threshold
        assert params["positive_threshold"].default == d.positive_threshold
    assert QuadratureConfig().nodes == d.laguerre_nodes
    assert QuadratureConfig().tolerance == d.quad_tolerance
    assert (inspect.signature(diagonal_witness).parameters["verified_order"]
            .default == d.diagonal_order)
    for fn in (euler_branch_formula, euler_report):
        assert inspect.signature(fn).parameters["terms"].default == d.branch_terms

    made = []
    real = automata.KernelBudgets

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(automata, "KernelBudgets", spy)
    automata.christol_report(CORPUS_ANNIHILATORS["geometric"], 5)
    assert made[0] == real(max_states=d.max_states,
                           max_depth=d.depth_for_base(5),
                           fingerprint_length=d.fingerprint_length)
