"""End-to-end command-line checks, run in process through main()."""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gradeforge.analytic import MAX_LAGUERRE_NODES
from gradeforge.automata import (
    KernelBudgets,
    ResidueSequence,
    kernel_closure,
)
from gradeforge import cli
from gradeforge.cli import main
from gradeforge.errors import VerificationFailed
from gradeforge.holonomic import PRecurrence, unroll
from gradeforge.obstruction import MILLER_RABIN_EXACT_BELOW
from oracles import corpus_residues


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--json")
    assert rc == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# expand


def test_expand_builtin_json(capsys):
    data = run_json(capsys, "expand", "builtin", "catalan", "--terms", "8")
    assert data["kind"] == "coeffs"
    assert data["terms"] == 8
    assert data["coeffs"] == ["1", "1", "2", "5", "14", "42", "132", "429"]


def test_expand_table_is_the_default(capsys):
    rc, out, err = run(capsys, "expand", "builtin", "exp", "--terms", "4")
    assert rc == 0
    assert out.splitlines() == ["0\t1", "1\t1", "2\t1/2", "3\t1/6"]


def test_expand_inline_coeffs(capsys):
    data = run_json(capsys, "expand", "coeffs", '[3, "1/2"]', "--terms", "2")
    assert data["coeffs"] == ["3", "1/2"]


def test_expand_descriptor_from_file(capsys, tmp_path):
    path = tmp_path / "branch.json"
    path.write_text(json.dumps(
        {"P": [[0, 2, "1"], [0, 1, "-1"], [1, 0, "1"]], "y0": "0"}
    ))
    data = run_json(capsys, "expand", "algebraic", f"@{path}", "--terms", "6")
    assert data["coeffs"] == ["0", "1", "1", "2", "5", "14"]


def test_expand_output_round_trips_as_a_descriptor(capsys):
    first = run_json(capsys, "expand", "builtin", "central-binomial",
                     "--terms", "10")
    again = run_json(capsys, "expand", "coeffs", json.dumps(first),
                     "--terms", "10")
    assert again == first


def test_expand_rejects_bad_payload(capsys):
    rc, out, err = run(capsys, "expand", "coeffs", "[1.5]")
    assert rc == 2
    assert "error:" in err


def test_expand_rejects_nonpositive_terms(capsys):
    rc, out, err = run(capsys, "expand", "builtin", "exp", "--terms", "0")
    assert rc == 2


# ---------------------------------------------------------------------------
# hadamard


def test_hadamard_collapses_euler_against_exp(capsys):
    data = run_json(capsys, "hadamard", "builtin", "euler", "builtin", "exp",
                    "--terms", "8")
    assert data["coeffs"] == ["1", "-1", "1", "-1", "1", "-1", "1", "-1"]


def test_hadamard_emit_recurrence(capsys):
    data = run_json(capsys, "hadamard", "builtin", "euler", "builtin", "exp",
                    "--terms", "6", "--emit-recurrence")
    rec = PRecurrence.from_json_dict(data["recurrence"])
    assert [str(c) for c in unroll(rec, 6).coeffs] == data["coeffs"]


def test_hadamard_emit_recurrence_table_rendering(capsys):
    rc, out, err = run(capsys, "hadamard", "builtin", "euler", "builtin",
                       "exp", "--terms", "4", "--emit-recurrence")
    assert rc == 0
    assert "recurrence of order" in out
    assert "initial:" in out


def test_hadamard_emit_recurrence_needs_holonomic_inputs(capsys):
    rc, out, err = run(capsys, "hadamard", "coeffs", "[1, 2]", "builtin",
                       "exp", "--terms", "2", "--emit-recurrence")
    assert rc == 2
    assert "recurrence" in err


# ---------------------------------------------------------------------------
# obstruct


def test_obstruct_flags_factorial_growth(capsys):
    data = run_json(capsys, "obstruct", "builtin", "exp", "--terms", "40")
    assert data["verdict"] == "infinite-grade-evidence"


def test_obstruct_passes_geometric(capsys):
    data = run_json(capsys, "obstruct", "builtin", "geometric",
                    "--terms", "40")
    assert data["verdict"] == "no-obstruction-found"


def test_obstruct_table_lists_the_scans(capsys):
    rc, out, err = run(capsys, "obstruct", "builtin", "euler",
                       "--terms", "30")
    assert rc == 0
    for label in ("verdict", "prime support", "radius fit", "periodicity"):
        assert label in out


def test_obstruct_clamps_out_of_range_windows(capsys):
    # the report clamps rather than refuses: the command still runs, but a
    # one-index window is too blunt to certify growing prime support
    data = run_json(capsys, "obstruct", "builtin", "exp", "--terms", "40",
                    "--window", "0")
    assert data["verdict"] == "no-obstruction-found"


# ---------------------------------------------------------------------------
# modp


def test_modp_catalan_closes(capsys):
    data = run_json(capsys, "modp", "builtin", "catalan", "--p", "2",
                    "--depth", "5")
    assert data["status"] == "closed"
    assert data["state_count"] == 3
    assert data["consistent"] is True
    assert data["q"] == 2


def test_modp_table_rendering(capsys):
    rc, out, err = run(capsys, "modp", "builtin", "catalan", "--p", "2",
                       "--depth", "5")
    assert rc == 0
    assert "status       closed" in out
    assert out.count("state ") == 3


def test_modp_dot_rendering(capsys):
    rc, out, err = run(capsys, "modp", "builtin", "catalan", "--p", "2",
                       "--depth", "5", "--dot")
    assert rc == 0
    assert out.startswith("digraph kernel {")
    assert 'label="base 2, mod 2, closed"' in out


def test_modp_explicit_base(capsys):
    data = run_json(capsys, "modp", "builtin", "geometric", "--p", "3",
                    "--base", "2", "--depth", "4")
    assert data["q"] == 2
    assert data["p"] == 3
    assert data["status"] == "closed"


def test_modp_needs_an_algebraic_input(capsys):
    rc, out, err = run(capsys, "modp", "builtin", "exp", "--p", "2",
                       "--depth", "4")
    assert rc == 2
    assert "annihilator" in err


def test_modp_bad_prime_power_is_a_precondition_error(capsys):
    # 1/2 coefficients cannot be reduced mod 2
    payload = json.dumps({
        "P": [[0, 2, "1"], [0, 1, "2"], [1, 0, "-1"]],  # y^2 + 2y - z
        "y0": "0",
    })
    rc, out, err = run(capsys, "modp", "algebraic", payload, "--p", "2",
                       "--depth", "4")
    assert rc == 3
    assert "denominator" in err


def test_modp_certifies_large_primes_and_names_its_bound(capsys):
    data = run_json(capsys, "modp", "builtin", "catalan", "--p",
                    "1000000000000000003", "--base", "2", "--depth", "1")
    assert data["p"] == 10**18 + 3
    rc, _, err = run(capsys, "modp", "builtin", "catalan", "--p",
                     str(MILLER_RABIN_EXACT_BELOW), "--base", "2")
    assert rc == 2
    assert str(MILLER_RABIN_EXACT_BELOW) in err


def test_modp_validates_p_and_r(capsys):
    rc, _, _ = run(capsys, "modp", "builtin", "catalan", "--p", "1",
                   "--depth", "4")
    assert rc == 2
    rc, _, _ = run(capsys, "modp", "builtin", "catalan", "--p", "2",
                   "--r", "0", "--depth", "4")
    assert rc == 2


# ---------------------------------------------------------------------------
# diagonal


def test_diagonal_witness_output(capsys):
    data = run_json(capsys, "diagonal", "builtin", "catalan", "--order", "6")
    assert data["diagonal"] == ["1", "1", "2", "5", "14", "42"]
    w = data["witness"]
    assert w["d"] == 1
    assert w["constant_shift"] == "1"


def test_diagonal_square_lifts_to_four_variables(capsys):
    data = run_json(capsys, "diagonal", "builtin", "central-binomial",
                    "--order", "6", "--square")
    assert data["witness"]["d"] == 2
    assert data["diagonal"] == ["1", "4", "36", "400", "4900", "63504"]


@pytest.mark.parametrize("name, closed_form", [
    ("catalan", lambda n: math.comb(2 * n, n) // (n + 1)),
    ("central-binomial", lambda n: math.comb(2 * n, n)),
], ids=["catalan", "central-binomial"])
def test_diagonal_square_returns_every_requested_term(capsys, name,
                                                      closed_form):
    data = run_json(capsys, "diagonal", "builtin", name,
                    "--square", "--order", "10")
    assert data["witness"]["verified_order"] == 10
    assert data["diagonal"] == [str(closed_form(n) ** 2) for n in range(10)]


@pytest.mark.parametrize("order", ["0", "-1"])
def test_diagonal_nonpositive_order_is_a_schema_error(capsys, order):
    rc, out, err = run(capsys, "diagonal", "builtin", "catalan",
                       "--order", order)
    assert rc == 2
    assert "--order" in err


def test_diagonal_table_prints_the_rational_function(capsys):
    rc, out, err = run(capsys, "diagonal", "builtin", "catalan",
                       "--order", "5")
    assert rc == 0
    assert "numerator" in out and "denominator" in out
    assert "diagonal" in out


def test_diagonal_needs_an_annihilator(capsys):
    rc, out, err = run(capsys, "diagonal", "builtin", "euler", "--order", "4")
    assert rc == 2


def test_diagonal_order_over_desk_cap_exhausts_budget(capsys):
    # the catalan witness denominator has 4 terms: 501^2 * 4 > 10^6
    rc, out, err = run(capsys, "diagonal", "builtin", "catalan",
                       "--order", "501")
    assert rc == 4


def test_diagonal_order_13_is_under_the_work_cap(capsys):
    data = run_json(capsys, "diagonal", "builtin", "catalan", "--order", "13")
    assert data["diagonal"] == [str(math.comb(2 * n, n) // (n + 1))
                                for n in range(13)]


# ---------------------------------------------------------------------------
# euler and optics


def test_euler_bench_values(capsys):
    data = run_json(capsys, "euler", "--z", "1.0")
    assert abs(data["value"] - 0.5963473623) < 1e-6
    assert data["discrepancy"] < 1e-8
    assert data["method"]


def test_euler_rejects_nonpositive_z(capsys):
    rc, out, err = run(capsys, "euler", "--z", "-1.0")
    assert rc == 3


@pytest.mark.parametrize("flags", [
    ("--nodes", "4"),
    ("--tolerance", "0"),
    ("--terms", "0"),
    ("--nodes", str(MAX_LAGUERRE_NODES + 1)),
])
def test_euler_malformed_numbers_are_schema_errors(capsys, flags):
    rc, out, err = run(capsys, "euler", "--z", "1.0", *flags)
    assert rc == 2
    assert "error:" in err


def test_euler_at_the_node_bound_still_uses_gauss_laguerre(capsys):
    data = run_json(capsys, "euler", "--z", "1",
                    "--nodes", str(MAX_LAGUERRE_NODES))
    assert data["method"] == f"gauss-laguerre-{2 * MAX_LAGUERRE_NODES}"
    assert abs(data["value"] - 0.5963473623) < 1e-9


_HUGE_NODES = """
import contextlib, io, sys
from gradeforge.cli import main
with contextlib.redirect_stderr(io.StringIO()):
    rc = main(["euler", "--z", "1", "--nodes", "100000"])
loaded = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
sys.exit(f"rc={rc}, loaded {loaded}" if rc != 2 or loaded else 0)
"""


def test_euler_refuses_nodes_past_the_bound_before_loading_numpy():
    proc = run_python(_HUGE_NODES)
    assert proc.returncode == 0, proc.stderr


def test_euler_table_rendering(capsys):
    rc, out, err = run(capsys, "euler", "--z", "0.5")
    assert rc == 0
    assert "value" in out and "branch offset" in out


def test_optics_exact_identity(capsys):
    tangent = '[0, 1, 0, "1/3", 0, "2/15", 0]'
    data = run_json(capsys, "optics", "coeffs", tangent,
                    "--plates", '[[1, 1], ["1/2", 3]]', "--terms", "7")
    assert data["exact"] is True
    assert data["discrepancy"] == "0"
    assert data["plates"] == 2


def test_optics_rejects_even_series(capsys):
    rc, out, err = run(capsys, "optics", "builtin", "geometric",
                       "--plates", "[[1, 1]]", "--terms", "6")
    assert rc == 3


def test_optics_validates_plates(capsys):
    odd = '[0, 1, 0, "1/3"]'
    for plates in ("[]", "[[1]]", '[[1, 0]]', '[["1/0", 1]]', "{}"):
        rc, out, err = run(capsys, "optics", "coeffs", odd,
                           "--plates", plates, "--terms", "4")
        assert rc == 2, plates


# ---------------------------------------------------------------------------
# global behavior


def test_show_config_prints_effective_knobs(capsys, monkeypatch):
    monkeypatch.delenv("GRADEFORGE_CONFIG", raising=False)
    rc, out, err = run(capsys, "--show-config")
    assert rc == 0
    cfg = json.loads(out)
    assert cfg["terms"] == 32
    assert cfg["depth_budget"] == 8


def test_config_file_overrides_apply(capsys, tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"terms": 5}))
    monkeypatch.setenv("GRADEFORGE_CONFIG", str(path))
    data = run_json(capsys, "expand", "builtin", "exp")
    assert data["terms"] == 5


def test_broken_config_file_is_a_schema_error(capsys, tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text("{oops")
    monkeypatch.setenv("GRADEFORGE_CONFIG", str(path))
    rc, out, err = run(capsys, "expand", "builtin", "exp")
    assert rc == 2


@pytest.mark.parametrize("rc, argv", [
    # 2: malformed input, raised as SchemaError where it is found
    (2, ("expand", "algebraic", '{"P": [[1, 0, "1"]], "y0": "0"}')),
    (2, ("expand", "rational-exppoly", '{"terms": [["0", 1, ["1"]]]}')),
    (2, ("expand", "holonomic",
         '{"order": 1, "coeffs": [["-1"], ["1"]], "n0": 0, '
         '"initial": ["1", "2"]}')),
    # 3: well-formed input that breaks a mathematical precondition
    (3, ("obstruct", "builtin", "exp", "--terms", "10")),
    (3, ("obstruct", "builtin", "exp", "--terms", "1")),
    (3, ("expand", "coeffs", "[1]", "--terms", "2")),
    (3, ("expand", "holonomic",
         '{"order": 1, "coeffs": [["1"], ["0", "1"]], "n0": 0, '
         '"initial": ["1"]}')),
    (3, ("euler", "--z", "inf")),
    # 4: a work budget that cannot cover the request
    (4, ("euler", "--z", "0.01", "--terms", "2")),
    # 2 again: JSON booleans are not integers
    (2, ("expand", "holonomic",
         '{"order": true, "coeffs": [["-1"], ["1"]], "n0": false, '
         '"initial": ["1"]}', "--terms", "3")),
], ids=["no-y", "zero-pole", "initial-off-recurrence", "obstruct-10-terms",
        "obstruct-1-term", "truncated-coeffs", "underdetermined",
        "infinite-z", "branch-formula-terms", "boolean-order"])
def test_exit_code_follows_the_error_family(capsys, rc, argv):
    got, out, err = run(capsys, *argv)
    assert got == rc, err
    assert err.startswith("error: ")


def test_non_integer_config_value_is_a_schema_error(capsys, tmp_path,
                                                    monkeypatch):
    for text in ("NaN", "Infinity", "2.5"):
        path = tmp_path / "cfg.json"
        path.write_text('{"terms": %s}' % text)
        monkeypatch.setenv("GRADEFORGE_CONFIG", str(path))
        rc, out, err = run(capsys, "expand", "builtin", "exp")
        assert rc == 2, text
        assert "must be an integer" in err


_DEFECT = """
import sys
from gradeforge import cli
def broken(args, cfg):
    raise ValueError("a defect in a handler")
cli._COMMANDS["expand"] = (broken, None)
sys.exit(cli.main(["expand", "builtin", "exp"]))
"""


def run_python(code: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)


def test_defects_exit_1_never_3(capsys, monkeypatch):
    def failed_self_check(args, cfg):
        raise VerificationFailed("result disagrees with its recomputation")

    monkeypatch.setitem(cli._COMMANDS, "expand", (failed_self_check, None))
    rc, out, err = run(capsys, "expand", "builtin", "exp")
    assert rc == 1
    assert "disagrees" in err
    # any other exception is not translated: it propagates, and the
    # interpreter exits 1 with its traceback
    proc = run_python(_DEFECT)
    assert proc.returncode == 1
    assert "ValueError: a defect in a handler" in proc.stderr


def test_no_command_prints_usage(capsys):
    rc, out, err = run(capsys)
    assert rc == 2
    assert "usage" in err.lower()


def test_unknown_flag_exits_through_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["expand", "builtin", "exp", "--frobnicate"])
    assert info.value.code == 2


def test_json_and_table_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as info:
        main(["expand", "builtin", "exp", "--json", "--table"])
    assert info.value.code == 2


def readme_commands():
    """The `gradeforge ...` lines of the README's command-line example."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines()
            if line.startswith("gradeforge ")]


def test_readme_command_examples_exit_zero(capsys, monkeypatch):
    monkeypatch.delenv("GRADEFORGE_CONFIG", raising=False)
    lines = readme_commands()
    assert lines
    for line in lines:
        try:
            rc = main(shlex.split(line)[1:])
        except SystemExit as exc:
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == 0, f"{line}: {err}"



# ---------------------------------------------------------------------------
# integers past CPython's int<->str digit cap


def test_expand_round_trips_integers_past_the_str_digit_cap(capsys, tmp_path):
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    rc, out, err = run(capsys, "expand", "builtin", "euler",
                       "--terms", "1700", "--json")
    assert rc == 0, err
    # 1699! has 4,700 digits, past the default cap of 4,300
    assert len(json.loads(out)["coeffs"][-1]) > 4300
    path = tmp_path / "euler.json"
    path.write_text(out)
    rc, again, err = run(capsys, "expand", "coeffs", f"@{path}",
                         "--terms", "1700", "--json")
    assert rc == 0, err
    assert again == out
    # the cap is lifted only while a command runs
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


# ---------------------------------------------------------------------------
# modp argument validation


@pytest.mark.parametrize("flag, value", [
    ("--p", "4"),
    ("--fingerprint-length", "0"),
    ("--max-states", "0"),
    ("--depth", "0"),
    ("--base", "1"),
])
def test_modp_malformed_arguments_are_schema_errors(capsys, flag, value):
    opts = {"--p": "2", "--depth": "3", flag: value}
    argv = [token for pair in opts.items() for token in pair]
    rc, out, err = run(capsys, "modp", "builtin", "catalan", *argv)
    assert rc == 2
    assert err.startswith(f"error: {flag} must be")


# ---------------------------------------------------------------------------
# modp at a prime square, with the default budgets


def test_modp_central_binomial_mod_nine_ends_at_its_depth_budget(capsys):
    # the default depth for base 3 is 5; this kernel needs depth 7 to close
    data = run_json(capsys, "modp", "builtin", "central-binomial", "--p",
                    "3", "--r", "2")
    terms = corpus_residues("central-binomial", 64 * 3**5, 3, 2)
    oracle = kernel_closure(ResidueSequence(9, tuple(terms)), 3,
                            KernelBudgets(4096, 5, 64))
    assert data["status"] == oracle.status == "exhausted-budget"
    assert data["state_count"] == len(oracle.states) == 15
    assert data["automaton"] == oracle.to_json_dict()


# ---------------------------------------------------------------------------
# start-up cost


_IMPORT_GUARD = """
import contextlib, io, sys
from gradeforge.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["modp", "builtin", "catalan", "--p", "2"])
loaded = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
sys.exit(f"rc={rc}, loaded {loaded}" if rc or loaded else 0)
"""


def test_commands_other_than_euler_do_not_load_numpy_or_scipy():
    proc = run_python(_IMPORT_GUARD)
    assert proc.returncode == 0, proc.stderr
