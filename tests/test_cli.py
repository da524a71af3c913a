"""End-to-end command-line checks, run in process through main()."""

import json
import math
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import scipy.special

from gradeforge.analytic import MAX_LAGUERRE_NODES
from gradeforge.automata import (
    CHRISTOL_MAX_TERMS,
    KernelBudgets,
    ResidueSequence,
    kernel_closure,
)
from gradeforge import algebraic, cli
from gradeforge.cli import main
from gradeforge.algebraic import branch_recurrence
from gradeforge.descriptors import KINDS, annihilator_to_json, read_series
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


def test_expand_payload_from_file(capsys, tmp_path):
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


def test_expand_refuses_a_coeffs_terms_count_that_disagrees(capsys):
    rc, out, err = run(capsys, "expand", "coeffs",
                       '{"kind":"coeffs","terms":5,"coeffs":[1,2]}')
    assert rc == 2
    assert '"terms"' in err


def test_expand_help_names_every_kind(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # no wrapping inside a kind
    with pytest.raises(SystemExit) as info:
        main(["expand", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert all(kind in out for kind in KINDS)


def test_parser_is_built_once_per_defaults_value(capsys, monkeypatch):
    monkeypatch.delenv("GRADEFORGE_CONFIG", raising=False)
    cfg = cli.load_defaults()
    run_json(capsys, "expand", "builtin", "catalan", "--terms", "3")
    parser = cli.build_parser(cfg)
    run_json(capsys, "expand", "builtin", "catalan", "--terms", "3")
    assert cli.build_parser(cfg) is parser
    other = cli.build_parser(cli.Defaults(terms=cfg.terms + 1))
    assert other is not parser
    assert other.parse_args(["expand", "builtin", "exp"]).terms == (
        cfg.terms + 1)
    # one parser per (defaults, command) as well
    assert cli.build_parser(cfg, None) is parser
    expand = cli.build_parser(cfg, "expand")
    run_json(capsys, "expand", "builtin", "catalan", "--terms", "3")
    assert cli.build_parser(cfg, "expand") is expand
    ones = {name: cli.build_parser(cfg, name) for name in cli._COMMANDS}
    assert len({id(one) for one in ones.values()} | {id(parser)}) == 8
    assert all(cli.build_parser(cfg, name) is one
               for name, one in ones.items())
    other_expand = cli.build_parser(cli.Defaults(terms=cfg.terms + 1),
                                    "expand")
    assert other_expand is not expand
    assert other_expand.parse_args(["expand", "builtin", "exp"]).terms == (
        cfg.terms + 1)


# A cheap, valid invocation of every subcommand.
ONE_RUN = {
    "expand": ["builtin", "catalan", "--terms", "3"],
    "hadamard": ["builtin", "catalan", "builtin", "exp", "--terms", "3"],
    "obstruct": ["builtin", "catalan", "--terms", "20"],
    "modp": ["builtin", "catalan", "--p", "2"],
    "diagonal": ["builtin", "catalan", "--order", "3"],
    "euler": ["--z", "1"],
    "optics": ["coeffs", '[0,1,0,"1/3",0,"2/15",0]',
               "--plates", '[[1,1],["1/2",3]]', "--terms", "7"],
}


def parse_exit(capsys, parser, argv):
    with pytest.raises(SystemExit) as info:
        parser.parse_args(argv)
    out, err = capsys.readouterr()
    return info.value.code, out, err


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_one_command_parser_prints_what_the_full_parser_prints(
        capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("GRADEFORGE_CONFIG", raising=False)
    cfg = cli.load_defaults()
    full, one = cli.build_parser(cfg), cli.build_parser(cfg, name)
    helped = parse_exit(capsys, full, [name, "--help"])
    assert helped[0] == 0 and helped[1].startswith(f"usage: gradeforge {name}")
    assert parse_exit(capsys, one, [name, "--help"]) == helped
    # an unrecognized flag is reported by the top-level parser, whose usage
    # line names every command
    argv = [name, *ONE_RUN[name], "--frobnicate"]
    refused = parse_exit(capsys, full, argv)
    assert refused[0] == 2
    assert refused[2].endswith("unrecognized arguments: --frobnicate\n")
    assert "{expand,hadamard,obstruct,modp,diagonal,euler,optics}" in (
        refused[2])
    assert parse_exit(capsys, one, argv) == refused


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_a_command_builds_no_other_subparser(capsys, monkeypatch, name):
    def refuse(sp, cfg):
        raise AssertionError(f"built the parser of {sp.prog}")

    for other, spec in cli._COMMANDS.items():
        if other != name:
            monkeypatch.setitem(cli._COMMANDS, other,
                                spec._replace(arguments=refuse))
    cli._parser.cache_clear()
    try:
        rc, out, err = run(capsys, name, *ONE_RUN[name])
    finally:
        cli._parser.cache_clear()
    assert rc == 0, err
    assert out


def test_module_entry_reads_its_arguments_from_the_command_line(capsys):
    argv = ["modp", "builtin", "catalan", "--p", "2", "--json"]
    proc = run_python("-m", "gradeforge.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == run_json(capsys, *argv[:-1])


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


def test_hadamard_emit_recurrence_reads_each_payload_once(capsys,
                                                         monkeypatch):
    apery = ('{"order":2,"coeffs":[[1,3,3,1],[-117,-231,-153,-34],'
             '[8,12,6,1]],"n0":0,"initial":["1","5"]}')
    read = PRecurrence.from_json_dict
    calls = []

    def counted(cls, d):
        calls.append(d)
        return read(d)

    monkeypatch.setattr(PRecurrence, "from_json_dict", classmethod(counted))
    data = run_json(capsys, "hadamard", "holonomic", apery, "holonomic",
                    apery, "--terms", "6", "--emit-recurrence")
    assert data["coeffs"][:3] == ["1", "25", "5329"]
    assert len(calls) == 2


APERY_A = ('{"order":2,"coeffs":[[1,3,3,1],[-117,-231,-153,-34],'
           '[8,12,6,1]],"n0":0,"initial":["1","5"]}')


@pytest.mark.parametrize("factors, derivations, head", [
    (("algebraic", '{"P": [[1, 2, "1"], [0, 1, "-1"], [0, 0, "1"]], '
      '"y0": "1"}', "holonomic", APERY_A), 1, ["1", "5", "146"]),
    (("builtin", "catalan", "builtin", "catalan"), 2, ["1", "1", "4", "25"]),
], ids=["algebraic-holonomic", "builtin-builtin"])
def test_hadamard_emit_recurrence_derives_each_algebraic_factor_once(
        capsys, monkeypatch, factors, derivations, head):
    derive = algebraic.branch_recurrence
    calls = []

    def counted(ann):
        calls.append(ann)
        return derive(ann)

    # expand_branch looks the derivation up in its own module
    monkeypatch.setattr(algebraic, "branch_recurrence", counted)
    monkeypatch.setattr(cli, "branch_recurrence", counted)
    data = run_json(capsys, "hadamard", *factors, "--terms", "6",
                    "--emit-recurrence")
    assert data["coeffs"][:len(head)] == head
    assert len(calls) == derivations


def test_hadamard_emit_recurrence_table_rendering(capsys):
    rc, out, err = run(capsys, "hadamard", "builtin", "euler", "builtin",
                       "exp", "--terms", "4", "--emit-recurrence")
    assert rc == 0
    assert "recurrence of order" in out
    assert "initial:" in out


def test_hadamard_emit_recurrence_of_an_algebraic_factor(capsys):
    catalan = '{"P": [[1, 2, "1"], [0, 1, "-1"], [0, 0, "1"]], "y0": "1"}'
    apery = ('{"order":2,"coeffs":[[1,3,3,1],[-117,-231,-153,-34],'
             '[8,12,6,1]],"n0":0,"initial":["1","5"]}')
    data = run_json(capsys, "hadamard", "algebraic", catalan, "holonomic",
                    apery, "--terms", "40", "--emit-recurrence")
    rec = PRecurrence.from_json_dict(data["recurrence"])
    assert [str(c) for c in unroll(rec, 40).coeffs] == data["coeffs"]
    assert data["coeffs"][:3] == ["1", "5", "146"]


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


def test_obstruct_reports_thue_morse_as_aperiodic(capsys):
    data = run_json(capsys, "obstruct", "builtin", "thue-morse-signs")
    assert data["periodicity"] == {"kind": "aperiodic-up-to", "bound": 10}
    assert data["verdict"] == "infinite-grade-evidence"


def test_obstruct_table_lists_the_scans(capsys):
    rc, out, err = run(capsys, "obstruct", "builtin", "euler",
                       "--terms", "30")
    assert rc == 0
    for label in ("verdict", "prime support", "radius fit", "periodicity"):
        assert label in out


def test_obstruct_clamps_out_of_range_windows(capsys):
    # budgets below 1 are refused (a clamp to 1 would flip the verdict of
    # the 1/prod(1 + k^2) scan); budgets above what the truncation supports
    # are clamped down to it, half the terms for the window
    q = ('{"order": 1, "coeffs": [["-1"], ["1", "0", "1"]], "n0": 0, '
         '"initial": ["1"]}')
    for flag in ("--window", "--max-period"):
        for value in ("0", "-3"):
            rc, out, err = run(capsys, "obstruct", "holonomic", q,
                               "--terms", "40", flag, value, "--json")
            assert (rc, out) == (2, "")
            assert f"{flag} must be at least 1" in err
    wide, clamped = (run_json(capsys, "obstruct", "holonomic", q, "--terms",
                              "40", "--window", w) for w in ("1000", "20"))
    assert wide == clamped
    assert wide["verdict"] == "infinite-grade-evidence"


def test_obstruct_names_its_minimum_truncation(capsys):
    # below the radius fit's 16 coefficients the report refuses before any
    # scan runs, with one message whatever the truncation
    for terms in ("1", "15"):
        rc, out, err = run(capsys, "obstruct", "builtin", "exp",
                           "--terms", terms)
        assert (rc, out) == (3, "")
        assert err == ("error: obstruction report needs 16 coefficients, "
                       f"got {terms}\n")
    assert run(capsys, "obstruct", "builtin", "exp", "--terms", "16")[0] == 0


def test_obstruct_lists_the_denominators_it_could_not_split(capsys):
    # (2^127 - 1)(2^89 - 1) is past the certified range, and Pollard–Brent
    # cannot split it within its step budget
    coeffs = ["1/3"] + ["1"] * 19
    coeffs[10] = f"1/{(2**127 - 1) * (2**89 - 1)}"
    argv = ("obstruct", "coeffs", json.dumps(coeffs), "--terms", "20")
    data = run_json(capsys, *argv)
    assert data["prime_support"] == [[3, 0]]
    assert data["prime_incomplete"] == [10]
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    assert "incomplete   10" in out.splitlines()
    # a scan that split every denominator prints no such line
    rc, out, err = run(capsys, "obstruct", "builtin", "exp", "--terms", "30")
    assert rc == 0, err
    assert "incomplete" not in out


# ---------------------------------------------------------------------------
# modp


def test_modp_catalan_closes(capsys):
    data = run_json(capsys, "modp", "builtin", "catalan", "--p", "2",
                    "--depth", "5")
    assert data["status"] == "closed"
    assert data["state_count"] == 3
    assert data["consistent"] is True
    assert data["q"] == 2


def test_pipeline_report_json_shape(capsys):
    data = run_json(capsys, "modp", "builtin", "geometric", "--p", "5")
    assert list(data) == ["p", "r", "q", "status", "state_count",
                          "consistent", "automaton"]
    assert data == {
        "p": 5,
        "r": 1,
        "q": 5,
        "status": "closed",
        "state_count": 1,
        "consistent": True,
        "automaton": {
            "q": 5,
            "modulus": 5,
            "fingerprint_length": 64,
            "truncation": 320,
            "status": "closed",
            "states": [{"id": 0, "k": 0, "j": 0,
                        "fingerprint_hash": "9911727a68de4d2c",
                        "transitions": [0, 0, 0, 0, 0]}],
        },
    }
    assert list(data["automaton"]) == ["q", "modulus", "fingerprint_length",
                                       "truncation", "status", "states"]


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


def test_modp_dot_excludes_the_other_output_flags(capsys):
    with pytest.raises(SystemExit) as info:
        main(["modp", "builtin", "catalan", "--p", "2", "--dot", "--json"])
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_modp_help_lists_the_output_flags_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(["modp", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "[--json | --table | --dot]" in out
    flags = [line.split()[0] for line in out.splitlines()
             if line.startswith(("  --json", "  --table", "  --dot"))]
    assert flags == ["--json", "--table", "--dot"]


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


@pytest.mark.parametrize("argv", [
    ("expand",), ("modp", "--p", "3", "--depth", "2"), ("diagonal",),
], ids=["expand", "modp", "diagonal"])
@pytest.mark.parametrize("payload, message", [
    ('{"P": [[0, 2, "1"], [0, 1, "-1"], [1, 0, "1"]], "y0": "2"}', "!= 0"),
    ('{"P": [[0, 2, "1"], [1, 0, "-1"]], "y0": "0"}', "multiple root"),
], ids=["not-a-root", "ramified"])
def test_branch_that_is_not_a_simple_root_exits_3(capsys, argv, payload,
                                                  message):
    rc, out, err = run(capsys, argv[0], "algebraic", payload, *argv[1:])
    assert (rc, out) == (3, "")
    assert message in err


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


#: P = y^2 - y/2 - z/3 + 2zy/5 + z^2y^2/7 through y0 = 1/2, then 6P and P/4
RATIONAL_MULTIPLES = [
    [[0, 2, c2], [0, 1, c1], [1, 0, c0], [1, 1, d1], [2, 2, d2]]
    for c2, c1, c0, d1, d2 in [("1", "-1/2", "-1/3", "2/5", "1/7"),
                               ("6", "-3", "-2", "12/5", "6/7"),
                               ("1/4", "-1/8", "-1/12", "1/10", "1/28")]
]


def test_multiples_of_a_rational_payload_are_one_branch(capsys):
    payloads = [json.dumps({"P": rows, "y0": "1/2"})
                for rows in RATIONAL_MULTIPLES]
    anns = [read_series("algebraic", text) for text in payloads]
    assert anns[0] == anns[1] == anns[2]
    assert len({hash(a) for a in anns}) == 1
    recs = [json.dumps(branch_recurrence(a).to_json_dict()) for a in anns]
    assert recs[0] == recs[1] == recs[2]
    # the primitive integer 210·P
    assert annihilator_to_json(anns[2])["P"] == [
        [2, 2, "30"], [1, 1, "84"], [0, 2, "210"], [1, 0, "-70"],
        [0, 1, "-105"]]
    # the terms the Fraction-coefficient Poly gave, pinned
    want = ["1/2", "4/15", "-269/630", "3406/4725", "-1596067/992250",
            "30458578/7441875", "-5797379407/520931250",
            "123671197978/3906984375"]
    for text in payloads:
        got = run_json(capsys, "expand", "algebraic", text, "--terms", "8")
        assert got["coeffs"] == want
        got = run_json(capsys, "diagonal", "algebraic", text, "--order", "6")
        assert got["diagonal"] == want[:6]
        assert got["witness"]["constant_shift"] == "1/2"
        for row in got["witness"]["R"]["num"] + got["witness"]["R"]["den"]:
            assert "/" not in row[-1]


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


def test_expand_refuses_an_annihilator_past_the_dense_size_cap(capsys):
    # P = z^(2·10^6)·y^2 - y + 1: 52 bytes of payload, 6·10^6 dense entries
    payload = '{"P":[[2000000,2,"1"],[0,1,"-1"],[0,0,"1"]],"y0":"1"}'
    rc, out, err = run(capsys, "expand", "algebraic", payload, "--terms", "4")
    assert rc == 4
    assert "dense size" in err


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


def test_euler_at_a_tiny_z_exhausts_the_series_budget(capsys):
    # (1/z)^terms overflows, so the tail bound reads inf
    rc, out, err = run(capsys, "euler", "--z", "1e-300")
    assert rc == 4
    assert "tail bound inf" in err


def test_euler_exp_sinh_stops_at_an_unmeetable_tolerance(capsys):
    data = run_json(capsys, "euler", "--z", "10", "--tolerance", "1e-300")
    assert data["method"] == "adaptive"
    assert math.isfinite(data["error_estimate"])
    y = 0.1
    assert abs(data["value"] - y * math.exp(y) * scipy.special.exp1(y)) < 1e-15


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
    # 2 again: a rational-exppoly term that is not [pole, mult, [coeffs]]
    (2, ("expand", "rational-exppoly", '{"terms": [["1", 1]]}')),
], ids=["no-y", "zero-pole", "initial-off-recurrence", "obstruct-10-terms",
        "obstruct-1-term", "truncated-coeffs", "underdetermined",
        "infinite-z", "branch-formula-terms", "boolean-order",
        "exppoly-row-shape"])
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
cli._COMMANDS["expand"] = cli._COMMANDS["expand"]._replace(handler=broken)
sys.exit(cli.main(["expand", "builtin", "exp"]))
"""


def run_python(*args: str, timeout: float | None = None
               ) -> subprocess.CompletedProcess:
    """``python *args`` with this checkout's package first on the path."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


def test_defects_exit_1_never_3(capsys, monkeypatch):
    def failed_self_check(args, cfg):
        raise VerificationFailed("result disagrees with its recomputation")

    monkeypatch.setitem(cli._COMMANDS, "expand", cli._COMMANDS["expand"]
                        ._replace(handler=failed_self_check))
    rc, out, err = run(capsys, "expand", "builtin", "exp")
    assert rc == 1
    assert "disagrees" in err
    # any other exception is not translated: it propagates, and the
    # interpreter exits 1 with its traceback
    proc = run_python("-c", _DEFECT)
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


def test_readme_python_examples_run():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = [part.split("```", 1)[0]
              for part in text.split("```python\n")[1:]]
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})



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


def test_expand_orders_poles_past_the_float_range_exactly(capsys):
    payload = json.dumps(
        {"terms": [["1" + "0" * 400, 1, ["1"]], ["2", 1, ["1"]]]})
    data = run_json(capsys, "expand", "rational-exppoly", payload,
                    "--terms", "2")
    assert data["coeffs"] == [str(Fraction(1, 2) + Fraction(1, 10**400)),
                              str(Fraction(1, 4) + Fraction(1, 10**800))]


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


def test_modp_past_the_term_cap_exits_4_at_once():
    # depth 1 at the default base q = p needs 64·(10^9 + 7) terms
    start = time.perf_counter()
    proc = run_python("-m", "gradeforge.cli", "modp", "builtin", "catalan",
                      "--p", "1000000007", "--r", "3", "--depth", "1",
                      "--json", timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert str(CHRISTOL_MAX_TERMS) in proc.stderr
    assert elapsed < 2


def test_modp_fingerprint_length_past_the_term_cap_exits_4(capsys):
    rc, out, err = run(capsys, "modp", "builtin", "catalan", "--p", "2",
                       "--fingerprint-length", "100000000")
    assert rc == 4
    assert str(CHRISTOL_MAX_TERMS) in err
    assert "200000000" in err


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
for argv, want in {runs}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = main(argv)
    loaded = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
    if rc != want or loaded:
        sys.exit(f"{{argv}}: rc={{rc}}, loaded {{loaded}}")
"""


def assert_runs_load_neither(*runs):
    # each (argv, exit code) runs in one fresh interpreter, in order
    proc = run_python("-c", _IMPORT_GUARD.format(runs=repr(runs)))
    assert proc.returncode == 0, proc.stderr


def test_commands_other_than_euler_do_not_load_numpy_or_scipy():
    assert_runs_load_neither((["modp", "builtin", "catalan", "--p", "2"], 0))


def test_euler_refuses_nodes_past_the_bound_before_loading_numpy():
    assert_runs_load_neither((["euler", "--z", "1", "--nodes", "100000"], 2),
                             (["euler", "--z", "inf"], 3))


def test_no_command_loads_numpy_or_scipy():
    # both are test oracles only: euler runs its quadrature on the
    # standard library, by Gauss-Laguerre at z = 1 and exp-sinh at z = 10
    assert_runs_load_neither((["modp", "builtin", "catalan", "--p", "2"], 0),
                             (["euler", "--z", "1"], 0),
                             (["euler", "--z", "10"], 0))
