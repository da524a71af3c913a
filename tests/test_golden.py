"""Byte-exact pins on rendered artifacts.

The other suites check shapes and substrings; these fix the exact text of
the diagonal and recurrence tables, the DOT view, polynomial reprs and the
JSON term rows, so a change to any renderer shows up as a diff here.  One
derived branch recurrence is pinned whole, by the digest of its JSON, so a
change to the derivation shows up too.
"""

import hashlib
import json

import pytest

from gradeforge.algebraic import branch_recurrence
from gradeforge.automata import KernelBudgets, automaton_dot, christol_report
from gradeforge.catalog import get_builtin
from gradeforge.cli import main
from gradeforge.descriptors import (
    annihilator_from_json,
    annihilator_to_json,
    read_series,
)
from gradeforge.diagonals import diagonal_witness
from gradeforge.polynomials import Poly, RatFun, poly_from_rows, rows_text

SQRT1P = '{"P":[[0,2,"1"],[0,0,"-1"],[1,0,"-1"]],"y0":"1"}'


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return captured.out


# ---------------------------------------------------------------------------
# diagonal table


def test_diagonal_table_catalan(capsys):
    out = run(capsys, "diagonal", "builtin", "catalan", "--order", "5")
    assert out == (
        "factors         1\n"
        "verified order  5\n"
        "constant shift  1\n"
        "numerator       2*x*y^3 + 2*x*y^2 - y\n"
        "denominator     x*y^2 + 2*x*y + x - 1\n"
        "diagonal        1 1 2 5 14\n"
    )


def test_diagonal_table_central_binomial_square(capsys):
    out = run(capsys, "diagonal", "builtin", "central-binomial",
              "--square", "--order", "4")
    assert out == (
        "factors         2\n"
        "verified order  4\n"
        "constant shift  1\n"
        "numerator       64*x1*y1^3*x2*y2^3 + 64*x1*y1^3*x2*y2^2"
        " + 64*x1*y1^2*x2*y2^3 - 16*x1*y1^3*y2^2 + 64*x1*y1^2*x2*y2^2"
        " - 16*y1^2*x2*y2^3 - 16*x1*y1^3*y2 - 16*x1*y1^2*y2^2"
        " - 16*y1^2*x2*y2^2 - 16*y1*x2*y2^3 - 16*x1*y1^2*y2 + 4*y1^2*y2^2"
        " - 16*y1*x2*y2^2 + 4*y1^2*y2 + 4*y1*y2^2 + 4*y1*y2\n"
        "denominator     16*x1*y1^2*x2*y2^2 + 32*x1*y1^2*x2*y2"
        " + 32*x1*y1*x2*y2^2 + 16*x1*y1^2*x2 - 4*x1*y1^2*y2"
        " + 64*x1*y1*x2*y2 + 16*x1*x2*y2^2 - 4*y1*x2*y2^2 - 8*x1*y1^2"
        " + 32*x1*y1*x2 - 8*x1*y1*y2 + 32*x1*x2*y2 - 8*y1*x2*y2"
        " - 8*x2*y2^2 - 16*x1*y1 + 16*x1*x2 - 4*x1*y2 - 4*y1*x2 + y1*y2"
        " - 16*x2*y2 - 8*x1 + 2*y1 - 8*x2 + 2*y2 + 4\n"
        "diagonal        1 4 36 400\n"
    )


@pytest.mark.parametrize("argv, digest", [
    (("catalan", "--square", "--order", "7"),
     "15d2067f11751710c7b0b1e4528c50a80e10c484c0de761ff4de4c926892b74f"),
    (("central-binomial", "--square", "--order", "6"),
     "75093efdcce4aa2a5d05a6fb19458dbe22d3aa94f3960097d71e05e1395ccf2c"),
])
def test_diagonal_square_json_digest(capsys, argv, digest):
    # the benchmark's two square jobs, byte for byte as the extraction
    # check of the 4-variable lift printed them
    out = run(capsys, "diagonal", "builtin", *argv, "--json")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# P = 2y - 1 - z at y0 = 1/2 moves to v·P(z, y + 1/2) = 4y - 2z, whose
# content 2 the Furstenberg construction divides out: R = 2y / (2 - x),
# not 4y / (4 - 2x)
HALF = '{"P": [[0,1,"2"],[0,0,"-1"],[1,0,"-1"]], "y0": "1/2"}'


@pytest.mark.parametrize("square, digest", [
    ((), "3017ade4722fc5fefce4e30734e05e72dcd32cc7d2d16d18df56f5fbe0066bb3"),
    (("--square",),
     "bdf7c366aabc23dbdb70e16e3cfd1a13e15d6a8d573a41dee33b52fd2fe94759"),
], ids=["single", "square"])
def test_diagonal_json_digest_of_a_moved_branch_with_content(capsys, square,
                                                             digest):
    out = run(capsys, "diagonal", "algebraic", HALF, "--order", "6",
              *square, "--json")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# obstruct JSON

APERY_B = ('{"order":2,"coeffs":[[1,3,3,1],[-117,-231,-153,-34],[8,12,6,1]],'
           '"n0":0,"initial":["0","6"]}')
INV_PROD = '{"order":1,"coeffs":[["-1"],["1","0","1"]],"n0":0,"initial":["1"]}'


@pytest.mark.parametrize("argv, digest", [
    # the benchmark's two obstruct jobs
    (("holonomic", APERY_B, "--terms", "800"),
     "4c2c7ca0287525ec4f5cb7758b3fd7cd3ac20dc27b55b5d5af17bf4e40c4b895"),
    (("holonomic", INV_PROD, "--terms", "250"),
     "cccdca11341eef6f1f3ce62214160bd3fbd541ac1ecdaeaada5e7172d3c155a9"),
    # periodicity "aperiodic-up-to" with its bound
    (("builtin", "thue-morse-signs", "--terms", "64"),
     "7e346c97b8752ad9d5e41e0d244694e8c4e5bc714c7d6833220a40b7a5dcf184"),
    # "eventually-periodic" keeps its zero preperiod
    (("coeffs", json.dumps([(-1) ** n for n in range(60)])),
     "c9ba666f4d07292cea3715d129a78eeb6188416df4bc5cc407c20b682692e781"),
    # "not-a-sign-sequence" alone
    (("builtin", "catalan"),
     "2d885a1aaf9e22a264b6af28142dc899456d220553c507bd9244a108f04f234a"),
])
def test_obstruct_json_digest(capsys, argv, digest):
    out = run(capsys, "obstruct", *argv, "--json")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# hadamard closure JSON

APERY_A = ('{"order":2,"coeffs":[[1,3,3,1],[-117,-231,-153,-34],[8,12,6,1]],'
           '"n0":0,"initial":["1","5"]}')


@pytest.mark.parametrize("a, b, digest", [
    # the benchmark's five closure jobs
    (("holonomic", APERY_A), ("holonomic", APERY_A),
     "8e6cfdc9a0623719f11a4059ff02b1da02e53393980f1a9f59dffee908ee2037"),
    (("holonomic", APERY_B), ("holonomic", APERY_B),
     "31660b117b95d528820bf24e8853f7a364e7147101d928e8daa0065f7230dd6b"),
    (("holonomic", APERY_A), ("builtin", "catalan"),
     "edcff2c3abdd3007f66f59ed107c09f9093f803680e3ebaa658485c91643498f"),
    (("holonomic", APERY_B), ("holonomic", INV_PROD),
     "98d988092bf93b08e1628c4d69cf951375736ff3b2340c13684a6c70400f972b"),
    (("builtin", "euler"), ("builtin", "exp"),
     "b868c38451ead1fdb9cc5b7957525e401fca1ac528eb60eee01882bb557763b9"),
], ids=["AxA", "BxB", "Axcatalan", "BxQ", "eulerxexp"])
def test_hadamard_recurrence_json_digest(capsys, a, b, digest):
    out = run(capsys, "hadamard", *a, *b, "--emit-recurrence",
              "--terms", "300", "--json")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# recurrence table


def test_hadamard_recurrence_table(capsys):
    out = run(capsys, "hadamard", "builtin", "catalan",
              "builtin", "central-binomial", "--terms", "4",
              "--emit-recurrence")
    assert out == (
        "0\t1\n1\t2\n2\t12\n3\t100\n"
        "\n"
        "recurrence of order 1, base index 0\n"
        "  p_0(n) = -4 - 16*n - 16*n^2\n"
        "  p_1(n) = 2 + 3*n + n^2\n"
        "  initial: 1\n"
    )


# ---------------------------------------------------------------------------
# DOT


_DOT_CASES = {
    "exhausted": (
        ("builtin", "catalan", 2, 1, 2),
        'digraph kernel {\n'
        '  rankdir=LR;\n'
        '  label="base 2, mod 2, exhausted-budget";\n'
        '  s0 [label="s0\\n(k=0, j=0)"];\n'
        '  s1 [label="s1\\n(k=1, j=0)"];\n'
        '  s0 -> s1 [label="0"];\n'
        '  s0 -> s0 [label="1"];\n'
        '  u1_0 [label="?", shape=plaintext];\n'
        '  s1 -> u1_0 [label="0", style=dashed];\n'
        '  u1_1 [label="?", shape=plaintext];\n'
        '  s1 -> u1_1 [label="1", style=dashed];\n'
        '}\n',
    ),
    "truncation-limited": (
        ("algebraic", SQRT1P, 3, 2, 8),
        'digraph kernel {\n'
        '  rankdir=LR;\n'
        '  label="base 3, mod 3, truncation-limited";\n'
        '  s0 [label="s0\\n(k=0, j=0)"];\n'
        '  s1 [label="s1\\n(k=1, j=0)"];\n'
        '  s2 [label="s2\\n(k=1, j=1)"];\n'
        '  s3 [label="s3\\n(k=2, j=6)"];\n'
        '  s0 -> s1 [label="0"];\n'
        '  s0 -> s2 [label="1"];\n'
        '  s0 -> s1 [label="2"];\n'
        '  s1 -> s1 [label="0"];\n'
        '  s1 -> s1 [label="1"];\n'
        '  s1 -> s3 [label="2"];\n'
        '  s2 -> s2 [label="0"];\n'
        '  s2 -> s2 [label="1"];\n'
        '  s2 -> s3 [label="2"];\n'
        '  s3 -> s3 [label="0"];\n'
        '  s3 -> s3 [label="1"];\n'
        '  s3 -> s3 [label="2"];\n'
        '}\n',
    ),
}


@pytest.mark.parametrize("case", sorted(_DOT_CASES))
def test_modp_dot_matches_to_dot(capsys, case):
    (kind, payload, p, depth, length), want = _DOT_CASES[case]
    out = run(capsys, "modp", kind, payload, "--p", str(p),
              "--depth", str(depth), "--fingerprint-length", str(length),
              "--dot")
    assert out == want
    ann = read_series(kind, payload)
    aut = christol_report(ann, p, budgets=KernelBudgets(4096, depth, length))
    assert automaton_dot(aut.to_json_dict()) + "\n" == want


# ---------------------------------------------------------------------------
# polynomial text and term rows


def test_poly_repr_two_variables():
    # the rows of -3/4·z^2·y + 2·z·y + y^2 - z + 5, in grlex order
    rows = [[2, 1, "-3/4"], [1, 1, "2"], [0, 2, "1"], [1, 0, "-1"],
            [0, 0, "5"]]
    assert rows_text(rows, ["z", "y"]) == "-3/4*z^2*y + 2*z*y + y^2 - z + 5"
    p, d = poly_from_rows(rows, 2, "p")
    assert d == 4
    assert repr(p) == "-3*z^2*y + 8*z*y + 4*y^2 - 4*z + 20"


def test_poly_repr_four_variables():
    rows = [[3, 0, 0, 0, "2"], [0, 2, 0, 1, "1/2"], [1, 0, 1, 0, "1"],
            [0, 0, 0, 1, "-1"], [0, 0, 0, 0, "-7"]]
    names = ["x0", "x1", "x2", "x3"]
    assert rows_text(rows, names) == "2*x0^3 + 1/2*x1^2*x3 + x0*x2 - x3 - 7"
    p, d = poly_from_rows(rows, 4, "p")
    assert d == 2
    assert repr(p) == "4*x0^3 + x1^2*x3 + 2*x0*x2 - 2*x3 - 14"


def test_poly_repr_univariate_and_zero():
    assert repr(Poly(1, {(2,): 1, (0,): -1})) == "n^2 - 1"
    assert repr(Poly.zero(3)) == "0"
    rat = RatFun(Poly(1, {(1,): 1}), Poly(1, {(0,): -2}))
    assert repr(rat) == "(-n) / (2)"


def test_witness_json_rows():
    w = diagonal_witness(get_builtin("catalan"), 4)
    assert json.dumps(w.to_json_dict()) == (
        '{"d": 1, "R": {"num": [[1, 3, "2"], [1, 2, "2"], [0, 1, "-1"]], '
        '"den": [[1, 2, "1"], [1, 1, "2"], [1, 0, "1"], [0, 0, "-1"]]}, '
        '"verified_order": 4, "constant_shift": "1"}'
    )


def test_annihilator_json_rows():
    got = [annihilator_to_json(get_builtin(name))
           for name in ("catalan", "central-binomial")]
    assert [json.dumps(d) for d in got] == [
        '{"kind": "algebraic", "P": [[1, 2, "1"], [0, 1, "-1"], [0, 0, "1"]], '
        '"y0": "1"}',
        '{"kind": "algebraic", "P": [[1, 2, "-4"], [0, 2, "1"], [0, 0, "-1"]],'
        ' "y0": "1"}',
    ]


# ---------------------------------------------------------------------------
# a derived branch recurrence

#: A branch through the origin with (deg_y, deg_z) = (4, 3)
P43 = ('{"P":[[0,1,"-1"],[0,2,"3"],[0,3,"3"],[0,4,"3"],[1,0,"-3"],'
       '[1,1,"-1"],[1,2,"-3"],[1,4,"3"],[2,2,"2"],[2,4,"3"],[3,0,"-2"],'
       '[3,1,"-3"],[3,3,"-3"],[3,4,"3"]],"y0":"0"}')


def test_branch_recurrence_of_a_degree_four_branch():
    # the whole 6,880-byte JSON, pinned by its digest: order 51, degree 3
    rec = branch_recurrence(annihilator_from_json(json.loads(P43)))
    assert (rec.order, len(rec.coeffs[-1]) - 1, rec.n0) == (51, 3, 0)
    text = json.dumps(rec.to_json_dict(), sort_keys=True,
                      separators=(",", ":"))
    assert len(text) == 6880
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4ebd0d7d65348037907e9b35262a89f086a46b919a5d4a8696371cf0a3176ae3")
