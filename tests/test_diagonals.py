"""Rational-diagonal witnesses for branches and their Hadamard products."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import gradeforge.algebraic as algebraic
import gradeforge.diagonals as diagonals
from gradeforge import (
    DiagonalWitness,
    diagonal_extract,
    diagonal_witness,
    expand_branch,
    furstenberg_bivariate,
    hadamard_mul,
    product_lift,
    product_witness,
)
from gradeforge.algebraic import Annihilator
from gradeforge.catalog import CORPUS_ANNIHILATORS
from gradeforge.errors import (
    BranchNotAtZero,
    BudgetExceeded,
    DenominatorVanishesAtOrigin,
    NotARoot,
    RamifiedBranch,
    SchemaError,
    VerificationFailed,
)
from gradeforge.polynomials import Poly, RatFun, ratfun_from_rows
from gradeforge.rationals import format_rational
from gradeforge.series import TruncSeries

from conftest import rationals
from oracles import (
    FracPoly,
    branch_prefix,
    catalan_witness_diagonal,
    diagonal_from_box,
    geometric_series_diagonal,
    rational_series_box,
)

X = Poly.variable(2, 0)
Y = Poly.variable(2, 1)
ONE = Poly.const(2, 1)


# ---------------------------------------------------------------------------
# the bivariate construction


def test_bivariate_witness_for_shifted_catalans():
    # P = y^2 - y + z gives R = y(2y - 1) / (x + y - 1)
    R = furstenberg_bivariate(CORPUS_ANNIHILATORS["catalan-shifted"])
    assert R.num == Poly(2, {(0, 2): 2, (0, 1): -1})
    assert R.den == Poly(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1})


def test_bivariate_witness_diagonal_matches_binomial_oracle():
    R = furstenberg_bivariate(CORPUS_ANNIHILATORS["catalan-shifted"])
    got = diagonal_extract(R, 10)
    assert list(got.coeffs) == catalan_witness_diagonal(10)


def test_bivariate_witness_requires_branch_at_origin():
    with pytest.raises(BranchNotAtZero):
        furstenberg_bivariate(CORPUS_ANNIHILATORS["catalan"])  # y0 = 1


def test_bivariate_witness_requires_root_at_origin():
    p = ONE - Y + Poly.variable(2, 0)  # P(0, 0) = 1
    with pytest.raises(NotARoot):
        furstenberg_bivariate(Annihilator(p, Fraction(0)))


def test_bivariate_witness_rejects_ramified_branch():
    # the constructor refuses the branch before any witness is built
    with pytest.raises(RamifiedBranch):
        furstenberg_bivariate(Annihilator(Y * Y - X, Fraction(0)))


# ---------------------------------------------------------------------------
# diagonal extraction


def test_diagonal_of_two_variable_geometric_is_central_binomial():
    got = diagonal_extract(RatFun(ONE, ONE - X - Y), 8)
    assert [int(c) for c in got.coeffs] == [1, 2, 6, 20, 70, 252, 924, 3432]


def test_diagonal_of_constant_is_delta():
    got = diagonal_extract(RatFun(ONE, ONE), 5)
    assert [int(c) for c in got.coeffs] == [1, 0, 0, 0, 0]


def test_diagonal_requires_unit_denominator():
    with pytest.raises(DenominatorVanishesAtOrigin):
        diagonal_extract(RatFun(ONE, X + Y), 4)


def test_diagonal_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        diagonal_extract(RatFun(ONE, ONE - X - Y), 0)


def test_diagonal_enforces_desk_caps():
    # 578^2 box cells times 3 denominator terms, just past 10^6
    with pytest.raises(BudgetExceeded):
        diagonal_extract(RatFun(ONE, ONE - X - Y), 578)
    wide = RatFun(Poly.const(7, 1), Poly.const(7, 1))
    with pytest.raises(BudgetExceeded):
        diagonal_extract(wide, 8)


def test_diagonal_work_cap_is_box_volume_times_den_terms(monkeypatch):
    monkeypatch.setattr(diagonals, "DESK_MAX_WORK", 12)
    rat = RatFun(ONE, ONE - X - Y)
    assert diagonal_extract(rat, 2).coeffs == (1, 2)  # 2^2 * 3 = 12
    with pytest.raises(BudgetExceeded):
        diagonal_extract(rat, 3)                      # 3^2 * 3 = 27


def test_diagonal_runs_past_the_former_order_and_variable_caps():
    # order 13 in two variables and seven variables were refused by the
    # former fixed caps of order 12 and 6 variables
    central = diagonal_extract(RatFun(ONE, ONE - X - Y), 13)
    assert central.coeffs == tuple(math.comb(2 * n, n) for n in range(13))
    wide = RatFun(Poly.const(7, 1), Poly.const(7, 1) - Poly.variable(7, 6))
    assert diagonal_extract(wide, 3).coeffs == (1, 0, 0)


def test_diagonal_matches_linear_solve_oracle():
    # num/den with several mixed terms; the oracle solves den*S = num
    # degree by degree instead of inverting a geometric series
    num = {(0, 0): 1, (1, 1): -2}
    den = {(0, 0): 2, (1, 0): -1, (0, 1): -1, (1, 1): 1}
    box = rational_series_box(num, den, (8, 8))
    want = diagonal_from_box(box, 2, 8)
    assert list(diagonal_extract(read_ratfun(num, den, 2), 8).coeffs) == want


def read_ratfun(num, den, m):
    """num/den, given as {exponents: rational}, read as a witness payload
    is read: `ratfun_from_rows` scales both to integers by one factor."""
    return ratfun_from_rows(*([[*e, format_rational(c)] for e, c in p.items()]
                              for p in (num, den)), m)


@st.composite
def small_ratfuns(draw):
    """num/den in 2-4 variables with exponents 0-3, non-integer
    coefficients and a constant term of den outside {0, 1, -1}; orders
    1-6 fall both below and above the largest step exponent.  R is built
    by `read_ratfun`; the oracles take the rational num and den."""
    m = draw(st.integers(2, 4))
    expos = st.tuples(*[st.integers(0, 3)] * m)
    fractional = rationals(max_num=9, max_den=6).filter(
        lambda c: c.denominator != 1)
    num = draw(st.dictionaries(expos, fractional, max_size=4))
    den = draw(st.dictionaries(expos, fractional, max_size=4))
    den[(0,) * m] = draw(rationals(max_num=9, max_den=6).filter(
        lambda c: c not in (0, 1, -1)))
    return m, num, den, draw(st.integers(1, 6))


F = Fraction


@given(small_ratfuns())
@settings(max_examples=60)
# the step y^4 reaches past the box at order 3 and is dropped
@example((2, {(0, 0): F(1, 2), (2, 2): F(3, 4)},
          {(0, 0): F(2), (0, 4): F(-1, 3), (1, 1): F(5, 2)}, 3))
# no denominator step touches x_3, so its largest step exponent is 0
@example((3, {(0, 0, 1): F(1, 3), (1, 1, 2): F(-2, 5), (0, 0, 0): F(7, 2)},
          {(0, 0, 0): F(-3, 2), (1, 0, 0): F(1, 2), (1, 2, 0): F(2, 3)}, 5))
# one variable
@example((1, {(0,): F(1, 2), (3,): F(-5, 3)},
          {(0,): F(3), (1,): F(-1, 2), (2,): F(1, 5), (7,): F(2)}, 6))
def test_diagonal_matches_both_oracles_on_random_ratfuns(case):
    m, num, den, order = case
    got = list(diagonal_extract(read_ratfun(num, den, m), order).coeffs)
    box = rational_series_box(num, den, (order - 1,) * m)
    assert got == diagonal_from_box(box, m, order)
    assert got == geometric_series_diagonal(num, den, m, order)


# ---------------------------------------------------------------------------
# single-branch witnesses


@pytest.mark.parametrize("name", sorted(CORPUS_ANNIHILATORS))
def test_witness_round_trips_corpus_branch(name):
    ann = CORPUS_ANNIHILATORS[name]
    w = diagonal_witness(ann, 10)
    assert w.d == 1
    assert w.constant_shift == ann.y0
    assert w.diagonal(10).coeffs == expand_branch(ann, 10).coeffs


@pytest.mark.parametrize("poly", [
    (Y * Y * Y + Y - X, 0),  # cubic branch through the origin
    (Y * Y + Poly.const(2, 2) * Y - X, 0),
    (Poly.const(2, 2) * Y - ONE - X, Fraction(1, 2)),  # non-integer point
    (Y * Y - Poly.const(2, 4) + X, -2),                # negative point
])
def test_witness_round_trips_other_branches(poly):
    ann = Annihilator(*poly)
    w = diagonal_witness(ann, 10)
    assert w.constant_shift == ann.y0
    assert w.diagonal(10).coeffs == expand_branch(ann, 10).coeffs


def _translate_by_poly_arithmetic(p, c):
    """v^D·P(z, y + c), c = u/v and D = deg_y P, by Fraction-coefficient
    powers and products: the earlier form of `diagonals._translate_branch`,
    scaled to integers, kept as its oracle."""
    x, y = (FracPoly(2, {e: 1}) for e in ((1, 0), (0, 1)))
    shifted_y = y + FracPoly(2, {(0, 0): c})
    out = FracPoly(2, {})
    for (a, b), coeff in p.terms.items():
        out = out + x**a * shifted_y**b * coeff
    return out * Fraction(c).denominator ** p.degree_in(1)


@pytest.mark.parametrize("name", sorted(CORPUS_ANNIHILATORS))
def test_translation_matches_poly_arithmetic(name):
    p = CORPUS_ANNIHILATORS[name].poly
    for c in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2),
              Fraction(-3, 7)):
        moved = diagonals._translate_branch(algebraic._z_rows(p), c)
        assert moved.terms == _translate_by_poly_arithmetic(p, c).terms, c
        assert all(type(k) is int for k in moved.terms.values())
        scale = c.denominator ** (2 * p.degree_in(1))
        back = diagonals._translate_branch(algebraic._z_rows(moved), -c)
        assert back == p * scale, c


def test_witnesses_need_no_derived_recurrence(monkeypatch):
    def refuse(ann):
        raise AssertionError("a witness check derived a recurrence")

    monkeypatch.setattr(algebraic, "branch_recurrence", refuse)
    ws = [diagonal_witness(CORPUS_ANNIHILATORS[name], 10)
          for name in ("catalan", "central-binomial")]
    assert product_witness(ws, 10).d == 2


def test_witness_records_branch_constant():
    w = diagonal_witness(CORPUS_ANNIHILATORS["geometric"], 8)
    assert w.constant_shift == 1
    # the underlying rational diagonal starts at 0; the shift restores it
    assert diagonal_extract(w.R, 3).coeffs[0] == 0
    assert w.diagonal(3).coeffs[0] == 1


# ---------------------------------------------------------------------------
# products over disjoint variable blocks


def test_product_witness_multiplies_diagonals():
    w1 = diagonal_witness(CORPUS_ANNIHILATORS["catalan"], 8)
    w2 = diagonal_witness(CORPUS_ANNIHILATORS["central-binomial"], 8)
    pw = product_witness([w1, w2], 8)
    assert pw.d == 2
    assert pw.R.nvars == 4
    want = hadamard_mul(w1.diagonal(8), w2.diagonal(8))
    assert pw.diagonal(8).coeffs == want.coeffs
    assert [int(c) for c in pw.diagonal(6).coeffs] == [
        1, 2, 12, 100, 980, 10584,
    ]


def test_product_witness_composes_constant_shifts():
    w = diagonal_witness(CORPUS_ANNIHILATORS["geometric"], 6)
    pw = product_witness([w, w], 6)
    # each factor's bare diagonal starts at 0, so the composed shift is
    # (0 + 1)(0 + 1) - 0*0 = 1
    assert pw.constant_shift == 1
    assert all(c == 1 for c in pw.diagonal(6).coeffs)


def test_product_witness_of_constants_past_the_float_range():
    # R = B / (1 - x - y) has diagonal B·C(2n, n) and R(0) = B = 3^700,
    # about 2^1109: R(0) as a float quotient of integers raised
    # OverflowError, and a float shift would not be exact
    big = 3 ** 700
    w = DiagonalWitness(RatFun(ONE * big, ONE - X - Y), 1, 6, Fraction(1))
    pw = product_witness([w, w], 6)
    assert pw.constant_shift == (big + 1) ** 2 - big ** 2
    assert pw.diagonal(6).coeffs == (
        (big + 1) ** 2,
        *((big * math.comb(2 * n, n)) ** 2 for n in range(1, 6)))


def test_product_lift_validates_positions():
    w = diagonal_witness(CORPUS_ANNIHILATORS["geometric"], 4)
    with pytest.raises(ValueError):
        product_lift([w])  # one factor is not a product


def test_random_disjoint_products_realize_hadamard_products():
    rng = random.Random(20260818)
    for _ in range(5):
        rats = []
        for _ in range(2):
            num = Poly(2, {
                (i, j): rng.randint(-3, 3)
                for i in range(2) for j in range(2)
            })
            den_terms = {
                (i, j): rng.randint(-2, 2)
                for i in range(2) for j in range(2) if (i, j) != (0, 0)
            }
            den_terms[(0, 0)] = rng.choice([1, 2, -1])
            rats.append(RatFun(num, Poly(2, den_terms)))
        lifted = product_lift(rats)
        assert lifted.nvars == 4
        got = diagonal_extract(lifted, 6)
        want = hadamard_mul(diagonal_extract(rats[0], 6),
                            diagonal_extract(rats[1], 6))
        assert got.coeffs == want.coeffs


# ---------------------------------------------------------------------------
# witness objects and serialization


def test_witness_validates_shape():
    R = RatFun(ONE, ONE - X - Y)
    with pytest.raises(ValueError):
        DiagonalWitness(R, 0, 4)
    with pytest.raises(ValueError):
        DiagonalWitness(R, 2, 4)  # d = 2 needs 4 variables
    with pytest.raises(ValueError):
        DiagonalWitness(R, 1, 0)
    with pytest.raises(DenominatorVanishesAtOrigin):
        DiagonalWitness(RatFun(ONE, X + Y), 1, 4)


def test_witness_json_round_trip():
    w = diagonal_witness(CORPUS_ANNIHILATORS["catalan"], 10)
    blob = json.dumps(w.to_json_dict())
    back = DiagonalWitness.from_json_dict(json.loads(blob))
    assert back.d == w.d
    assert back.constant_shift == w.constant_shift
    assert back.verified_order == w.verified_order
    assert back.diagonal(10).coeffs == w.diagonal(10).coeffs
    # rows of R/3 over R/5: read back as integers, scaled by one factor
    blob = w.to_json_dict()
    for key, k in (("num", 3), ("den", 5)):
        blob["R"][key] = [[*e, format_rational(Fraction(c) / k)]
                          for *e, c in blob["R"][key]]
    back = DiagonalWitness.from_json_dict(blob)
    assert back.R == RatFun(w.R.num * 5, w.R.den * 3)
    assert all(type(c) is int
               for c in [*back.R.num.terms.values(),
                         *back.R.den.terms.values()])


def test_witness_json_shape():
    w = diagonal_witness(CORPUS_ANNIHILATORS["catalan-shifted"], 6)
    d = w.to_json_dict()
    assert set(d) == {"d", "R", "verified_order", "constant_shift"}
    assert d["d"] == 1
    assert d["constant_shift"] == "0"
    for row in d["R"]["num"] + d["R"]["den"]:
        assert len(row) == 3  # two exponents and a coefficient string
        assert isinstance(row[0], int) and isinstance(row[1], int)
        assert isinstance(row[2], str)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("d"),
    lambda d: d.update(d=0),
    lambda d: d.update(R=[1, 2]),
    lambda d: d.update(R={"num": []}),
    lambda d: d["R"].update(den=[]),
    lambda d: d["R"]["num"].append([0, 0, 0, "1"]),
    lambda d: d["R"]["num"].append([0, 0, "x"]),
    lambda d: d.update(verified_order="six"),
    lambda d: d.update(constant_shift=1),
    lambda d: d.update(constant_shift="1/0"),
])
def test_witness_json_rejects_malformed_payloads(mutate):
    w = diagonal_witness(CORPUS_ANNIHILATORS["catalan-shifted"], 6)
    payload = w.to_json_dict()
    payload["R"] = {"num": list(payload["R"]["num"]),
                    "den": list(payload["R"]["den"])}
    mutate(payload)
    with pytest.raises(SchemaError):
        DiagonalWitness.from_json_dict(payload)


# ---------------------------------------------------------------------------
# the verification checks fire on corrupted input, also under python -O


def _off_by_one(series):
    return TruncSeries(series.coeffs[:-1] + (series.coeffs[-1] + 1,))


def test_diagonal_witness_check_rejects_a_wrong_expansion(monkeypatch):
    real = diagonals.diagonal_extract
    monkeypatch.setattr(diagonals, "diagonal_extract",
                        lambda rat, n: _off_by_one(real(rat, n)))
    with pytest.raises(VerificationFailed):
        diagonal_witness(CORPUS_ANNIHILATORS["catalan"], 4)


def test_diagonal_witness_check_rejects_another_branch(monkeypatch):
    # P = (y - 1)(y - 2) - z has simple branches through y0 = 1 and 2, and
    # P(z, D) = 0 holds for both; only D(0) = y0 tells them apart.
    rows = {(0, 2): 1, (0, 1): -3, (0, 0): 2, (1, 0): -1}
    other = branch_prefix(rows, 2, 6)
    # the witness re-adds its shift y0 = 1 at n = 0
    monkeypatch.setattr(diagonals, "diagonal_extract",
                        lambda rat, n: TruncSeries.from_list(
                            [other[0] - 1, *other[1:n]]))
    ann = Annihilator(Poly(2, rows), Fraction(1))
    with pytest.raises(VerificationFailed):
        diagonal_witness(ann, 6)


# Every pinned square or product at order <= 15, the 4-variable
# extraction cap: the factors' names (or "3^700" for a constant witness
# past the float range) and the order.
_PINNED_PRODUCTS = [
    (("catalan", "catalan"), 15),
    (("central-binomial", "central-binomial"), 12),
    (("geometric", "geometric"), 6),
    (("catalan", "central-binomial"), 8),
    (("3^700", "3^700"), 6),
]


def _factor(name, order):
    if name == "3^700":
        return DiagonalWitness(RatFun(ONE * 3 ** 700, ONE - X - Y), 1,
                               order, Fraction(1))
    return diagonal_witness(CORPUS_ANNIHILATORS[name], order)


def _lift_diagonal(factors, order):
    """Oracle: extract the lift's whole box, and re-add at n = 0 the
    shifts composed from each factor's R(0) and constant."""
    at0 = [Fraction(f.R.num.constant_term(), f.R.den.constant_term())
           for f in factors]
    shift = (math.prod(a + f.constant_shift for a, f in zip(at0, factors))
             - math.prod(at0))
    got = diagonal_extract(product_lift(factors), order).coeffs
    return (got[0] + shift, *got[1:])


@pytest.mark.parametrize("names, order", _PINNED_PRODUCTS,
                         ids=lambda v: "x".join(v) if isinstance(v, tuple)
                         else str(v))
def test_product_diagonal_matches_extracting_the_lift(names, order):
    factors = [_factor(name, order) for name in names]
    pw = product_witness(factors, order)
    assert pw.diagonal(order).coeffs == _lift_diagonal(factors, order)


def test_lift_oracle_sees_a_block_one_variable_off(monkeypatch):
    # the oracle must catch a lift whose second block overlaps the first
    real = Poly.embed
    monkeypatch.setattr(Poly, "embed", lambda p, nvars, offset: real(
        p, nvars, offset - 1 if offset else 0))
    for names, order in _PINNED_PRODUCTS:
        factors = [_factor(name, order) for name in names]
        pw = product_witness(factors, order)
        assert pw.diagonal(order).coeffs != _lift_diagonal(factors, order), (
            names)


def test_product_claims_no_more_than_its_factors_checked():
    w3 = diagonal_witness(CORPUS_ANNIHILATORS["catalan"], 3)
    w5 = diagonal_witness(CORPUS_ANNIHILATORS["central-binomial"], 5)
    with pytest.raises(SchemaError) as err:
        product_witness([w5, w3], 4)
    assert err.value.exit_code == 2
    for bad in (0, 2.5, "3", True):
        with pytest.raises(SchemaError):
            product_witness([w5, w3], bad)
    assert product_witness([w5, w3], 3).diagonal(3).coeffs == (1, 2, 12)


def test_read_back_square_extracts_like_before():
    w = diagonal_witness(CORPUS_ANNIHILATORS["catalan"], 16)
    square = product_witness([w, w], 16)
    back = DiagonalWitness.from_json_dict(
        json.loads(json.dumps(square.to_json_dict())))
    assert back == square and back._checked == ()
    for order in (1, 7, 15):
        assert back.diagonal(order) == square.diagonal(order)
    with pytest.raises(BudgetExceeded):
        back.diagonal(16)


_OPTIMIZED_CHECK = """
import gradeforge.diagonals as diagonals
from gradeforge.catalog import CORPUS_ANNIHILATORS
from gradeforge.errors import SchemaError, VerificationFailed
from gradeforge.series import TruncSeries

def off_by_one(s):
    return TruncSeries(s.coeffs[:-1] + (s.coeffs[-1] + 1,))

extract = diagonals.diagonal_extract
ann = CORPUS_ANNIHILATORS["catalan"]
fired = []
diagonals.diagonal_extract = lambda r, n: off_by_one(extract(r, n))
try:
    diagonals.diagonal_witness(ann, 4)
except VerificationFailed:
    fired.append("diagonal")
diagonals.diagonal_extract = extract
w = diagonals.diagonal_witness(ann, 3)
try:
    diagonals.product_witness([w, w], 4)
except SchemaError:
    fired.append("product")
print(",".join(fired))
"""


def test_witness_checks_survive_python_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECK],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out.split() == ["diagonal,product"]
