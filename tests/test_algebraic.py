from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from gradeforge import algebraic
from gradeforge.algebraic import (
    Annihilator,
    branch_recurrence,
    branch_residue_prefixes,
    expand_branch,
    verify_annihilator,
)
from gradeforge.automata import reduce_mod
from gradeforge.catalog import CORPUS_ANNIHILATORS
from gradeforge.errors import (
    BudgetExceeded,
    NotARoot,
    PrimeDividesDenominator,
    RamifiedBranch,
    SchemaError,
)
from gradeforge.holonomic import PRecurrence, unroll
from gradeforge.polynomials import Poly, poly_from_rows
from gradeforge.rationals import format_rational
from gradeforge.series import TruncSeries


def bivariate(terms, y0=0):
    """The annihilator of P = Σ terms[(i, j)]·z^i·y^j, whose coefficients
    may be rational, read as a payload is read: `poly_from_rows` clears
    the denominators."""
    rows = [[i, j, format_rational(c)] for (i, j), c in terms.items()]
    poly, _ = poly_from_rows(rows, 2, "P")
    return Annihilator(poly, Fraction(y0))


CATALAN_SHIFTED = bivariate({(0, 2): 1, (0, 1): -1, (1, 0): 1})  # y^2 - y + z
SQRT_BINOMIAL = bivariate({(0, 2): 1, (1, 2): -4, (0, 0): -1}, y0=1)  # (1-4z)y^2 - 1


def test_catalan_branch():
    f = expand_branch(CATALAN_SHIFTED, 6)
    assert list(f.coeffs) == [0] + oracles.catalan_numbers(5)


def test_central_binomial_branch():
    f = expand_branch(SQRT_BINOMIAL, 5)
    assert list(f.coeffs) == oracles.central_binomials(5)


def test_polynomial_root_branch():
    ann = bivariate({(0, 1): 1, (0, 0): -1, (1, 0): -1}, y0=1)  # y - 1 - z
    assert list(expand_branch(ann, 5).coeffs) == [1, 1, 0, 0, 0]


def test_branch_must_pass_through_y0():
    # the constructor refuses it, so no pipeline ever sees it
    with pytest.raises(NotARoot):
        bivariate({(0, 2): 1, (0, 1): -1, (1, 0): 1}, y0=5)
    bivariate({(0, 2): 1, (0, 1): -1, (1, 0): 1}, y0=1)


def test_ramified_branch_rejected():
    # y^2 - z: double root at (0, 0)
    with pytest.raises(RamifiedBranch):
        bivariate({(0, 2): 1, (1, 0): -1})


def test_constructor_refuses_a_dense_size_past_the_cap():
    # z^e·y^2 - y + 1 is a short payload whose y-rows, dense in z, would
    # hold 3·(e + 1) integers; a cap-sized P is still accepted
    e = 2 * 10 ** 6
    with pytest.raises(BudgetExceeded) as info:
        bivariate({(e, 2): 1, (0, 1): -1, (0, 0): 1}, y0=1)
    assert info.value.exit_code == 4
    edge = algebraic.MAX_DENSE_SIZE // 2 - 1
    bivariate({(edge, 1): 1, (0, 1): -1, (0, 0): 1}, y0=1)
    with pytest.raises(BudgetExceeded):
        bivariate({(edge + 1, 1): 1, (0, 1): -1, (0, 0): 1}, y0=1)


@pytest.mark.parametrize("terms, y0, error", [
    ({(0, 2): 1, (0, 0): -1}, Fraction(1, 2), NotARoot),  # y^2 - 1
    ({(0, 2): 1, (0, 1): -2, (0, 0): 1, (1, 0): -1}, 1,  # (y - 1)^2 - z
     RamifiedBranch),
], ids=["y^2-1 at 1/2", "(y-1)^2-z at 1"])
def test_constructor_checks_a_branch_point_away_from_zero(terms, y0, error):
    with pytest.raises(error) as info:
        bivariate(terms, y0)
    assert info.value.exit_code == 3


def test_constructor_rejects_univariate_and_zero():
    with pytest.raises(ValueError):
        Annihilator(Poly(1, {(1,): 1}), Fraction(0))
    with pytest.raises(ValueError):
        Annihilator(Poly.zero(2), Fraction(0))
    with pytest.raises(ValueError):
        # no y at all: nothing to solve for
        Annihilator(Poly(2, {(2, 0): 1}), Fraction(0))


def test_verify_annihilator():
    cat = expand_branch(CATALAN_SHIFTED, 10)
    assert verify_annihilator(CATALAN_SHIFTED, cat)
    geom = TruncSeries.from_list([1] * 10)
    assert not verify_annihilator(CATALAN_SHIFTED, geom)
    const = bivariate({(0, 1): 1, (0, 0): -1}, y0=1)  # y - 1
    assert verify_annihilator(const, TruncSeries.from_list([1, 0, 0]))


@pytest.mark.parametrize("name", sorted(CORPUS_ANNIHILATORS))
@pytest.mark.parametrize("order", [4, 16, 64])
def test_corpus_expansions_verify(name, order):
    ann = CORPUS_ANNIHILATORS[name]
    assert verify_annihilator(ann, expand_branch(ann, order))


@pytest.mark.parametrize("name", sorted(CORPUS_ANNIHILATORS))
def test_doubling_agrees_on_prefix(name):
    ann = CORPUS_ANNIHILATORS[name]
    short = expand_branch(ann, 24)
    long = expand_branch(ann, 48)
    assert long.truncate(24) == short


@pytest.mark.parametrize("name", sorted(CORPUS_ANNIHILATORS))
def test_denominator_growth_is_eisenstein_bounded(name):
    """Derive C, A from the first 26 terms; they must clear terms 26..50.

    An algebraic series over the rationals admits integers C, A with
    C * A^n * a_n integral for every n, so the lcm growth observed early
    must keep absorbing all later denominators — a genuine prediction,
    not a tautology.
    """
    f = expand_branch(CORPUS_ANNIHILATORS[name], 51)
    running = 1
    ratios = []
    for n in range(26):
        grown = lcm(running, f[n].denominator)
        ratios.append(grown // running)
        running = grown
    a_cand = 1
    for r in ratios:
        a_cand = lcm(a_cand, r)
    c_cand = 1
    for n in range(26):
        c_cand = lcm(c_cand, (f[n] * a_cand**n).denominator)
    for n in range(26, 51):
        assert (c_cand * a_cand**n * f[n]).denominator == 1


def test_deep_expansion_matches_integer_recurrences():
    cb = expand_branch(CORPUS_ANNIHILATORS["central-binomial"], 400)
    assert list(cb.coeffs) == oracles.central_binomials_fast(400)
    cat = expand_branch(CORPUS_ANNIHILATORS["catalan"], 400)
    assert list(cat.coeffs) == oracles.catalan_numbers_fast(400)


# ---------------------------------------------------------------------------
# the P-recurrence derived from P


#: Terms compared with `oracles.branch_prefix`, far past every n0 + r
#: below (at most 16, for the tangent).
ORACLE_TERMS = 150


def branch_oracle(ann):
    return oracles.branch_prefix(ann.poly.terms, ann.y0, ORACLE_TERMS)


def tangent_annihilator(order):
    """cos(z)·y - sin(z), both cut at z^order, with its rational
    coefficients cleared by the reader (`tangent_series` scales them by
    (order - 1)! instead; both give the same primitive k·P)."""
    return bivariate({(i, 1 - i % 2): Fraction((-1) ** ((i + 1) // 2),
                                               factorial(i))
                      for i in range(order)})


@pytest.mark.parametrize("name", sorted(CORPUS_ANNIHILATORS))
def test_branch_recurrence_matches_newton(name):
    ann = CORPUS_ANNIHILATORS[name]
    rec = branch_recurrence(ann)
    assert not rec.empirical
    want = branch_oracle(ann)
    assert list(unroll(rec, ORACLE_TERMS).coeffs) == want
    assert list(expand_branch(ann, ORACLE_TERMS).coeffs) == want


#: Hand-typed recurrences of three corpus branches: the reference for the
#: ones derived from P.
TYPED_RECURRENCES = {
    "catalan": PRecurrence.from_dense([[-2, -4], [2, 1]], 0, [1]),
    "central-binomial": PRecurrence.from_dense([[-2, -4], [1, 1]], 0, [1]),
    "geometric": PRecurrence.from_dense([[-1], [1]], 0, [1]),
}


def ones(count):
    return [1] * count


@pytest.mark.parametrize("name, closed_form", [
    ("catalan", oracles.catalan_numbers_fast),
    ("central-binomial", oracles.central_binomials_fast),
    ("geometric", ones),
])
def test_branch_recurrence_reproduces_the_closed_forms(name, closed_form):
    rec = branch_recurrence(CORPUS_ANNIHILATORS[name])
    assert rec == TYPED_RECURRENCES[name]
    assert list(unroll(rec, 1000).coeffs) == closed_form(1000)
    assert list(expand_branch(CORPUS_ANNIHILATORS[name], 1000).coeffs) == (
        closed_form(1000))


EDGE_BRANCHES = {
    "y - 1 - z": bivariate({(0, 1): 1, (0, 0): -1, (1, 0): -1}, y0=1),
    "tangent": tangent_annihilator(16),
    # (1 + z)y^3 + y^2 + zy - 2 through y0 = 1: lc_y(P) depends on z, and
    # the ODE has order 2, so A_2 comes from A_1 through the recursion
    "cubic": bivariate({(0, 3): 1, (1, 3): 1, (0, 2): 1, (1, 1): 1,
                        (0, 0): -2}, y0=1),
}


@pytest.mark.parametrize("name", sorted(EDGE_BRANCHES))
def test_branch_recurrence_edge_cases(name):
    ann = EDGE_BRANCHES[name]
    assert list(unroll(branch_recurrence(ann), ORACLE_TERMS).coeffs) == (
        branch_oracle(ann))


def test_expand_branch_takes_only_the_recurrence_prefix_from_newton(
        monkeypatch):
    lengths = []
    newton = algebraic._newton_prefixes

    def spy(*args):
        lengths.extend(args[4])
        return newton(*args)

    monkeypatch.setattr(algebraic, "_newton_prefixes", spy)
    ann = CORPUS_ANNIHILATORS["catalan-shifted"]
    rec = branch_recurrence(ann)
    lengths.clear()
    assert list(expand_branch(ann, 500).coeffs)[1:] == (
        oracles.catalan_numbers_fast(499))
    assert lengths == [rec.n0 + rec.order] == [2]


# ---------------------------------------------------------------------------
# residues mod p^r by the Newton iteration in (Z/p^r)[[z]]

#: (branch, p) where P_y(0, y0) is no p-unit: the residue path declines
NOT_A_UNIT = {("central-binomial", 2), ("sqrt1p", 2), ("cbrt1m", 3)}


def branch_residues(ann, n, p, r=1):
    """The first n residues mod p^r, or None: one size drawn from
    `branch_residue_prefixes`."""
    prefixes = branch_residue_prefixes(ann, (n,), p, r)
    return None if prefixes is None else next(prefixes)


@pytest.mark.parametrize("name", sorted(CORPUS_ANNIHILATORS))
@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_branch_residues_match_the_oracle(name, p, r):
    got = branch_residues(CORPUS_ANNIHILATORS[name], 2000, p, r)
    if (name, p) in NOT_A_UNIT:
        assert got is None
    else:
        assert got == oracles.corpus_residues(name, 2000, p, r)


# conv's slot widths in bytes (before 3 widens to 4) on each case's Kronecker
# products: p = 2: 2; 3: 2, 3 (r = 2); 251: 3, 4 and 4, 5, 6; 65521: 4, 5, 6
# and 6, 9, 10; 2^31 - 1: 5, 6, 9, 10 and 8, 9, 10, 16, 17; 10^12 + 39: 7,
# 11, 12 and 8, 12, 18, 21, 22.
@pytest.mark.parametrize("p", [2, 3, 251, 65521, 2**31 - 1, 10**12 + 39])
@pytest.mark.parametrize("r", [1, 2])
def test_branch_residues_reach_every_slot_width(p, r):
    assert branch_residues(CORPUS_ANNIHILATORS["catalan"], 600, p, r) == (
        oracles.corpus_residues("catalan", 600, p, r))


@st.composite
def integer_branch_points(draw):
    """Integer P(z, y) with P(0, y0) = 0 at an integer y0, plus p, r and n."""
    dz = draw(st.integers(0, 2))
    dy = draw(st.integers(1, 3))
    terms = {(i, j): draw(st.integers(-6, 6))
             for i in range(dz + 1) for j in range(dy + 1)}
    y0 = draw(st.integers(-3, 3))
    terms[(0, 0)] -= sum(terms[(0, j)] * y0**j for j in range(dy + 1))
    assume(sum(j * terms[(0, j)] * y0**(j - 1) for j in range(1, dy + 1)))
    return (bivariate(terms, y0), draw(st.sampled_from([2, 3, 5, 7])),
            draw(st.integers(1, 3)), draw(st.integers(1, 40)))


@given(integer_branch_points())
@settings(max_examples=150)
def test_branch_residues_equal_the_reduced_exact_branch(case):
    ann, p, r, n = case
    got = branch_residues(ann, n, p, r)
    if got is not None:
        assert got == list(reduce_mod(expand_branch(ann, n), p, r).terms)


@pytest.mark.parametrize("terms, y0", [
    ({(0, 2): 1, (0, 1): -1, (1, 0): Fraction(1, 6)}, 0),  # y^2 - y + z/6
    ({(1, 2): 1, (0, 1): -2, (0, 0): 1}, Fraction(1, 2)),  # zy^2 - 2y + 1
    # 2y^2 - 3y + 1 + z: P_y(0, 1/2) = -1 is a unit even mod 2
    ({(0, 2): 2, (0, 1): -3, (0, 0): 1, (1, 0): 1}, Fraction(1, 2)),
])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_branch_residues_with_rational_inputs(terms, y0, p):
    ann = bivariate(terms, y0)
    got = branch_residues(ann, 200, p, 2)
    exact = expand_branch(ann, 200)
    if got is None:
        # p divides a coefficient denominator of the branch itself
        with pytest.raises(PrimeDividesDenominator):
            reduce_mod(exact, p, 2)
    else:
        assert got == list(reduce_mod(exact, p, 2).terms)
    assert (got is None) == (p in (2, 3) if y0 == 0 else p == 2)


def test_branch_residues_scale_p_out_of_the_coefficients():
    # factor·(y^2 - y + z): made primitive it is the shifted Catalan branch,
    # whose P_y(0, 0) = -1 is a unit mod every p
    cases = [(2, Fraction(1, 2)), (2, 4), (2, 12), (2, Fraction(3, 8)),
             (3, 9), (3, Fraction(2, 27)), (5, Fraction(25, 7))]
    for p, factor in cases:
        scaled = bivariate({(0, 2): factor, (0, 1): -factor, (1, 0): factor})
        for r in (1, 2, 3):
            assert branch_residues(scaled, 500, p, r) == (
                oracles.corpus_residues("catalan-shifted", 500, p, r))


@pytest.mark.parametrize("name, p", [
    ("catalan", 4),            # used to return a list of residues mod 4
    ("central-binomial", 6),   # used to raise a bare ValueError from pow
])
def test_branch_residues_refuse_a_composite_modulus(name, p):
    with pytest.raises(SchemaError) as info:
        branch_residues(CORPUS_ANNIHILATORS[name], 8, p)
    assert info.value.exit_code == 2


def test_branch_residues_keep_the_exact_checks():
    with pytest.raises(NotARoot):
        branch_residues(bivariate({(0, 2): 1, (0, 1): -1, (1, 0): 1}, y0=5),
                        4, 3)
    with pytest.raises(RamifiedBranch):
        branch_residues(bivariate({(0, 2): 1, (1, 0): -1}), 4, 3)


# ---------------------------------------------------------------------------
# one Newton iteration resumed across ascending sizes


def test_precision_steps_halve_down_from_the_target():
    assert algebraic._precision_steps(1, 1000) == [
        2, 4, 8, 16, 32, 63, 125, 250, 500, 1000]
    # extending 25,000 terms to 125,000 takes three balanced steps
    assert algebraic._precision_steps(25000, 125000) == [31250, 62500, 125000]
    assert algebraic._precision_steps(192, 576) == [288, 576]
    assert algebraic._precision_steps(576, 576) == []
    for held in range(1, 40):
        for target in range(held, 200):
            steps = algebraic._precision_steps(held, target)
            assert steps[-1:] == ([target] if target > held else [])
            for before, after in zip([held] + steps, steps):
                assert before < after <= 2 * before


#: every corpus branch at p in {2, 3, 5}, r in {1, 2} that the residue
#: path serves
RESUMABLE = [(name, p, r) for name in sorted(CORPUS_ANNIHILATORS)
             for p in (2, 3, 5) for r in (1, 2)
             if (name, p) not in NOT_A_UNIT]

#: (q, L): attempt sizes L·q^k, most of them not powers of two
ATTEMPT_SIZES = [(2, 7), (3, 5), (3, 64), (5, 7)]


#: (name, p, r) -> the largest size drawn, where it is not 900: mod 125
#: the packed slots widen from 3 to 4 bytes at 1,092 terms, so the sizes
#: 7·5^k cross the step between 875 and 4,375
DEEP_RESUMES = {("catalan", 5, 3): 4375}


@pytest.mark.parametrize("name, p, r", RESUMABLE + list(DEEP_RESUMES))
def test_resumed_residue_prefixes_equal_fresh_runs(name, p, r):
    ann = CORPUS_ANNIHILATORS[name]
    limit = DEEP_RESUMES.get((name, p, r), 900)
    exact = reduce_mod(expand_branch(ann, limit), p, r).terms
    assert list(exact) == oracles.corpus_residues(name, limit, p, r)
    for q, length in ATTEMPT_SIZES:
        sizes = [length * q**k for k in range(8) if length * q**k <= limit]
        resumed = list(branch_residue_prefixes(ann, sizes, p, r))
        assert [len(t) for t in resumed] == sizes
        for n, got in zip(sizes, resumed):
            assert got == branch_residues(ann, n, p, r) == list(exact[:n]), (
                q, length, n)


@pytest.mark.parametrize("size", [0, -2])
def test_residue_prefixes_refuse_a_size_below_one(size):
    # slicing f[:-2] would return a wrong prefix without a word
    prefixes = branch_residue_prefixes(CORPUS_ANNIHILATORS["catalan"],
                                       (size, 3), 3)
    with pytest.raises(SchemaError) as info:
        next(prefixes)
    assert info.value.exit_code == 2
    prefixes = branch_residue_prefixes(CORPUS_ANNIHILATORS["catalan"],
                                       (3, size), 3)
    assert next(prefixes) == [1, 1, 2]
    with pytest.raises(SchemaError):
        next(prefixes)


def test_residue_prefixes_decline_where_branch_residues_do():
    for name, p in sorted(NOT_A_UNIT):
        assert branch_residue_prefixes(CORPUS_ANNIHILATORS[name],
                                       [8, 16], p) is None
