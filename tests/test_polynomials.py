import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import rationals
from gradeforge import _intpoly as ip
from gradeforge import polynomials
from gradeforge.algebraic import Annihilator
from gradeforge.catalog import CORPUS_ANNIHILATORS
from gradeforge.errors import (
    InexactDivision,
    NoKernel,
    SchemaError,
    VariableMismatch,
)
from gradeforge.polynomials import (
    Poly,
    RatFun,
    fraction_free_left_kernel,
    poly_from_rows,
    poly_rows,
)
from gradeforge.rationals import format_rational


def p2(terms):
    """Bivariate polynomial from {(i, j): coeff} with variables (z, y)."""
    return Poly(2, terms)


def p1(terms):
    return Poly(1, {(k,): v for k, v in terms.items()})


# ---------------------------------------------------------------------------
# construction and basic arithmetic


def test_zero_coefficients_dropped():
    p = p2({(0, 0): 0, (1, 0): 1})
    assert p.terms == {(1, 0): 1}
    assert not Poly(2, {}).terms
    assert Poly(2, {}).is_zero()


@pytest.mark.parametrize("terms", [
    {(1.9, 0): 2},                    # was read as 2·z
    {(1.5, 0): 1, (1, 0): -1},        # was read as 0
    {(True, 0): 1},
    {("1", 0): 1},
], ids=["float", "float-cancelling", "bool", "string"])
def test_non_integer_exponents_are_refused(terms):
    with pytest.raises(SchemaError, match="bad exponent tuple"):
        Poly(2, terms)


def test_difference_of_squares():
    y = Poly.variable(2, 1)
    one = Poly.const(2, 1)
    assert (y - one) * (y + one) == y * y - one


def test_add_identity():
    p = p2({(2, 1): 3, (0, 0): -1})
    assert p + Poly.zero(2) == p


def test_variable_mismatch():
    with pytest.raises(VariableMismatch):
        p1({0: 1}) + p2({(0, 0): 1})


def test_embed_keeps_coefficients():
    p = p2({(1, 2): 7, (0, 0): -2})
    q = p.embed(4, 2)
    assert q.terms == {(0, 0, 1, 2): 7, (0, 0, 0, 0): -2}
    with pytest.raises(VariableMismatch):
        p.embed(3, 2)


def test_rational_coefficients_are_refused():
    # rationals are cleared where they are read (`poly_from_rows`)
    for coeff in (Fraction(1, 2), Fraction(3), 1.0, True, "1"):
        with pytest.raises(SchemaError, match="not an integer"):
            Poly(2, {(0, 1): coeff})
    with pytest.raises(SchemaError, match="not an integer"):
        Poly.variable(2, 1) * Fraction(1, 2)


@st.composite
def sparse_polys(draw, max_vars=3, max_degree=6, max_terms=5):
    nvars = draw(st.integers(1, max_vars))
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        expo = tuple(
            draw(st.integers(0, max_degree)) for _ in range(nvars)
        )
        terms[expo] = draw(st.integers(-9, 9))
    return Poly(nvars, terms), nvars


def all_int(p):
    return all(type(c) is int for c in p.terms.values())


@given(sparse_polys(), sparse_polys(), st.integers(-3, 3))
def test_integer_poly_matches_the_fraction_oracle(an, bn, scalar):
    (a, na), (b, nb) = an, bn
    n = max(na, nb)
    a, b = a.embed(n, 0), b.embed(n, 0)
    fa, fb = (oracles.FracPoly(n, p.terms) for p in (a, b))
    results = [
        (a + b, fa + fb), (a - b, fa + fb * -1), (a * b, fa * fb),
        (a * scalar, fa * scalar), (a.embed(n + 2, 1), fa.embed(n + 2, 1)),
    ]
    for got, want in results:
        assert got.terms == want.terms
        assert all_int(got)


@st.composite
def rational_rows(draw):
    """Term rows over 1-3 variables with rational coefficients, some
    monomials repeated so that their coefficients add up (or cancel)."""
    nvars = draw(st.integers(1, 3))
    expos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars),
                          min_size=1, max_size=4))
    rows = [[*draw(st.sampled_from(expos)),
             format_rational(draw(rationals(max_num=9, max_den=12)))]
            for _ in range(draw(st.integers(0, 7)))]
    return rows, nvars


@given(rational_rows())
def test_poly_from_rows_clears_the_least_denominator(case):
    rows, nvars = case
    want = {}
    for *e, c in rows:
        want[tuple(e)] = want.get(tuple(e), 0) + Fraction(c)
    got, d = poly_from_rows(rows, nvars, "p")
    assert all_int(got)
    assert got.terms == {e: c * d for e, c in want.items() if c}
    # d is least: no factor of d divides every coefficient of d·P as well
    assert math.gcd(d, *got.terms.values()) == 1


def test_rows_must_be_a_list():
    with pytest.raises(SchemaError, match="must be a list of term rows"):
        poly_from_rows("[[1, 0, 1]]", 2, "P")


@given(sparse_polys(), sparse_polys(), sparse_polys())
def test_mul_commutative_associative(a3, b3, c3):
    (a, na), (b, nb), (c, nc) = a3, b3, c3
    n = max(na, nb, nc)
    a = a.embed(n, 0)
    b = b.embed(n, 0)
    c = c.embed(n, 0)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(sparse_polys())
def test_poly_rows_round_trip(pn):
    p, nvars = pn
    assert poly_from_rows(poly_rows(p), nvars, "p") == (p, 1)


# ---------------------------------------------------------------------------
# dense integer convolution


@st.composite
def conv_operands(draw):
    """(a, b, limit) for `_intpoly.conv`: lengths 1-80, weighted toward
    46-80 (46² > 2048) so that many draws take the Kronecker branch,
    coefficients of 0-30 bits in about half of the operands (so that both
    are small enough for the 1-8-byte cast slots) and of 0-2000 bits
    otherwise, with runs of zeros, mixed, nonnegative or nonpositive signs,
    and sometimes every magnitude at its maximum."""
    signs = draw(st.sampled_from([(1, -1), (1,), (-1,)]))

    def operand():
        n = draw(st.one_of(st.integers(1, 80), st.integers(46, 80)))
        top = 2 ** draw(st.one_of(st.integers(0, 30),
                                  st.integers(0, 2000))) - 1
        if draw(st.booleans()):
            mags = [top] * n
        else:
            mags = draw(st.lists(st.one_of(st.just(0), st.integers(0, top)),
                                 min_size=n, max_size=n))
            lo = draw(st.integers(0, n))
            hi = draw(st.integers(lo, n))
            mags[lo:hi] = [0] * (hi - lo)
        return [draw(st.sampled_from(signs)) * m for m in mags]

    a, b = operand(), operand()
    n = len(a) + len(b) - 1
    limit = draw(st.one_of(st.none(), st.integers(1, n),
                           st.integers(n, n + 5)))
    return a, b, limit


def all_max(la, lb, bits_a, bits_b):
    """-a and b at their maxima; conv's slot is bits_a + bits_b +
    min(la, lb).bit_length() + 1 bits."""
    return [1 - 2**bits_a] * la, [2**bits_b - 1] * lb, None


CONV_EXAMPLES = [
    # 63 coefficients at their 5-bit maximum: the middle product coefficient
    # is ±63·31² = ±60543.  Its slot is 5 + 5 + 6 + 1 = 17 bits; a slot
    # without the sign bit would be 16 bits, whose signed range stops at
    # ±2^15.
    ([31] * 63, [31] * 63, None),
    ([-31] * 63, [31] * 63, None),
    # slots of exactly 8, 16, 24, 32 and 64 bits (1, 2, 3 -> 4, 4 and 8
    # bytes), each followed by one bit more (2, 3 -> 4, 4, 5 and 9 bytes)
    all_max(17, 121, 1, 1), all_max(17, 121, 2, 1),
    all_max(63, 63, 4, 5), all_max(63, 63, 5, 5),
    all_max(63, 63, 8, 9), all_max(63, 63, 9, 9),
    all_max(63, 63, 12, 13), all_max(63, 63, 13, 13),
    all_max(63, 63, 28, 29), all_max(63, 63, 29, 29),
]


def conv_cases(test):
    for case in CONV_EXAMPLES:
        test = example(case)(test)
    return given(conv_operands())(test)


def check_conv(a, b, limit):
    n = len(a) + len(b) - 1
    got = ip.conv(a, b, limit)
    assert got == ip._conv_schoolbook(a, b, n if limit is None else limit)
    assert len(got) == min(n, limit or n)


@conv_cases
def test_conv_matches_schoolbook(operands):
    check_conv(*operands)


@conv_cases
def test_conv_matches_schoolbook_slot_by_slot(operands):
    # as on a big-endian machine: no slot width is cast
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ip, "_CAST", {})
        check_conv(*operands)


@pytest.mark.parametrize("size", [3, 63])  # schoolbook, Kronecker
@pytest.mark.parametrize("limit", [0, -3])
def test_conv_nonpositive_limit_is_empty(size, limit):
    a = list(range(-size, size, 2))
    assert ip.conv(a, a, limit) == []


# ---------------------------------------------------------------------------
# series over Z/m packed one coefficient per slot

RING_MODULI = [2, 3, 4, 9, 25, 27, 49, 125, 2**31 - 1]


def widening_sizes(m, cap=8000):
    """The sizes n <= cap at which `ResidueRing(m).reach(n)` widens its
    slots by a byte: the least n with n·(m-1)^2 + 2m >= 2^(8j), j >= 1."""
    sizes = (-(-(2**(8 * j) - 2 * m) // (m - 1)**2) for j in range(1, 12))
    return [n for n in sizes if 1 < n <= cap]


@st.composite
def ring_operands(draw):
    """(m, n, a, b, plus, count): residue lists of at most n terms, n on
    either side of a widening size, every residue m - 1 in some draws."""
    m = draw(st.sampled_from(RING_MODULI))
    n = draw(st.sampled_from(widening_sizes(m))) - draw(
        st.integers(0, 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    top = draw(st.booleans())

    def residues(length):
        return [m - 1 if top else rng.randrange(m) for _ in range(length)]

    count = draw(st.integers(1, n))
    a = residues(draw(st.sampled_from([n, rng.randint(1, n)])))
    b = residues(draw(st.sampled_from([n, rng.randint(1, n)])))
    return m, n, a, b, residues(count), count


def check_ring(m, n, a, b, plus, count):
    ring = ip.ResidueRing(m)
    ring.reach(n)
    x, y, c = (ring.row(v, count) for v in (a, b, plus))
    want = [v % m for v in ip.conv(a, b, count)]
    want += [0] * (count - len(want))
    assert ring.prefix(ring.mul(x, y, count), count) == want
    assert ring.prefix(ring.mul(x, y, count, c), count) == [
        (u + v) % m for u, v in zip(want, plus)]
    assert ring.prefix(ring.neg(c, count, 2), count) == (
        [(2 - plus[0]) % m] + [-v % m for v in plus[1:]])
    assert ring.prefix(x, count) == a[:count] + [0] * (count - len(a))


@given(ring_operands())
@settings(max_examples=150)
def test_packed_product_matches_conv_mod_m(operands):
    check_ring(*operands)


@given(ring_operands())
@settings(max_examples=40)
def test_packed_product_matches_conv_mod_m_slot_by_slot(operands):
    # as on a big-endian machine: residues are unpacked one slot at a time
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ip, "_UCAST", {})
        check_ring(*operands)


@pytest.mark.parametrize("m", RING_MODULI)
def test_barrett_step_is_exact_at_the_edges(m):
    # c = 2^b - 1 and c = j·m - 1, j·m, j·m + 1 for the least and greatest
    # j with j·m < 2^b, at every slot width up to 8000 terms
    ring = ip.ResidueRing(m)
    for n in [1, 2, 3] + [w + d for w in widening_sizes(m) for d in (-1, 0)]:
        ring.reach(n)
        top = 2**ring.b - 1
        values = [top] + [c for j in (1, top // m) for c in
                          (j * m - 1, j * m, j * m + 1) if c <= top]
        x = int.from_bytes(b"".join(c.to_bytes(ring.nb, "little")
                                    for c in values), "little")
        assert ring.prefix(ring.reduce(x, len(values)), len(values)) == [
            c % m for c in values], n


# ---------------------------------------------------------------------------
# integer roots


def brute_roots(a, bound):
    return [x for x in range(-bound, bound + 1) if ip.eval_at(a, x) == 0]


def test_sturm_chain_flips_the_sign_after_a_degree_drop_of_two(monkeypatch):
    # x^4 + x - 2 = (x - 1)(x^3 + x^2 + x + 2).  Its chain is p, p' = 4x^3
    # + 1, then 8 - 3x: p mod p' has no x^2 term, so that remainder drops
    # two degrees and leads with -3.  Dividing p' by it takes the odd power
    # (-3)^3, and the pseudo-remainder's sign must be flipped back.
    p = [-2, 1, 0, 0, 1]
    flipped = []
    prem = ip._prem_positive

    def spy(a, b):
        if b[-1] < 0 and (len(a) - len(b)) % 2 == 0:
            flipped.append((a, b))
        return prem(a, b)

    monkeypatch.setattr(ip, "_prem_positive", spy)
    assert ip._remainders(p, ip.deriv(p)) == [p, [1, 0, 0, 4], [8, -3], [-1]]
    assert flipped == [([1, 0, 0, 4], [8, -3])]
    assert ip.int_roots(p) == brute_roots(p, 3) == [1]


@given(st.lists(st.integers(-30, 30), max_size=4),
       st.lists(st.integers(-20, 20), min_size=1, max_size=4).filter(
           lambda q: q[-1] != 0),
       st.lists(st.integers(-5, 5), min_size=1, max_size=3).filter(
           lambda f: f[-1] != 0))
@example(rs=[2, -1], q=[3], f=[1, 0, 1])
def test_int_roots_of_a_product_with_known_integer_roots(rs, q, f):
    # f enters squared: (x^2 + 1)^2 is a repeated factor without real roots
    a = ip.mul(q, ip.mul(f, f))
    for r in rs:
        a = ip.mul(a, [-r, 1])
    # every integer root of q or f has |x| <= max|coefficient| as |lead| >= 1
    bound = max(abs(c) for c in q + f)
    want = set(rs) | set(brute_roots(q, bound)) | set(brute_roots(f, bound))
    assert ip.int_roots(a) == sorted(want)


def test_int_roots_refuses_the_zero_polynomial():
    with pytest.raises(ZeroDivisionError):
        ip.int_roots([])


@pytest.mark.parametrize("a, b, error", [
    ([1, 2, 1], [], ZeroDivisionError),
    ([1], [1, 1], InexactDivision),     # deg a < deg b
    ([0, 3], [0, 2], InexactDivision),  # 2 does not divide 3
    ([1, 1], [0, 1], InexactDivision),  # z + 1 = 1·z + 1
], ids=["zero-divisor", "short-dividend", "inexact-quotient", "remainder"])
def test_exact_div_refuses_an_inexact_division(a, b, error):
    # Bareiss elimination and the kernel normalisation rest on these checks
    with pytest.raises(error):
        ip.exact_div(a, b)


# ---------------------------------------------------------------------------
# rational functions


def test_catalan_witness_point_values():
    # y(2y-1)/(x+y-1) at (0, 1/2) -> 0; (y^2-y+z) at (0, 0) -> 0
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    one = Poly.const(2, 1)
    witness = RatFun(y * (y + y - one), x + y - one)
    point = [Fraction(0), Fraction(1, 2)]
    num, den = (oracles.FracPoly(2, q.terms) for q in (witness.num, witness.den))
    assert num.value_at(point) == 0 and den.value_at(point) != 0
    p = oracles.FracPoly(2, p2({(0, 2): 1, (0, 1): -1, (1, 0): 1}).terms)
    assert p.value_at([Fraction(0), Fraction(0)]) == 0


def test_equal_polys_hash_equal_and_key_a_dict():
    a = p2({(1, 0): 1, (0, 1): -1})
    b = p2({(0, 1): -1, (1, 0): 1})
    assert a == b and hash(a) == hash(b)
    geometric = CORPUS_ANNIHILATORS["geometric"]
    twin = Annihilator(Poly(2, dict(geometric.poly.terms)), geometric.y0)
    assert {geometric: "geometric"}[twin] == "geometric"


def test_only_the_zero_poly_is_false():
    assert not Poly.zero(2)
    assert Poly.const(2, 1)


def test_ratfun_normalization_makes_equality_structural():
    x = Poly.variable(1, 0)
    one = Poly.const(1, 1)
    a = RatFun(one, one - x)
    b = RatFun(-one, x - one)
    assert a == b
    assert hash(a) == hash(b)


def test_equal_ratfuns_hash_equal():
    # 2 / (2 - 2x) == 1 / (1 - x) although the stored polynomials differ
    x = Poly.variable(1, 0)
    one = Poly.const(1, 1)
    pairs = [
        (RatFun(one * 2, one * 2 - x * 2), RatFun(one, one - x)),
        (RatFun(x * x - one, (x - one) * 3), RatFun(x + one, one * 3)),
        (RatFun(Poly.zero(1), one - x), RatFun(Poly.zero(1), one)),
    ]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_ratfun_keys_a_dict_past_the_float_range():
    # lead(N) / lead(D) = 3^700 (about 2^1109): as a float quotient of
    # integers it raised OverflowError
    x = Poly.variable(1, 0)
    one = Poly.const(1, 1)
    big = 3 ** 700
    a = RatFun(one * big, one - x)
    twin = RatFun(one * (2 * big), (one - x) * 2)
    assert {a: "a"}[twin] == "a"
    assert hash(RatFun(one * (big + 1), one * big)) != hash(RatFun(one, one))


def test_ratfuns_in_different_variable_counts_are_unequal():
    a = RatFun(Poly.const(1, 1), Poly.const(1, 1))
    b = RatFun(Poly.const(2, 1), Poly.const(2, 1))
    assert a != b
    assert len({a, b}) == 2


def test_ratfun_rejects_zero_denominator():
    with pytest.raises(SchemaError):
        RatFun(Poly.const(2, 1), Poly.const(2, 0))


def test_ratfun_operands_need_equal_variable_counts():
    with pytest.raises(VariableMismatch):
        RatFun(Poly.const(1, 1), Poly.const(2, 1))


def test_ratfun_is_not_equal_to_an_integer():
    r = RatFun(Poly.const(1, 3), Poly.const(1, 1))
    assert (r == 3) is False
    assert r != 3


# ---------------------------------------------------------------------------
# fraction-free kernel


def kernel_checks(matrix, vec):
    assert len(vec) == len(matrix)
    assert any(vec)
    cols = len(matrix[0])
    for j in range(cols):
        acc = []
        for i, row in enumerate(matrix):
            acc = ip.add(acc, ip.mul(vec[i], row[j]))
        assert acc == []


def test_kernel_equal_rows():
    n = [0, 1]
    vec = fraction_free_left_kernel([[n], [n]])
    kernel_checks([[n], [n]], vec)
    assert vec[0] == ip.neg(vec[1])


def test_kernel_powers():
    matrix = [[[1]], [[0, 1]], [[0, 0, 1]]]
    kernel_checks(matrix, fraction_free_left_kernel(matrix))


def test_kernel_full_rank_rejected():
    with pytest.raises(NoKernel):
        fraction_free_left_kernel([[[1], []], [[], [1]]])


@pytest.mark.parametrize("matrix, error", [
    ([], NoKernel),
    ([[[1], [2]], [[1]]], VariableMismatch),
], ids=["empty", "ragged"])
def test_kernel_refuses_a_malformed_matrix(matrix, error):
    with pytest.raises(error):
        fraction_free_left_kernel(matrix)


@given(
    st.lists(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=1, max_size=3),
            min_size=2,
            max_size=2,
        ),
        min_size=3,
        max_size=4,
    )
)
def test_kernel_random_stacks(rows):
    matrix = [[ip.trim(entry) for entry in row] for row in rows]
    vec = fraction_free_left_kernel(matrix)
    kernel_checks(matrix, vec)
    # unit content: no common integer or polynomial factor across entries
    from math import gcd

    g = 0
    for v in vec:
        assert all(isinstance(c, int) for c in v)
        for c in v:
            g = gcd(g, c)
    assert g in (0, 1)


@st.composite
def dependent_polynomial_matrices(draw):
    """2-5 unknowns (rows) and 1-4 equations (columns) over Z[n], entries
    of degree <= 2, except one unknown: a combination of the earlier ones
    with multipliers of degree <= 1, so a kernel vector always exists."""
    nvars = draw(st.integers(2, 5))
    neqs = draw(st.integers(1, 4))
    entry = st.lists(st.integers(-3, 3), max_size=3).map(ip.trim)
    matrix = [[draw(entry) for _ in range(neqs)] for _ in range(nvars)]
    dep = draw(st.integers(1, nvars - 1))
    mults = [draw(st.lists(st.integers(-2, 2), max_size=2).map(ip.trim))
             for _ in range(dep)]
    matrix[dep] = [[] for _ in range(neqs)]
    for k in range(neqs):
        for i, m in enumerate(mults):
            matrix[dep][k] = ip.add(matrix[dep][k], ip.mul(m, matrix[i][k]))
    return matrix


@given(dependent_polynomial_matrices())
def test_polynomial_kernel_matches_gauss_jordan_at_points(matrix):
    # Over Q(n) the first dependent unknown j0 is at or before the built
    # one, so the unknowns before j0 are drawn rows and some j0-minor of
    # them (degree <= 2*4) is nonzero: it survives at one of 11 points,
    # where the specialised system has the same j0.  Elsewhere j0(t) <= j0.
    points = range(-5, 6)
    at = {t: oracles.canonical_left_kernel(
        [[ip.eval_at(x, t) for x in row] for row in matrix]) for t in points}
    last = {t: max(i for i, x in enumerate(w) if x) for t, w in at.items()}
    j0 = max(last.values())

    vec = fraction_free_left_kernel(matrix)
    kernel_checks(matrix, vec)
    assert vec[j0] and not any(vec[j0 + 1:])
    for t in points:
        if last[t] == j0:
            vt = [ip.eval_at(x, t) for x in vec]
            w = at[t]
            assert any(vt)
            assert all(a * w[j0] == b * vt[j0] for a, b in zip(vt, w))
    g = []
    for c in vec:
        if c:
            g = ip.gcd(g, c)
    assert g == [1]
    assert math.gcd(*(ip.content(c) for c in vec)) == 1
    assert next(c for c in vec if c)[-1] > 0


int_polys = st.lists(st.integers(-6, 6), max_size=5).map(ip.trim)


@given(st.lists(int_polys, max_size=6), int_polys)
def test_gcd_all_matches_a_left_fold_of_gcd(polys, factor):
    # a planted common factor makes nontrivial gcds common; zero and
    # constant entries come from the short draws
    if factor:
        polys = [ip.mul(p, factor) for p in polys]
    want: list[int] = []
    for p in polys:
        if p:
            want = ip.gcd(want, p)
    assert ip.gcd_all(polys) == want


nonconstant_polys = st.lists(st.integers(-4, 4), min_size=2,
                             max_size=3).filter(lambda f: f[-1] != 0)


@given(int_polys, int_polys,
       st.lists(st.tuples(nonconstant_polys, st.integers(1, 3)), max_size=2))
@example(a=[1, 2], b=[], planted=[([1, 1], 2)])
@example(a=[], b=[3, 0, -3], planted=[])
@example(a=[], b=[], planted=[])
def test_gcd_matches_euclid_over_the_rationals(a, b, planted):
    # planted common factors, repeated ones included; an empty operand on
    # either side is the other operand made primitive
    for f, k in planted:
        for _ in range(k):
            a, b = ip.mul(a, f), ip.mul(b, f)
    want = oracles.rational_poly_gcd(a, b)
    assert ip.gcd(a, b) == want
    assert ip.gcd(b, a) == want


def test_kernel_deterministic():
    n = [0, 1]
    matrix = [[[1, 1], n], [n, n], [[7], [0, 0, 1]]]
    first = fraction_free_left_kernel(matrix)
    second = fraction_free_left_kernel(matrix)
    assert first == second


# ---------------------------------------------------------------------------
# constant matrices: the modular pre-pass


def constant(matrix):
    """Integer matrix -> one-element (or empty) coefficient lists."""
    return [[[x] if x else [] for x in row] for row in matrix]


@st.composite
def low_rank_matrices(draw):
    """rows x cols integer matrices of rank < rows, entries up to about
    2^200 in size with mixed signs, as a product of two random factors."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 8))
    rank = draw(st.integers(0, min(rows - 1, cols)))
    big = st.integers(-(2**200), 2**200)
    small = st.integers(-3, 3)
    left = [[draw(st.one_of(big, small)) for _ in range(rank)]
            for _ in range(rows)]
    right = [[draw(st.one_of(big, small)) for _ in range(cols)]
             for _ in range(rank)]
    return [[sum(left[i][t] * right[t][k] for t in range(rank))
             for k in range(cols)] for i in range(rows)]


@given(low_rank_matrices())
def test_constant_kernel_matches_gauss_jordan(matrix):
    want = oracles.canonical_left_kernel(matrix)
    assert fraction_free_left_kernel(constant(matrix)) == constant([want])[0]


P61 = 2**61 - 1


def test_unlucky_prime_still_gives_the_exact_vector():
    # Equations x0 + x1 = 0, P·x1 + x2 = 0 and P·x0 - x2 + 5·x3 = 0 with
    # P = 2^61 - 1.  Mod P the x1 column equals the x0 column, so the
    # pre-pass stops at x1 with the first equation alone, whose kernel
    # vector (1, -1, 0, 0) fails the second; only the full elimination
    # finds j0 = 2.
    matrix = [[1, 0, P61],
              [1, P61, 0],
              [0, 1, -1],
              [0, 0, 5]]
    assert polynomials._pivot_equations_mod_p(
        [list(eq) for eq in zip(*constant(matrix))], 4) == [0]
    want = oracles.canonical_left_kernel(matrix)
    assert want == [1, -1, P61, 0]
    vec = fraction_free_left_kernel(constant(matrix))
    assert vec == constant([want])[0]
    kernel_checks(constant(matrix), vec)


def test_constant_kernel_eliminates_only_the_pivot_equations(monkeypatch):
    # 6 unknowns, 40 equations of rank 3: the exact elimination sees the 3
    # pivot equations the pre-pass picked, once, and never the full matrix.
    basis = [[3, -1, 4, 1, -5, 9], [2, 6, -5, 3, 5, -8], [9, 7, 9, -3, 2, 3]]
    matrix = [[sum((k + t + 1) ** t * basis[t][i] for t in range(3))
               for k in range(40)] for i in range(6)]
    sizes = []
    bareiss = polynomials._bareiss_kernel

    def spy(E, nvars):
        sizes.append(len(E))
        return bareiss(E, nvars)

    monkeypatch.setattr(polynomials, "_bareiss_kernel", spy)
    vec = fraction_free_left_kernel(constant(matrix))
    assert sizes == [3]
    assert vec == constant([oracles.canonical_left_kernel(matrix)])[0]


def test_constant_full_rank_rejected_after_the_pre_pass():
    with pytest.raises(NoKernel):
        fraction_free_left_kernel(constant([[1, 2, 0], [0, 1, 1], [5, 0, 1]]))


def test_constant_full_rank_raises_without_elimination(monkeypatch):
    # A pivot in every column mod 2^61 - 1 proves full rank over Q, so no
    # Bareiss run, on the pivot equations or on the full matrix, is needed.
    calls = []
    monkeypatch.setattr(polynomials, "_bareiss_kernel",
                        lambda E, nvars: calls.append(len(E)))
    matrix = [[k ** i + (i == k) for k in range(7)] for i in range(5)]
    with pytest.raises(NoKernel):
        fraction_free_left_kernel(constant(matrix))
    assert calls == []
