"""Acceptance gate: one end-to-end check per headline behavior.

Each test pins exact values (or explicit tolerances) and asserts a
wall-clock budget, so a slow regression fails as loudly as a wrong one.
Everything here is deterministic: randomized parts use fixed seeds.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

from gradeforge import (
    cli,
    expand_builtin,
    hadamard_mul,
    obstruction_report,
    optics_identity_check,
    zeta_odd_denominator_check,
)
from gradeforge.analytic import (
    ExpPolyRational,
    euler_branch_formula,
    euler_integral,
    rational_hadamard,
    tangent_series,
    zeta_tail_bound,
)
from gradeforge.automata import KernelBudgets, ResidueSequence, kernel_closure
from gradeforge.catalog import CORPUS_ANNIHILATORS, get_builtin
from gradeforge.descriptors import annihilator_from_json
from gradeforge.diagonals import (
    diagonal_extract,
    diagonal_witness,
    furstenberg_bivariate,
    product_witness,
)
from gradeforge.algebraic import branch_recurrence, expand_branch
from gradeforge.errors import DegenerateInput
from gradeforge.holonomic import (
    PRecurrence,
    UnderdeterminedRecurrence,
    hadamard_recurrence,
    unroll,
)
from gradeforge.series import TruncSeries

from oracles import (
    branch_prefix,
    catalan_numbers,
    catalan_numbers_fast,
    central_binomials,
    corpus_residues,
)


def _within(budget: float, t0: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget:.0f}s"


# -- 1. termwise products of simple-pole sequences ----------------------------

def test_simple_pole_product_law():
    """1/(2-z) x 1/(3-z) = 1/(6-z); output poles always divide into products."""
    t0 = time.perf_counter()

    f = ExpPolyRational.simple_pole(2)
    g = ExpPolyRational.simple_pole(3)
    h = rational_hadamard(f, g)
    assert h == ExpPolyRational.simple_pole(6)
    assert h.expand(32).coeffs == tuple(
        Fraction(1, 6 ** (n + 1)) for n in range(32)
    )

    rng = random.Random(0xACC1)
    for _ in range(50):
        def draw():
            poles = set()
            while len(poles) < rng.randint(1, 3):
                alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if alpha != 0:
                    poles.add(alpha)
            return ExpPolyRational(tuple(
                (alpha, 1, (rng.choice([-3, -2, -1, 1, 2, 3]),))
                for alpha in poles
            ))

        a, b = draw(), draw()
        prod = rational_hadamard(a, b)
        allowed = {pa * pb for pa in a.poles for pb in b.poles}
        assert set(prod.poles) <= allowed
        # and the form really is the termwise product
        pa, pb, pc = a.expand(12), b.expand(12), prod.expand(12)
        assert pc == hadamard_mul(pa, pb)

    _within(1.0, t0)


# -- 2. the exponential-integral value at 1 -----------------------------------

def test_euler_value_two_ways():
    """Quadrature and the branch formula both give 0.5963 at z = 1."""
    t0 = time.perf_counter()
    by_quadrature = euler_integral(1.0)
    by_branch = euler_branch_formula(1.0)
    assert f"{by_quadrature:.4f}" == "0.5963"
    assert f"{by_branch:.4f}" == "0.5963"
    assert abs(by_quadrature - by_branch) < 1e-8
    _within(1.0, t0)


# -- 3. euler x exp collapses to 1/(1+z) --------------------------------------

def test_euler_times_exp_is_alternating_geometric():
    t0 = time.perf_counter()
    prod = hadamard_mul(expand_builtin("euler", 64), expand_builtin("exp", 64))
    assert prod.coeffs == tuple(Fraction((-1) ** n) for n in range(64))
    _within(1.0, t0)


# -- 4. plate-stack identity and odd zeta values ------------------------------

def test_optics_identity_and_zeta_values():
    t0 = time.perf_counter()

    tangent = tangent_series(21)
    stacks = [
        ((1, 3),),
        ((1, 2), (-2, 5), (Fraction(3, 7), 3)),
    ]
    for plates in stacks:
        for order in (1, 5, 9, 13, 17, 21):
            gap = optics_identity_check(plates, tangent, order)
            assert isinstance(gap, Fraction) and gap == 0

    closed_forms = [math.pi**2 / 8, math.pi**4 / 96, math.pi**6 / 960]
    for j, reference in enumerate(closed_forms):
        chk = zeta_odd_denominator_check(j, cutoff=10**6)
        assert math.isclose(chk.rhs, reference, rel_tol=1e-12)
        # Float summation noise dominates the integral tail bound for
        # j >= 1, so the agreement requirement is the larger of the two.
        assert chk.discrepancy <= max(zeta_tail_bound(j, 10**6), 1e-9)

    _within(10.0, t0)


# -- 5. recurrence-level squaring of the central binomials --------------------

def test_squared_recurrence_unrolls_to_squared_central_binomials():
    t0 = time.perf_counter()
    rec = branch_recurrence(get_builtin("central-binomial"))
    squared = hadamard_recurrence(rec, rec)
    got = unroll(squared, 200).coeffs
    assert got[:5] == (1, 4, 36, 400, 4900)
    assert got == tuple(math.comb(2 * n, n) ** 2 for n in range(200))
    _within(5.0, t0)


def test_long_algebraic_expansion_unrolls_its_derived_recurrence(capsys):
    # Newton over Q took about 40 s here; the derived recurrence unrolls it.
    catalan = '{"P": [[1, 2, "1"], [0, 1, "-1"], [0, 0, "1"]], "y0": "1"}'
    t0 = time.perf_counter()
    rc = cli.main(["expand", "algebraic", catalan, "--terms", "4096",
                   "--json"])
    coeffs = json.loads(capsys.readouterr().out)["coeffs"]
    _within(1.0, t0)
    assert rc == 0
    assert coeffs == [str(c) for c in catalan_numbers_fast(4096)]


# -- 6. bivariate witnesses and their products --------------------------------

def test_bivariate_witness_roundtrip_and_product():
    t0 = time.perf_counter()

    shifted = CORPUS_ANNIHILATORS["catalan-shifted"]
    rat = furstenberg_bivariate(shifted)
    assert diagonal_extract(rat, 10) == expand_branch(shifted, 10)

    witness = diagonal_witness(CORPUS_ANNIHILATORS["central-binomial"], 8)
    square = product_witness([witness, witness])
    cb = expand_builtin("central-binomial", 8)
    assert square.diagonal(8) == hadamard_mul(cb, cb)

    # four-variable squares at order 12, the size of the CLI's
    # `diagonal --square --order 12`
    for name, oracle in (("catalan", catalan_numbers),
                         ("central-binomial", central_binomials)):
        witness = diagonal_witness(CORPUS_ANNIHILATORS[name], 12)
        square = product_witness([witness, witness])
        assert list(square.diagonal(12).coeffs) == [
            c * c for c in oracle(12)], name

    _within(30.0, t0)


def test_square_runs_to_its_factors_extraction_cap(capsys):
    # the square is the Hadamard product of its checked factor, so it runs
    # as far as the 2-variable extraction does: order 500 for catalan
    t0 = time.perf_counter()
    rc = cli.main(["diagonal", "builtin", "catalan", "--square",
                   "--order", "500", "--json"])
    diagonal = json.loads(capsys.readouterr().out)["diagonal"]
    _within(2.0, t0)
    assert rc == 0
    assert diagonal == [str(c * c) for c in catalan_numbers_fast(500)]


# A branch with deg_y P = 5 and deg_z P = 2.  Its witness is checked against
# P itself; deriving the branch's recurrence for the check took 3.6 s
# (Python 3.11, 2 vCPUs of a shared VM).
_P52 = {"P": [[0, 1, "1"], [0, 2, "3"], [0, 3, "3"], [0, 4, "3"],
              [0, 5, "-3"], [1, 0, "-1"], [1, 1, "-3"], [1, 3, "3"],
              [2, 0, "2"], [2, 2, "3"], [2, 3, "-2"], [2, 4, "-3"],
              [2, 5, "1"]], "y0": "0"}


def test_witness_of_a_degree_five_branch_needs_no_recurrence():
    ann = annihilator_from_json(_P52)
    t0 = time.perf_counter()
    witness = diagonal_witness(ann, 10)
    _within(1.0, t0)
    expected = branch_prefix({(a, b): c for a, b, c in _P52["P"]}, 0, 10)
    assert expected == [0, 1, -2, 3, -12, 68, -375, 1910, -9777, 52478]
    assert list(witness.diagonal(10).coeffs) == expected


# -- 7. obstruction verdicts on the builtin catalog ---------------------------

def test_obstruction_verdicts():
    t0 = time.perf_counter()

    for name in ("exp", "log1p", "euler", "thue-morse-signs"):
        report = obstruction_report(expand_builtin(name, 64))
        assert report.verdict == "infinite-grade-evidence", name

    for name in ("geometric", "central-binomial"):
        report = obstruction_report(expand_builtin(name, 64))
        assert report.verdict == "no-obstruction-found", name

    cb = expand_builtin("central-binomial", 64)
    report = obstruction_report(hadamard_mul(cb, cb))
    assert report.verdict == "no-obstruction-found"

    _within(5.0, t0)


# -- 8. kernel closure for the binomial pair ----------------------------------

def test_kernel_closure_closes_and_is_length_stable():
    """Both sequences close mod p in {2,3,5} and mod p^2 for p in {2,3},
    with the same state count at fingerprint length 64 and 128."""
    t0 = time.perf_counter()

    depth = {(2, 1): 8, (3, 1): 5, (5, 1): 4, (2, 2): 8, (3, 2): 7}
    for name in ("central-binomial", "catalan"):
        for (p, r), k in depth.items():
            counts = {}
            for length in (64, 128):
                terms = corpus_residues(name, length * p**k, p, r)
                seq = ResidueSequence(p**r, tuple(terms))
                aut = kernel_closure(seq, p, KernelBudgets(4096, k, length))
                assert aut.status == "closed", (name, p, r, length)
                counts[length] = len(aut.states)
            assert counts[64] == counts[128], (name, p, r, counts)

    _within(60.0, t0)


# -- 9. algebraic property suites ---------------------------------------------

def _random_series(rng: random.Random, order: int) -> TruncSeries:
    return TruncSeries(tuple(
        Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(order)
    ))


def _random_recurrence(rng: random.Random, order: int) -> PRecurrence:
    lead_choices = [[1], [2], [1, 1], [2, 1], [1, 0, 1], [3, 0, 1]]
    while True:
        coeffs = [
            [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            for _ in range(order)
        ]
        coeffs.append(rng.choice(lead_choices))
        if all(all(c == 0 for c in row) for row in coeffs[:-1]):
            continue
        init = [Fraction(rng.randint(-4, 4)) for _ in range(order)]
        if all(x == 0 for x in init):
            continue
        try:
            rec = PRecurrence.from_dense(coeffs, 0, init)
        except (ValueError, UnderdeterminedRecurrence):
            continue
        if all(x == 0 for x in unroll(rec, rec.n0 + rec.order).coeffs):
            continue
        return rec


def test_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(0xACC9)

    # termwise multiplication is commutative, associative, and has the
    # all-ones sequence as identity
    ones = TruncSeries((Fraction(1),) * 16)
    for _ in range(100):
        a, b, c = (_random_series(rng, 16) for _ in range(3))
        assert hadamard_mul(a, b) == hadamard_mul(b, a)
        ab_c = hadamard_mul(hadamard_mul(a, b), c)
        a_bc = hadamard_mul(a, hadamard_mul(b, c))
        assert ab_c == a_bc
        assert hadamard_mul(a, ones) == a

    # an even sequence times an odd sequence vanishes
    for _ in range(20):
        even = TruncSeries(tuple(
            _random_series(rng, 16).coeffs[n] if n % 2 == 0 else Fraction(0)
            for n in range(16)
        ))
        odd = TruncSeries(tuple(
            _random_series(rng, 16).coeffs[n] if n % 2 == 1 else Fraction(0)
            for n in range(16)
        ))
        assert all(x == 0 for x in hadamard_mul(even, odd).coeffs)

    # recurrence-level products agree with termwise products of unrolls
    pairs = 0
    while pairs < 20:
        ra = _random_recurrence(rng, rng.randint(1, 2))
        rb = _random_recurrence(rng, rng.randint(1, 2))
        try:
            prod = hadamard_recurrence(ra, rb)
        except DegenerateInput:
            continue
        assert unroll(prod, 60) == hadamard_mul(unroll(ra, 60), unroll(rb, 60))
        pairs += 1

    # kernel states report honest fingerprints, and every transition
    # lands on the state of the corresponding subsequence
    for name, p, r, k in (("catalan", 2, 1, 8), ("central-binomial", 3, 1, 5)):
        length = 64
        terms = corpus_residues(name, length * p**k, p, r)
        aut = kernel_closure(
            ResidueSequence(p**r, tuple(terms)), p, KernelBudgets(4096, k, length)
        )
        assert aut.status == "closed"
        for st in aut.states:
            step = p**st.k
            assert st.fingerprint == tuple(terms[st.j :: step][:length])
            for d, tid in enumerate(st.transitions):
                child = tuple(terms[st.j + d * step :: p * step][:length])
                assert aut.states[tid].fingerprint[: len(child)] == child

    _within(60.0, t0)
