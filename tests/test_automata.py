"""Kernel closure over base-q arithmetic subsequences, mod prime powers."""

import json
import random
from fractions import Fraction

import pytest

from gradeforge import (
    KernelBudgets,
    algebraic,
    automata,
    christol_report,
    expand_branch,
    expand_builtin,
    kernel_closure,
    reduce_mod,
)
from gradeforge.algebraic import Annihilator, branch_recurrence
from gradeforge.automata import ResidueSequence, automaton_dot
from gradeforge.catalog import CORPUS_ANNIHILATORS
from gradeforge.errors import (
    BudgetExceeded,
    BudgetTooSmall,
    PrimeDividesDenominator,
    SchemaError,
)
from gradeforge.holonomic import unroll, unroll_stream
from gradeforge.polynomials import Poly

from oracles import corpus_residues, thue_morse_signs


def close(terms, q, *, states=4096, depth=8, length=64):
    seq = ResidueSequence(max(terms) + 1 if max(terms) >= q else q,
                          tuple(terms))
    budgets = KernelBudgets(max_states=states, max_depth=depth,
                            fingerprint_length=length)
    return kernel_closure(seq, q, budgets)


def close_corpus(name, q, r, depth, *, length=64, states=4096):
    terms = corpus_residues(name, length * q**depth, q, r)
    budgets = KernelBudgets(max_states=states, max_depth=depth,
                            fingerprint_length=length)
    return kernel_closure(ResidueSequence(q**r, tuple(terms)), q, budgets)


# ---------------------------------------------------------------------------
# reduce_mod


def test_reduce_mod_central_binomial_mod_two():
    f = expand_builtin("central-binomial", 32)
    seq = reduce_mod(f, 2)
    assert seq.modulus == 2
    assert seq.terms == (1,) + (0,) * 31  # all later terms are even
    assert len(seq.terms) == 32


def test_reduce_mod_matches_modular_oracle():
    f = expand_builtin("catalan", 200)
    for p, r in [(2, 1), (3, 2), (5, 1), (7, 2)]:
        seq = reduce_mod(f, p, r)
        assert list(seq.terms) == corpus_residues("catalan", 200, p, r)
        assert seq.modulus == p**r


def test_reduce_mod_inverts_denominators():
    # sqrt1p's denominators are powers of 2
    f = expand_branch(CORPUS_ANNIHILATORS["sqrt1p"], 20)
    seq = reduce_mod(f, 3)
    # a_1 = 1/2, and 2^-1 = 2 mod 3, so the residue is 2*1 = 2
    assert seq.terms[0] == 1
    assert seq.terms[1] == 2


def test_reduce_mod_rejects_denominator_divisible_by_p():
    f = expand_builtin("exp", 12)
    with pytest.raises(PrimeDividesDenominator) as info:
        reduce_mod(f, 5)
    assert info.value.p == 5
    assert info.value.index == 5  # 1/5! is the first 5-adic failure


def test_reduce_mod_rejects_composite_base():
    f = expand_builtin("geometric", 8)
    with pytest.raises(ValueError):
        reduce_mod(f, 6)
    with pytest.raises(ValueError):
        reduce_mod(f, 1)


def test_reduce_mod_rejects_nonpositive_exponent():
    f = expand_builtin("geometric", 8)
    with pytest.raises(ValueError):
        reduce_mod(f, 3, 0)


def test_residue_sequence_validates_terms():
    with pytest.raises(ValueError):
        ResidueSequence(2, (0, 1, 2))
    with pytest.raises(ValueError):
        ResidueSequence(3, (-1,))
    for terms in [(0, 1, 2), (-1, 0), (2, 0, 1, 0)]:
        with pytest.raises(SchemaError, match=r"^every term must lie in "
                           r"\[0, modulus\)$"):
            ResidueSequence(2, terms)
    assert ResidueSequence(2, ()).terms == ()
    with pytest.raises(ValueError):
        ResidueSequence(1, (0,))


# ---------------------------------------------------------------------------
# kernel_closure on hand-checkable sequences


def test_periodic_sequence_closes():
    aut = close([0, 1] * 128, 2, depth=3, length=16)
    assert aut.status == "closed"
    assert len(aut.states) == 3
    # root, then the two constant subsequences at stride 2
    assert [(s.k, s.j) for s in aut.states] == [(0, 0), (1, 0), (1, 1)]


def test_sign_flip_fixed_point_closes_to_two_states():
    # the 0/1 form of the sign sequence fixed by s -> s, -s doubling
    bits = [(1 - s) // 2 for s in thue_morse_signs(512)]
    aut = close(bits, 2, depth=3)
    assert aut.status == "closed"
    assert len(aut.states) == 2
    # even positions reproduce the sequence, odd positions flip it,
    # and both children of the flipped copy merge back
    assert aut.states[0].transitions == (0, 1)
    assert aut.states[1].transitions == (1, 0)
    assert aut.states[0].fingerprint[:4] == (0, 1, 1, 0)
    assert aut.states[1].fingerprint[:4] == (1, 0, 0, 1)


def test_constant_sequence_is_a_single_state():
    aut = close([1] * 256, 2, depth=3, length=16)
    assert aut.status == "closed"
    assert len(aut.states) == 1
    assert aut.states[0].transitions == (0, 0)


def test_budget_too_small_raises():
    seq = ResidueSequence(2, tuple([0, 1] * 50))
    with pytest.raises(BudgetTooSmall) as info:
        kernel_closure(seq, 2, KernelBudgets(64, 3, 64))
    assert "100" in str(info.value)
    assert "512" in str(info.value)  # 64 * 2^3


def test_state_budget_exhaustion_is_reported():
    terms = corpus_residues("central-binomial", 64 * 27, 3, 1)
    seq = ResidueSequence(3, tuple(terms))
    aut = kernel_closure(seq, 3, KernelBudgets(2, 3, 64))
    assert aut.status == "exhausted-budget"
    assert len(aut.states) == 2


def test_depth_budget_can_leave_closure_truncation_limited():
    # catalan mod 2 needs depth 8 to witness all merges; at depth 2 the
    # frontier is matched only by prefix
    aut = close_corpus("catalan", 2, 1, 2)
    assert aut.status == "truncation-limited"
    assert len(aut.states) == 3


# ---------------------------------------------------------------------------
# semantics of a closed automaton


def walk(aut, n):
    """Follow base-q digits of n, least significant first."""
    sid = 0
    while n:
        n, d = divmod(n, aut.q)
        sid = aut.states[sid].transitions[d]
    return aut.states[sid].fingerprint[0]


def test_closed_automaton_predicts_terms_by_digit_walk():
    terms = corpus_residues("central-binomial", 64 * 3**5, 3, 1)
    aut = close(terms, 3, depth=5)
    assert aut.status == "closed"
    assert len(aut.states) == 3
    assert all(walk(aut, n) == terms[n] for n in range(2000))


def test_closed_automaton_predicts_prime_square_residues():
    terms = corpus_residues("catalan", 64 * 2**8, 2, 2)
    seq = ResidueSequence(4, tuple(terms))
    aut = kernel_closure(seq, 2, KernelBudgets(4096, 8, 64))
    assert aut.status == "closed"
    assert all(walk(aut, n) == terms[n] for n in range(4096))


def test_closure_is_deterministic():
    terms = corpus_residues("catalan", 64 * 3**5, 3, 2)
    seq = ResidueSequence(9, tuple(terms))
    budgets = KernelBudgets(4096, 5, 64)
    a = kernel_closure(seq, 3, budgets)
    b = kernel_closure(seq, 3, budgets)
    assert a.to_json_dict() == b.to_json_dict()


def test_states_are_arithmetic_subsequences_with_distinct_fingerprints():
    terms = corpus_residues("catalan", 64 * 2**8, 2, 1)
    aut = close(terms, 2)
    assert aut.status == "closed"
    L = aut.fingerprint_length
    seen = set()
    for st in aut.states:
        assert st.fingerprint == tuple(terms[st.j :: 2**st.k][:L])
        assert st.fingerprint not in seen
        seen.add(st.fingerprint)


def test_transitions_land_on_matching_fingerprints():
    # s_{(k, j)} --d--> t  must mean  t's fingerprint is that of the
    # subsequence n -> a_{q^(k+1) n + j + d q^k}
    terms = corpus_residues("central-binomial", 64 * 3**7, 3, 2)
    aut = close(terms, 3, depth=7)
    assert aut.status == "closed"
    L = aut.fingerprint_length
    for st in aut.states:
        step = 3**st.k
        for d, tid in enumerate(st.transitions):
            child = tuple(terms[st.j + d * step :: 3 * step][:L])
            assert aut.states[tid].fingerprint[: len(child)] == child


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_state_count_monotone_in_fingerprint_length(seed):
    rng = random.Random(seed)
    terms = [rng.randrange(2) for _ in range(1024)]
    counts = []
    for length in (4, 8, 16):
        aut = close(terms, 2, depth=4, length=length)
        counts.append(len(aut.states))
    assert counts == sorted(counts)  # longer fingerprints merge less


# ---------------------------------------------------------------------------
# serialization


def test_automaton_json_dict_shape():
    aut = close([0, 1] * 128, 2, depth=3, length=16)
    d = aut.to_json_dict()
    assert d["q"] == 2
    assert d["modulus"] == 2
    assert d["status"] == "closed"
    assert d["truncation"] == 256
    assert [s["id"] for s in d["states"]] == [0, 1, 2]
    for s in d["states"]:
        assert len(s["transitions"]) == 2
        assert len(s["fingerprint_hash"]) == 16
        int(s["fingerprint_hash"], 16)  # hex
    json.dumps(d)  # round-trippable


def dot(aut):
    return automaton_dot(aut.to_json_dict())


def test_dot_output_marks_unresolved_transitions():
    closed = close([1] * 256, 2, depth=3, length=16)
    assert "digraph" in dot(closed)
    assert "dashed" not in dot(closed)

    limited = close_corpus("catalan", 2, 1, 2)
    assert limited.status == "truncation-limited"
    assert dot(limited).count("shape=plaintext") == sum(
        t is None for s in limited.states for t in s.transitions
    )


# ---------------------------------------------------------------------------
# the full pipeline: annihilator -> branch -> residues -> closure


def test_pipeline_report_catalan_mod_two():
    aut = christol_report(CORPUS_ANNIHILATORS["catalan"], 2, 1,
                          budgets=KernelBudgets(4096, 5, 64))
    assert aut.q == 2  # defaults to p
    assert aut.modulus == 2
    assert aut.status == "closed"
    assert len(aut.states) == 3


def test_pipeline_report_central_binomial_mod_three():
    aut = christol_report(CORPUS_ANNIHILATORS["central-binomial"], 3, 1,
                          budgets=KernelBudgets(4096, 3, 64))
    assert aut.status == "closed"
    assert len(aut.states) == 3


def test_pipeline_report_default_budgets_close_geometric():
    aut = christol_report(CORPUS_ANNIHILATORS["geometric"], 5)
    assert aut.status == "closed"
    assert len(aut.states) == 1


def test_pipeline_report_needs_a_depth_budget():
    with pytest.raises(BudgetTooSmall):
        christol_report(CORPUS_ANNIHILATORS["catalan"], 2, 1,
                        budgets=KernelBudgets(4096, 0, 64))


def test_pipeline_report_bad_prime_raises():
    # sqrt1p has powers of 2 in its denominators
    with pytest.raises(PrimeDividesDenominator):
        christol_report(CORPUS_ANNIHILATORS["sqrt1p"], 2, 1,
                        budgets=KernelBudgets(4096, 5, 64))


@pytest.mark.parametrize("q", [1, 0, -2])
def test_pipeline_report_refuses_a_base_below_two(q):
    # the default depth rule takes log2(q), so it must check q first
    with pytest.raises(SchemaError) as info:
        christol_report(CORPUS_ANNIHILATORS["catalan"], 2, q=q)
    assert info.value.exit_code == 2


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("name", ["catalan", "central-binomial"])
def test_pipeline_report_refuses_a_base_below_two_before_any_residue(
        monkeypatch, name, q):
    drawn = []

    def spy(*args):
        drawn.append(args)
        raise AssertionError("residues drawn before the base was checked")

    for path in ("branch_residue_prefixes", "branch_recurrence",
                 "unroll_stream"):
        monkeypatch.setattr(automata, path, spy)
    with pytest.raises(SchemaError, match=f"base q must be at least 2, got {q}"):
        christol_report(CORPUS_ANNIHILATORS[name], 2, q=q,
                        budgets=KernelBudgets(4096, 3, 64))
    assert drawn == []


# ---------------------------------------------------------------------------
# the corpus closes at every good prime


#: prime powers p^r whose denominators collide with a corpus member
BAD_PRIME = {"sqrt1p": 2, "cbrt1m": 3}

#: closure depth needed per (q, r), found by doubling until closed
DEPTH = {(2, 1): 8, (2, 2): 8, (3, 1): 5, (3, 2): 7, (5, 1): 4, (7, 1): 4}

#: state counts, frozen once observed stable under budget increases
EXPECTED_STATES = {
    ("catalan", 2, 1): 3,
    ("catalan-shifted", 2, 1): 3,
    ("central-binomial", 2, 1): 2,
    ("geometric", 2, 1): 1,
    ("cbrt1m", 2, 1): 4,
    ("catalan", 2, 2): 4,
    ("catalan-shifted", 2, 2): 4,
    ("central-binomial", 2, 2): 3,
    ("geometric", 2, 2): 1,
    ("cbrt1m", 2, 2): 10,
    ("catalan", 3, 1): 5,
    ("catalan-shifted", 3, 1): 5,
    ("central-binomial", 3, 1): 3,
    ("geometric", 3, 1): 1,
    ("sqrt1p", 3, 1): 4,
    ("catalan", 3, 2): 21,
    ("catalan-shifted", 3, 2): 21,
    ("central-binomial", 3, 2): 17,
    ("geometric", 3, 2): 1,
    ("sqrt1p", 3, 2): 20,
    ("catalan", 5, 1): 7,
    ("catalan-shifted", 5, 1): 7,
    ("central-binomial", 5, 1): 5,
    ("geometric", 5, 1): 1,
    ("sqrt1p", 5, 1): 6,
    ("cbrt1m", 5, 1): 10,
    ("catalan", 7, 1): 9,
    ("catalan-shifted", 7, 1): 9,
    ("central-binomial", 7, 1): 7,
    ("geometric", 7, 1): 1,
    ("sqrt1p", 7, 1): 8,
    ("cbrt1m", 7, 1): 8,
}


@pytest.mark.parametrize("name,q,r",
                         sorted(EXPECTED_STATES),
                         ids=lambda v: str(v))
def test_corpus_closes_at_good_primes(name, q, r):
    assert BAD_PRIME.get(name) != q
    aut = close_corpus(name, q, r, DEPTH[(q, r)])
    assert aut.status == "closed"
    assert len(aut.states) == EXPECTED_STATES[(name, q, r)]


def test_deep_prime_square_closures():
    # mod 25 and mod 49 need millions of terms before the kernel stabilizes
    deep = [
        ("catalan", 5, 2, 6, 74),
        ("sqrt1p", 5, 2, 7, 72),
        ("cbrt1m", 5, 2, 7, 139),
        ("catalan", 7, 2, 6, 104),
        ("cbrt1m", 7, 2, 6, 144),
    ]
    for name, q, r, depth, states in deep:
        aut = close_corpus(name, q, r, depth)
        assert aut.status == "closed", (name, q, r)
        assert len(aut.states) == states, (name, q, r)


def test_central_binomial_kernel_grows_past_desk_budgets_mod_25():
    # a regression sentinel: the mod-5^2 kernel is still spawning new
    # fingerprints at depth 5, unlike every mod-p and mod-{4,9} case
    aut = close_corpus("central-binomial", 5, 2, 5)
    assert aut.status == "exhausted-budget"


# ---------------------------------------------------------------------------
# which expansion path the pipeline takes


def _no_exact_expansion(*args):
    raise AssertionError("christol_report expanded the branch exactly")


@pytest.mark.parametrize("name, p, r", [
    ("catalan", 2, 1),
    ("catalan", 2, 2),
    ("central-binomial", 3, 1),
    ("sqrt1p", 3, 1),
])
def test_pipeline_takes_the_residue_path_at_unit_primes(monkeypatch, name,
                                                        p, r):
    # the exact path derives the branch's recurrence and unrolls it
    monkeypatch.setattr(automata, "branch_recurrence", _no_exact_expansion)
    monkeypatch.setattr(automata, "unroll_stream", _no_exact_expansion)
    aut = christol_report(CORPUS_ANNIHILATORS[name], p, r)
    assert aut.status == "closed"
    assert len(aut.states) == EXPECTED_STATES[(name, p, r)]
    depth = 1
    while aut.fingerprint_length * p**depth < aut.truncation:
        depth += 1
    oracle = close_corpus(name, p, r, depth, length=aut.fingerprint_length)
    assert aut.to_json_dict() == oracle.to_json_dict()


def test_pipeline_falls_back_to_the_exact_path_when_p_divides_p_y(
        monkeypatch):
    # central-binomial has P_y(0, 1) = 2
    calls = []

    def counted(rec):
        calls.append(rec)
        return unroll_stream(rec)

    monkeypatch.setattr(automata, "unroll_stream", counted)
    aut = christol_report(CORPUS_ANNIHILATORS["central-binomial"], 2)
    assert calls
    assert len(calls) == 1  # one unrolling extended across the attempts
    assert aut.status == "closed"
    assert len(aut.states) == EXPECTED_STATES[("central-binomial", 2, 1)]


@pytest.mark.parametrize("name, p, r, budgets", [
    ("catalan", 2, 1, None),
    ("central-binomial", 3, 2, None),              # exhausts every depth
    ("sqrt1p", 5, 1, KernelBudgets(4096, 4, 7)),
    ("central-binomial", 2, 1, None),              # the exact fallback
])
def test_pipeline_reaches_no_newton_target_twice(monkeypatch, name, p, r,
                                                 budgets):
    ann = CORPUS_ANNIHILATORS[name]
    starts, derivations, attempts = [], [], []
    targets: dict[int, list[int]] = {}
    newton = algebraic._newton_prefixes
    evaluate = algebraic._eval_poly_at_series
    derive = automata.branch_recurrence
    closure = automata.kernel_closure

    def spy_newton(*args):
        starts.append(args)
        return newton(*args)

    def spy_evaluate(coeff_lists, f, limit, *rest):
        # P and P_y differ in their number of y-coefficients
        targets.setdefault(len(coeff_lists), []).append(limit)
        return evaluate(coeff_lists, f, limit, *rest)

    def spy_derive(a):
        derivations.append(a)
        return derive(a)

    def spy_closure(seq, q, attempt):
        attempts.append(len(seq.terms))
        return closure(seq, q, attempt)

    monkeypatch.setattr(algebraic, "_newton_prefixes", spy_newton)
    monkeypatch.setattr(algebraic, "_eval_poly_at_series", spy_evaluate)
    monkeypatch.setattr(automata, "branch_recurrence", spy_derive)
    monkeypatch.setattr(automata, "kernel_closure", spy_closure)
    aut = christol_report(ann, p, r, budgets=budgets)
    assert len(attempts) > 1
    assert attempts == sorted(set(attempts))
    assert aut.truncation == attempts[-1]
    assert len(starts) == 1
    for limits in targets.values():
        assert limits == sorted(set(limits))
    if (name, p) == ("central-binomial", 2):
        assert derivations == [ann]
    else:
        assert not derivations
        assert targets[ann.poly.degree_in(1) + 1][-1] == attempts[-1]


#: 2y + 2z + 2zy + 2zy^2 + 5z^2 at y0 = 0: P_y(0, 0) = 2, and 2 first
#: divides a coefficient's denominator at index 3
LATE_BAD_PRIME = Annihilator(
    Poly(2, {(0, 1): 2, (1, 0): 2, (1, 1): 2, (1, 2): 2, (2, 0): 5}),
    Fraction(0))


@pytest.mark.parametrize("name, p, r", [
    ("central-binomial", 2, 1),    # integer terms
    ("central-binomial", 2, 2),
    ("sqrt1p", 3, 2),              # running denominators 2^k
    ("cbrt1m", 5, 1),              # running denominators 3^k
])
def test_exact_fallback_reduces_as_reduce_mod(name, p, r):
    rec = branch_recurrence(CORPUS_ANNIHILATORS[name])
    sizes = [1, 7, 7, 64, 300]
    assert list(automata._exact_prefixes(rec, sizes, p, r)) == [
        list(reduce_mod(unroll(rec, n), p, r).terms) for n in sizes]


@pytest.mark.parametrize("ann, p", [
    (CORPUS_ANNIHILATORS["sqrt1p"], 2),
    (CORPUS_ANNIHILATORS["cbrt1m"], 3),
    (LATE_BAD_PRIME, 2),
], ids=["sqrt1p", "cbrt1m", "late"])
def test_exact_fallback_names_the_index_reduce_mod_names(ann, p):
    rec = branch_recurrence(ann)
    with pytest.raises(PrimeDividesDenominator) as want:
        reduce_mod(unroll(rec, 64), p)
    index = want.value.index
    prefixes = automata._exact_prefixes(rec, [index, 64], p, 1)
    assert len(next(prefixes)) == index  # the terms before it reduce
    with pytest.raises(PrimeDividesDenominator) as got:
        next(prefixes)
    assert got.value.index == index
    assert (index > 1) == (ann is LATE_BAD_PRIME)


@pytest.mark.parametrize("name, p, r, cap, depths", [
    ("central-binomial", 3, 2, 600, 2),   # residue path, 192 and 576 terms
    ("central-binomial", 2, 1, 200, 1),   # exact fallback, 128 terms
])
def test_pipeline_report_caps_the_depth_at_the_term_cap(monkeypatch, name, p,
                                                        r, cap, depths):
    assert automata.CHRISTOL_MAX_TERMS >= 16 * 7**5  # the deepest documented
    ann = CORPUS_ANNIHILATORS[name]
    want = christol_report(ann, p, r, budgets=KernelBudgets(4096, depths, 64))
    attempts = []
    closure = automata.kernel_closure

    def spy_closure(seq, q, attempt):
        attempts.append(len(seq.terms))
        return closure(seq, q, attempt)

    monkeypatch.setattr(automata, "CHRISTOL_MAX_TERMS", cap)
    monkeypatch.setattr(automata, "kernel_closure", spy_closure)
    aut = christol_report(ann, p, r, budgets=KernelBudgets(4096, 8, 64))
    assert attempts == [64 * p**k for k in range(1, depths + 1)]
    assert aut.to_json_dict() == want.to_json_dict()
    assert aut.status != "closed"


def test_pipeline_report_past_the_term_cap_raises_before_any_residue(
        monkeypatch):
    drawn = []

    def spy(*args):
        drawn.append(args)
        raise AssertionError("residues drawn past the term cap")

    for path in ("branch_residue_prefixes", "branch_recurrence"):
        monkeypatch.setattr(automata, path, spy)
    length = automata.CHRISTOL_MAX_TERMS // 2 + 1
    with pytest.raises(BudgetExceeded) as info:
        christol_report(CORPUS_ANNIHILATORS["catalan"], 2,
                        budgets=KernelBudgets(4096, 3, length))
    assert info.value.exit_code == 4
    assert str(automata.CHRISTOL_MAX_TERMS) in str(info.value)
    assert str(2 * length) in str(info.value)
    assert drawn == []


def test_pipeline_bad_prime_raises_on_the_exact_path():
    # cbrt1m has P_y(0, 1) = 3 and powers of 3 in its denominators
    with pytest.raises(PrimeDividesDenominator):
        christol_report(CORPUS_ANNIHILATORS["cbrt1m"], 3, 1,
                        budgets=KernelBudgets(4096, 3, 64))


def test_pipeline_rejects_a_composite_modulus():
    # the residue path alone would run mod 4^r; the pipeline is mod p^r
    with pytest.raises(ValueError):
        christol_report(CORPUS_ANNIHILATORS["catalan"], 4, 1,
                        budgets=KernelBudgets(4096, 3, 64))


@pytest.mark.parametrize("call, message", [
    (lambda: KernelBudgets(0, 3, 64), "budgets must be positive"),
    (lambda: KernelBudgets(4096, -1, 64), "budgets must be positive"),
    (lambda: KernelBudgets(4096, 3, 0), "fingerprint length must be positive"),
    (lambda: kernel_closure(ResidueSequence(2, (1, 0) * 32), 1,
                            KernelBudgets(4096, 3, 4)), "base q"),
], ids=["states 0", "depth -1", "fingerprint 0", "q = 1"])
def test_kernel_entries_refuse_arguments_below_their_range(call, message):
    with pytest.raises(SchemaError, match=message):
        call()
