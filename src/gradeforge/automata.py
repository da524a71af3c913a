"""Residue sequences mod p^r and the q-kernel automaton.

`reduce_mod` maps an exact rational series onto Z/p^r (refusing primes that
divide any coefficient denominator — those are the finitely many bad primes
a rational-coefficient series excludes).  `kernel_closure` then explores the
set of arithmetic-progression subsequences n -> a_{q^k n + j}, merging two
of them whenever their first-L-term fingerprints agree.  A finite closure is
the desk-scale face of automaticity; since truncation makes true subsequence
equality undecidable, "closed" always means *closed at fingerprint length L*
and callers are expected to re-run with a larger L to probe stability.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from .algebraic import Annihilator, branch_recurrence, branch_residue_prefixes
from .config import DEFAULTS
from .errors import BudgetTooSmall, PrimeDividesDenominator, SchemaError
from .holonomic import unroll
from .obstruction import check_prime_power
from .rationals import residue
from .series import TruncSeries


@dataclass(frozen=True)
class ResidueSequence:
    """Residues of a coefficient sequence mod p^r."""

    modulus: int
    terms: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise SchemaError("modulus must be at least 2")
        if self.terms and not (0 <= min(self.terms)
                               and max(self.terms) < self.modulus):
            raise SchemaError("every term must lie in [0, modulus)")


def reduce_mod(f: TruncSeries, p: int, r: int = 1) -> ResidueSequence:
    """Coefficients of f mod p^r, via modular inverse of the denominators."""
    check_prime_power(p, r)
    modulus = p ** r
    terms = []
    for n, c in enumerate(f.coeffs):
        if c.denominator % p == 0:
            raise PrimeDividesDenominator(p, n)
        terms.append(residue(c, modulus))
    return ResidueSequence(modulus, tuple(terms))


@dataclass(frozen=True)
class KernelBudgets:
    max_states: int
    max_depth: int
    fingerprint_length: int

    def __post_init__(self):
        if self.max_states < 1 or self.max_depth < 0:
            raise SchemaError("budgets must be positive")
        if self.fingerprint_length < 1:
            raise SchemaError("fingerprint length must be positive")


@dataclass(frozen=True)
class KernelState:
    """One merged kernel element, named by its first-discovered (k, j)."""

    k: int
    j: int
    fingerprint: tuple[int, ...]
    transitions: tuple[Optional[int], ...]

    def fingerprint_hash(self) -> str:
        payload = ",".join(str(t) for t in self.fingerprint)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class KernelAutomaton:
    q: int
    modulus: int
    fingerprint_length: int
    truncation: int
    states: tuple[KernelState, ...]
    status: str  # closed | exhausted-budget | truncation-limited

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "modulus": self.modulus,
            "fingerprint_length": self.fingerprint_length,
            "truncation": self.truncation,
            "status": self.status,
            "states": [
                {
                    "id": i,
                    "k": st.k,
                    "j": st.j,
                    "fingerprint_hash": st.fingerprint_hash(),
                    "transitions": list(st.transitions),
                }
                for i, st in enumerate(self.states)
            ],
        }


def automaton_dot(aut: dict) -> str:
    """Graphviz DOT view of an automaton in its JSON form; unresolved
    transitions point at dashed '?' nodes."""
    lines = [
        "digraph kernel {",
        "  rankdir=LR;",
        f'  label="base {aut["q"]}, mod {aut["modulus"]}, {aut["status"]}";',
    ]
    for st in aut["states"]:
        i = st["id"]
        lines.append(f'  s{i} [label="s{i}\\n(k={st["k"]}, j={st["j"]})"];')
    for st in aut["states"]:
        i = st["id"]
        for d, t in enumerate(st["transitions"]):
            if t is None:
                lines.append(f'  u{i}_{d} [label="?", shape=plaintext];')
                lines.append(f'  s{i} -> u{i}_{d} '
                             f'[label="{d}", style=dashed];')
            else:
                lines.append(f'  s{i} -> s{t} [label="{d}"];')
    lines.append("}")
    return "\n".join(lines)


def kernel_closure(s: ResidueSequence, q: int,
                   budgets: KernelBudgets) -> KernelAutomaton:
    """BFS closure of {n -> a_{q^k n + j}} under fingerprint merging.

    Exploration is deterministic: levels in increasing k, states within a
    level in increasing representative j, digits in increasing order.  The
    budget precondition T >= L·q^K guarantees a full L-term fingerprint for
    every state within the depth budget; only transitions probing one level
    past it can run out of terms, in which case the target is matched by
    prefix and the automaton is flagged truncation-limited (an ambiguous
    prefix leaves the transition unresolved).  A genuinely new fingerprint
    that the state or depth budget cannot accommodate stops the search with
    exhausted-budget.
    """
    if q < 2:
        raise SchemaError("base q must be at least 2")
    S, K, L = (budgets.max_states, budgets.max_depth,
               budgets.fingerprint_length)
    T = len(s.terms)
    if L * q ** K > T:
        raise BudgetTooSmall(
            f"truncation {T} < L*q^K = {L}*{q}^{K} = {L * q ** K}"
        )
    terms = s.terms

    def fingerprint(k: int, j: int) -> tuple[int, ...]:
        step = q ** k
        return terms[j:j + step * L:step]  # shorter where it passes T

    reps: list[tuple[int, int]] = [(0, 0)]
    fps: list[tuple[int, ...]] = [fingerprint(0, 0)]
    trans: list[list[Optional[int]]] = [[None] * q]
    fp_index = {fps[0]: 0}
    truncated = False
    exhausted = False

    level = [0]
    while level and not exhausted:
        level.sort(key=lambda sid: reps[sid][1])
        next_level = []
        for sid in level:
            k, j = reps[sid]
            step = q ** k
            for d in range(q):
                kk, jj = k + 1, j + d * step
                fp = fingerprint(kk, jj)
                if len(fp) == L:
                    tid = fp_index.get(fp)
                    if tid is None:
                        if kk > K or len(reps) >= S:
                            exhausted = True
                            break
                        tid = len(reps)
                        reps.append((kk, jj))
                        fps.append(fp)
                        trans.append([None] * q)
                        fp_index[fp] = tid
                        next_level.append(tid)
                    trans[sid][d] = tid
                else:
                    # ran past the truncation: match by prefix
                    truncated = True
                    matches = [i for i, full in enumerate(fps)
                               if full[:len(fp)] == fp]
                    if len(matches) == 1:
                        trans[sid][d] = matches[0]
                    elif not matches:
                        # provably new, but no budget can hold it past K
                        exhausted = True
                        break
                    # ambiguous: leave unresolved
            if exhausted:
                break
        level = next_level

    if exhausted:
        status = "exhausted-budget"
    elif truncated:
        status = "truncation-limited"
    else:
        status = "closed"
    states = tuple(
        KernelState(k=reps[i][0], j=reps[i][1], fingerprint=fps[i],
                    transitions=tuple(trans[i]))
        for i in range(len(reps))
    )
    return KernelAutomaton(
        q=q, modulus=s.modulus, fingerprint_length=L, truncation=T,
        states=states, status=status,
    )


def christol_report(ann: Annihilator, p: int, r: int = 1,
                    q: Optional[int] = None,
                    budgets: Optional[KernelBudgets] = None
                    ) -> KernelAutomaton:
    """Expand the branch mod p^r, close its q-kernel, return the automaton.

    The residues come from `branch_residue_prefixes`, the Newton iteration
    run in (Z/p^r)[[z]], whenever P_y(0, y0) is a p-unit for P scaled to
    p-integral coefficients and y0 is p-integral; there the coefficients
    stay at r·log2(p) bits.  In every other case the branch's recurrence is
    derived once, unrolled exactly and reduced by `reduce_mod`, whose
    coefficients grow to Θ(n) bits and which raises
    `PrimeDividesDenominator` when the branch is not p-integral.

    q defaults to p — the setting in which a finite closure is the expected
    outcome for an algebraic branch.  The depth budget (default: the global
    rule of 8 halvings worth of digits, scaled by log2 q) is a cap, not a
    commitment: expansion and closure run at increasing depth and stop at
    the first closed kernel.  Attempt k needs exactly the closure
    precondition L·q^k terms, and one Newton iteration extends the previous
    attempt's residues to it, so shallow kernels never pay for long
    expansions and a deep one pays for its deepest attempt once.
    """
    if q is None:
        q = p
    if q < 2:
        raise SchemaError(f"base q must be at least 2, got {q}")
    if budgets is None:
        budgets = KernelBudgets(max_states=DEFAULTS.max_states,
                                max_depth=DEFAULTS.depth_for_base(q),
                                fingerprint_length=DEFAULTS.fingerprint_length)
    if budgets.max_depth < 1:
        raise BudgetTooSmall("the depth budget must allow at least one attempt")
    length = budgets.fingerprint_length
    sizes = [length * q**depth for depth in range(1, budgets.max_depth + 1)]
    prefixes = branch_residue_prefixes(ann, sizes, p, r)
    if prefixes is None:
        rec = branch_recurrence(ann)
        seqs = (reduce_mod(unroll(rec, n), p, r) for n in sizes)
    else:
        seqs = (ResidueSequence(p**r, tuple(t)) for t in prefixes)
    for depth, seq in enumerate(seqs, 1):
        automaton = kernel_closure(
            seq, q, KernelBudgets(budgets.max_states, depth, length))
        if automaton.status == "closed":
            break
    return automaton
