"""Reference checks for every job's output, independent of the code tested.

Coefficients come from closed forms (``math.comb``, factorials), from
``tests/oracles.py`` (Pascal's triangle, convolution recurrences, the
graded box solve for rational series, residues stepped from term ratios)
or from recurrences written out here.  Prime supports are recomputed with
``sympy.factorint``.  Each check returns None when the output is right and
a one-line description of the first mismatch otherwise.  Verdicts are
cached by output digest, so a repeated output is checked once.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

APERY_COEFFS = [[1, 3, 3, 1], [-117, -231, -153, -34], [8, 12, 6, 1]]


def _apery_a(count: int) -> list[Fraction]:
    return [Fraction(sum(math.comb(n, k) ** 2 * math.comb(n + k, k) ** 2
                         for k in range(n + 1)))
            for n in range(count)]


def _apery_b_closed(n: int) -> Fraction:
    """Apery's zeta(3) companion b_n by its double-sum closed form."""
    h3 = sum(Fraction(1, m ** 3) for m in range(1, n + 1))
    total = Fraction(0)
    for k in range(n + 1):
        c = h3 + sum(Fraction((-1) ** (m - 1),
                              2 * m ** 3 * math.comb(n, m) * math.comb(n + m, m))
                     for m in range(1, k + 1))
        total += math.comb(n, k) ** 2 * math.comb(n + k, k) ** 2 * c
    return total


def _apery_b(count: int) -> list[Fraction]:
    """b_n from (n+2)^3 u_{n+2} = (34n^3+153n^2+231n+117) u_{n+1} - (n+1)^3 u_n,
    started from the closed form and checked against it on a prefix."""
    out = [_apery_b_closed(0), _apery_b_closed(1)]
    while len(out) < count:
        n = len(out) - 2
        mid = 34 * n ** 3 + 153 * n ** 2 + 231 * n + 117
        out.append((mid * out[-1] - (n + 1) ** 3 * out[-2]) / (n + 2) ** 3)
    for n in range(min(count, 8)):
        if out[n] != _apery_b_closed(n):
            raise ArithmeticError(f"Apery b_{n}: recurrence and closed form differ")
    return out[:count]


def _inverse_products(count: int) -> list[Fraction]:
    """1 / prod_{k<n} (k^2 + 1)."""
    out, den = [], 1
    for n in range(count):
        out.append(Fraction(1, den))
        den *= n * n + 1
    return out


_SEQUENCES = {
    "A": _apery_a,
    "B": _apery_b,
    "Q": _inverse_products,
    "catalan": lambda c: [Fraction(math.comb(2 * n, n), n + 1) for n in range(c)],
    "central-binomial": lambda c: [Fraction(math.comb(2 * n, n)) for n in range(c)],
    "euler": lambda c: [Fraction((-1) ** n * math.factorial(n)) for n in range(c)],
    "exp": lambda c: [Fraction(1, math.factorial(n)) for n in range(c)],
}


def _poly_at(dense: list[Fraction], n: int) -> Fraction:
    return sum((c * n ** k for k, c in enumerate(dense)), Fraction(0))


def _recurrence_mismatch(rec: dict, terms: list[Fraction]):
    """None when rec determines `terms`: initial values agree, the leading
    coefficient never vanishes and every relation holds."""
    r, n0 = rec["order"], rec["n0"]
    polys = [[Fraction(c) for c in dense] for dense in rec["coeffs"]]
    if len(polys) != r + 1:
        return f"recurrence of order {r} has {len(polys)} coefficients"
    initial = [Fraction(c) for c in rec["initial"]]
    if initial != terms[:n0 + r]:
        return "recurrence initial values differ from the reference terms"
    if len(terms) - r - n0 < 10:
        return f"only {len(terms) - r - n0} relations to check"
    for n in range(n0, len(terms) - r):
        if _poly_at(polys[r], n) == 0:
            return f"leading coefficient vanishes at n = {n}"
        if sum(_poly_at(polys[i], n) * terms[n + i] for i in range(r + 1)):
            return f"recurrence fails at n = {n}"
    return None


def _first_mismatch(got: list[Fraction], want: list[Fraction], what: str):
    if len(got) != len(want):
        return f"{what}: {len(got)} terms, want {len(want)}"
    for n, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"{what}: term {n} is {g}, want {w}"
    return None


class References:
    def __init__(self, root: Path):
        # Reference values may exceed CPython's default limit on int/str
        # conversion; this process only checks, it runs no job.
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        self.root = root
        self._sequences: dict[str, list[Fraction]] = {}
        self._verdicts: dict[tuple[str, str], object] = {}
        self._oracles = None

    @property
    def oracles(self):
        if self._oracles is None:
            sys.path.insert(0, str(self.root / "tests"))
            import oracles
            self._oracles = oracles
        return self._oracles

    def seq(self, name: str, count: int) -> list[Fraction]:
        have = self._sequences.get(name, [])
        if len(have) < count:
            have = self._sequences[name] = _SEQUENCES[name](count)
        return have[:count]

    def verdict(self, job, output: str):
        """None if `output` is right for `job`, else what is wrong."""
        key = (job.name, hashlib.sha256(output.encode()).hexdigest())
        if key not in self._verdicts:
            kind, *params = job.check
            try:
                data = json.loads(output)
                found = getattr(self, f"_check_{kind}")(data, *params)
            except (ValueError, KeyError, TypeError, IndexError,
                    AttributeError, ZeroDivisionError) as exc:
                found = f"unreadable output: {type(exc).__name__}: {exc}"
            self._verdicts[key] = found
        return self._verdicts[key]

    # -- one check per job kind ----------------------------------------------

    def _check_expand(self, data, name, terms):
        if data["terms"] != terms:
            return f"terms = {data['terms']}, want {terms}"
        got = [Fraction(c) for c in data["coeffs"]]
        return _first_mismatch(got, self.seq(name, terms), "coefficients")

    def _check_hadamard(self, data, a, b, terms):
        want = [x * y for x, y in zip(self.seq(a, terms), self.seq(b, terms))]
        got = [Fraction(c) for c in data["coeffs"]]
        return (_first_mismatch(got, want, "product coefficients")
                or _recurrence_mismatch(data["recurrence"], want))

    def _check_guess(self, data, name, terms):
        found = _recurrence_mismatch(data, self.seq(name, terms))
        if found:
            return found
        polys = [[Fraction(c) for c in dense] for dense in data["coeffs"]]
        scale = polys[0][0] / APERY_COEFFS[0][0]
        if polys != [[scale * c for c in dense] for dense in APERY_COEFFS]:
            return "guessed recurrence is not Apery's up to a constant factor"
        return None

    def _check_obstruct(self, data, name, terms):
        import sympy

        if data["truncation"] != terms:
            return f"truncation = {data['truncation']}, want {terms}"
        first: dict[int, int] = {}
        for n, c in enumerate(self.seq(name, terms)):
            for p in sympy.factorint(c.denominator):
                first.setdefault(int(p), n)
        want = [[p, n] for p, n in sorted(first.items())]
        if data["prime_support"] != want:
            return (f"prime support has {len(data['prime_support'])} "
                    f"entries, want {len(want)} (first: {want[:3]})")
        return None

    def _check_modp(self, data, name, p, r):
        from gradeforge.automata import (KernelBudgets, ResidueSequence,
                                         kernel_closure)
        from gradeforge.config import Defaults

        cfg = Defaults()
        q, length = p, cfg.fingerprint_length
        for depth in range(1, cfg.depth_for_base(q) + 1):
            residues = self.oracles.corpus_residues(name, length * q ** depth,
                                                    p, r)
            automaton = kernel_closure(
                ResidueSequence(p ** r, tuple(residues)), q,
                KernelBudgets(cfg.max_states, depth, length))
            if automaton.status == "closed":
                break
        want = {"p": p, "r": r, "q": q, "status": automaton.status,
                "state_count": len(automaton.states),
                "automaton": automaton.to_json_dict()}
        for key, value in want.items():
            if data[key] != value:
                return f"{key} differs from the oracle residues' closure"
        return None

    def _check_diagonal(self, data, name, order, square):
        base = {"catalan": self.oracles.catalan_numbers,
                "central-binomial": self.oracles.central_binomials}[name](order)
        want = [Fraction(x * x if square else x) for x in base]
        got = [Fraction(c) for c in data["diagonal"]]
        found = _first_mismatch(got, want, "diagonal")
        if found:
            return found
        w = data["witness"]
        if w["d"] != (2 if square else 1) or w["verified_order"] != order:
            return f"witness d = {w['d']}, verified_order = {w['verified_order']}"
        nvars = 2 * w["d"]
        num, den = ({tuple(row[:-1]): Fraction(row[-1]) for row in rows}
                    for rows in (w["R"]["num"], w["R"]["den"]))
        box = self.oracles.rational_series_box(num, den, (order - 1,) * nvars)
        diag = self.oracles.diagonal_from_box(box, nvars, order)
        diag[0] += Fraction(w["constant_shift"])
        return _first_mismatch(diag, want, "witness diagonal by box solve")
