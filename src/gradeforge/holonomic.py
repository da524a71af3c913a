"""P-recursive sequences and an exact Hadamard-product closure.

A :class:`PRecurrence` pins down a sequence by a linear recurrence with
integer polynomial coefficients,

    p_0(n) a_n + p_1(n) a_{n+1} + ... + p_r(n) a_{n+r} = 0    for n >= n0,

together with the initial terms a_0 .. a_{n0+r-1}.  Each p_i(n) is a dense
integer coefficient list in `_intpoly` form (ascending, no trailing zeros),
and every polynomial computation here is `_intpoly` arithmetic.  The
constructor shifts n0 past every integer zero of p_r, so unrolling never
divides by zero and the stored data determines the sequence uniquely.

`hadamard_recurrence` is the closure algorithm: write both inputs as
companion systems u_{n+1} = A(n) u_n (size r), v_{n+1} = B(n) v_n (size s);
the termwise product satisfies c_{n+k} = u_n^T P_k(n) v_n for r x s matrices
P_0 = e_1 e_1^T and P_{k+1}(n) = A(n)^T P_k(n+1) B(n).  The rs+1 matrices
P_0 .. P_{rs} must be linearly dependent over Q(n); fraction-free
elimination finds the first such dependence, and clearing the accumulated
denominators turns it into a recurrence for c.  A step needs only the
recurrences' own coefficients (`_times_companion`): neither A, B nor their
rs x rs Kronecker product is ever formed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from . import _intpoly as ip
from .errors import (
    DegenerateInput,
    NoFit,
    NoKernel,
    SchemaError,
    TruncationExceeded,
    UnderdeterminedRecurrence,
    VerificationFailed,
)
from .polynomials import fraction_free_left_kernel
from .rationals import coerce_rational, format_rational, wire_int, wire_object
from .series import TruncSeries, hadamard_mul


def _raise_base(lead: list[int], n0: int) -> int:
    """Smallest base >= n0 with no integer zero of `lead` at or past it."""
    roots = ip.int_roots(lead)
    if roots:
        n0 = max(n0, max(roots) + 1)
    return n0


@dataclass(frozen=True)
class PRecurrence:
    """Recurrence Σ p_i(n)·a_{n+i} = 0 (n >= n0) plus initial terms.

    `coeffs` holds p_0 .. p_r as tuples of integers, ascending in n.
    Construction normalizes to a deterministic representative: coefficients
    are divided by their common integer content and sign-fixed so the
    leading coefficient of p_r is positive; n0 is raised past the integer
    zeros of p_r; `initial` is checked against the recurrence where it
    overlaps and trimmed to exactly n0 + r terms.  Rational coefficients go
    through `from_dense`.

    `empirical` marks recurrences produced by guessing: true only up to the
    window they were verified on.  It is metadata, ignored by equality.
    """

    coeffs: tuple[tuple[int, ...], ...]
    n0: int
    initial: tuple[Fraction, ...]
    empirical: bool = field(default=False, compare=False)

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise SchemaError("recurrence order must be at least 1")
        for p in self.coeffs:
            if (not isinstance(p, (list, tuple))
                    or any(type(x) is not int for x in p)):
                raise SchemaError(
                    "coefficients must be integer coefficient lists in n"
                )
        dense = [ip.trim(list(p)) for p in self.coeffs]
        if not dense[-1]:
            raise SchemaError("leading coefficient p_r must be nonzero")
        wire_int(self.n0, "n0", 0)
        r = len(dense) - 1
        dense = ip.primitive_rows(dense, dense[-1])

        n0 = _raise_base(dense[-1], self.n0)
        initial = tuple(coerce_rational(x) for x in self.initial)
        need = n0 + r
        if len(initial) < need:
            raise UnderdeterminedRecurrence(
                f"need {need} initial terms (base {n0}, order {r}), "
                f"got {len(initial)}"
            )
        # any supplied terms past the claimed base must satisfy the recurrence
        for n in range(self.n0, len(initial) - r):
            acc = Fraction(0)
            for i, c in enumerate(dense):
                acc += ip.eval_at(c, n) * initial[n + i]
            if acc:
                raise SchemaError(
                    f"initial terms violate the recurrence at n = {n}"
                )

        object.__setattr__(self, "coeffs", tuple(map(tuple, dense)))
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "initial", initial[:need])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_dense(cls, coeffs: Sequence[Sequence], n0: int,
                   initial: Sequence) -> "PRecurrence":
        """Build from dense coefficient lists (ints, Fractions, or strings).

        One common denominator is cleared across every p_i.
        """
        values = [[coerce_rational(x) for x in c] for c in coeffs]
        nums, _ = ip.clear_denominators(x for c in values for x in c)
        polys, start = [], 0
        for c in values:
            polys.append(nums[start:start + len(c)])
            start += len(c)
        return cls(tuple(polys), n0, tuple(initial))

    def to_json_dict(self) -> dict:
        return {
            "kind": "holonomic",
            "order": self.order,
            "coeffs": [[format_rational(c) for c in p] for p in self.coeffs],
            "n0": self.n0,
            "initial": [format_rational(x) for x in self.initial],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PRecurrence":
        d = wire_object(d, ("order", "coeffs", "n0", "initial"),
                        "holonomic payload")
        order = wire_int(d["order"], "order", 1)
        coeffs = d["coeffs"]
        initial = d["initial"]
        if (not isinstance(coeffs, list)
                or len(coeffs) != order + 1
                or not all(isinstance(c, list) and c for c in coeffs)):
            raise SchemaError(
                "'coeffs' must be a list of order+1 nonempty coefficient lists"
            )
        if not isinstance(initial, list):
            raise SchemaError("'initial' must be a list of rationals")
        return cls.from_dense(coeffs, d["n0"], initial)


def unroll(rec: PRecurrence, n: int) -> TruncSeries:
    """First n terms of the sequence, in exact rational arithmetic: the
    initial terms, then `unroll_stream`'s, each reduced to a Fraction once,
    at output."""
    if n < 1:
        raise SchemaError("need at least one term")
    out = list(rec.initial[:n])
    steps = itertools.islice(unroll_stream(rec), max(0, n - len(out)))
    out.extend(Fraction(a) if b == 1 else Fraction(a, b) for a, b in steps)
    return TruncSeries(tuple(out))


def unroll_stream(rec: PRecurrence) -> Iterator[tuple[int, int]]:
    """The terms after `rec.initial`, without end, each as integers (N, d)
    with value N/d, d > 0 but not necessarily in lowest terms.

    The last r terms are integer numerators over one running denominator
    `den`, so a step is acc = −Σ p_i(m)·N_{m+i} and one divmod by p_r(m).
    Where that division is inexact, `den` and the window are scaled by
    s = |p_r(m)| / gcd(acc, p_r(m)), the sign of p_r(m) going into the new
    numerator, and then divided by their gcd, so `den` stays the least
    common denominator of the window: every prime of d divides the
    lowest-terms denominator of this term or an earlier one.  Integer
    sequences keep den = 1 and never pay a gcd.
    """
    r, coeffs = rec.order, rec.coeffs
    window, den = ip.clear_denominators(rec.initial[-r:])
    for m in itertools.count(len(rec.initial) - r):
        acc = 0
        for i in range(r):
            acc -= ip.eval_at(coeffs[i], m) * window[i]
        lead = ip.eval_at(coeffs[r], m)
        q, rem = divmod(acc, lead)
        if rem:
            g = math.gcd(acc, lead)
            s = abs(lead) // g
            q = acc // g if lead > 0 else -acc // g
            window = [x * s for x in window[1:]]
            window.append(q)
            den *= s
            g = math.gcd(den, *window)
            if g > 1:
                window = [x // g for x in window]
                den //= g
            q = window[-1]
        else:
            del window[0]
            window.append(q)
        yield q, den


def _times_companion(x: Sequence[list[int]],
                     rec: PRecurrence) -> list[list[int]]:
    """The row x times M(n), the numerator of the companion matrix of `rec`.

    M(n)/p_r(n) maps (a_n .. a_{n+r-1}) to (a_{n+1} .. a_{n+r}), so M(n) has
    p_r(n) on its superdiagonal, −p_0(n) .. −p_{r−1}(n) in its last row and
    zeros elsewhere.  Hence (x·M)_i = p_r(n)·x_{i−1} − p_i(n)·x_{r−1}, with
    x_{−1} = 0, and M itself is never built.
    """
    *coeffs, lead = rec.coeffs
    return [ip.sub(ip.mul(lead, x[i - 1]) if i else [], ip.mul(p, x[-1]))
            for i, p in enumerate(coeffs)]


def _reject_zero(rec: PRecurrence) -> None:
    if not any(rec.initial):
        raise DegenerateInput(
            "input sequence is identically zero; the zero sequence satisfies "
            "every recurrence and breaks kernel normalization"
        )


def _finish(q_dense: list[list[int]], n0_base: int,
            terms_of: Callable[[int], Sequence[Fraction]],
            empirical: bool) -> PRecurrence:
    """Shared tail of closure, guessing and `algebraic.branch_recurrence`.

    Takes the raw dependence coefficients q_0..q_m (integer dense lists,
    relation Σ q_k(n)·c_{n+k} = 0 valid for n >= n0_base), strips zero
    polynomials at both ends, raises the base past every integer zero of the
    leading coefficient (the polynomial content's and the new leading
    coefficient's alike), divides out the content, and assembles the
    PRecurrence with initial terms drawn from `terms_of`.
    """
    top = max(k for k, c in enumerate(q_dense) if c)
    low = min(k for k, c in enumerate(q_dense) if c)
    if top == low:
        # single-term relation q(n)·c_{n+low} = 0: the sequence vanishes
        # wherever q does not.  With m = n + low - 1 it reads
        # 0·c_m + q(m + 1 - low)·c_{m+1} = 0, an order-1 recurrence whose
        # base is raised past every integer zero of its leading coefficient,
        # so from there on it pins each later term to zero.
        p1 = ip.shift_arg(q_dense[top], 1 - low)
        n0 = _raise_base(p1, max(n0_base + low - 1, 0))
        terms = terms_of(n0 + 1)
        return PRecurrence(((), tuple(p1)), n0, tuple(terms), empirical)
    shifted = [ip.shift_arg(q_dense[k], -low) for k in range(low, top + 1)]
    n0 = _raise_base(shifted[-1], n0_base + low)
    g = ip.gcd_all(shifted)
    if len(g) > 1:
        shifted = [ip.exact_div(c, g) for c in shifted]
    r = len(shifted) - 1
    terms = terms_of(n0 + r)
    return PRecurrence(tuple(shifted), n0, tuple(terms), empirical)


def hadamard_recurrence(ra: PRecurrence, rb: PRecurrence) -> PRecurrence:
    """A recurrence for the termwise product c_n = a_n * b_n, order <= r*s.

    P_k is held as r rows of s polynomials, its numerator over deltas[k].
    A step applies `_times_companion` with `rb` to each shifted row, then
    with `ra` to each column; no transition matrix is formed.
    """
    _reject_zero(ra)
    _reject_zero(rb)
    r, s = ra.order, rb.order
    lead = ip.mul(ra.coeffs[r], rb.coeffs[s])
    pi = [[[1] if i == j == 0 else [] for j in range(s)] for i in range(r)]
    rows = [list(itertools.chain(*pi))]
    deltas = [[1]]
    for _ in range(r * s):
        up = [_times_companion([ip.shift_arg(p, 1) for p in row], rb)
              for row in pi]
        pi = list(zip(*(_times_companion(col, ra) for col in zip(*up))))
        rows.append(list(itertools.chain(*pi)))
        deltas.append(ip.mul(ip.shift_arg(deltas[-1], 1), lead))

    v = fraction_free_left_kernel(rows)
    q_dense = [ip.mul(x, d) for x, d in zip(v, deltas)]

    def terms_of(count: int) -> Sequence[Fraction]:
        return hadamard_mul(unroll(ra, count), unroll(rb, count)).coeffs

    return _finish(q_dense, max(ra.n0, rb.n0), terms_of, empirical=False)


def guess_recurrence(f: TruncSeries, max_order: int,
                     max_degree: int) -> PRecurrence:
    """Fit Σ_{i<=R} Σ_{d<=D} λ_{i,d} n^d a_{n+i} = 0 against all terms of f.

    Exact null-space computation; the returned recurrence reproduces every
    supplied term but is certified no further — it carries empirical=True.
    Raises NoFit when only the zero combination annihilates the data.
    """
    R, D = max_order, max_degree
    if R < 1 or D < 0:
        raise SchemaError("need max_order >= 1 and max_degree >= 0")
    need = (R + 1) * (D + 1) + R + 10
    if f.order < need:
        raise TruncationExceeded(
            f"guessing with order {R}, degree {D} needs at least {need} "
            f"terms, got {f.order}"
        )
    terms = f.coeffs
    npoints = f.order - R
    # One equation per n, scaled by the lcm of its R+1 terms' denominators;
    # scaling an equation leaves the kernel as is.
    rows: list[list[list[int]]] = [[] for _ in range((R + 1) * (D + 1))]
    for n in range(npoints):
        ints, _ = ip.clear_denominators(terms[n:n + R + 1])
        powers = [n ** d for d in range(D + 1)]
        for row, y in zip(rows, (x * p for x in ints for p in powers)):
            row.append([y] if y else [])
    try:
        v = fraction_free_left_kernel(rows)
    except NoKernel:
        raise NoFit(
            f"no recurrence of order <= {R} with coefficient degree <= {D} "
            f"fits the {f.order} supplied terms"
        ) from None

    q_dense: list[list[int]] = []
    for i in range(R + 1):
        coeffs = []
        for d in range(D + 1):
            entry = v[i * (D + 1) + d]
            if len(entry) > 1:
                raise VerificationFailed("kernel vector entry is not constant")
            coeffs.append(entry[0] if entry else 0)
        q_dense.append(ip.trim(coeffs))

    def terms_of(count: int) -> list[Fraction]:
        if count > f.order:
            raise UnderdeterminedRecurrence(
                f"certifying the guessed recurrence needs {count} terms, "
                f"only {f.order} supplied"
            )
        return list(terms[:count])

    try:
        rec = _finish(q_dense, 0, terms_of, empirical=True)
    except UnderdeterminedRecurrence as exc:
        raise NoFit(str(exc)) from exc
    if unroll(rec, f.order).coeffs != terms:
        raise NoFit(
            "candidate dependence does not extend to all supplied terms"
        )
    return rec
