"""Diagonal realizations of algebraic branches and their Hadamard products.

A branch through the origin is the diagonal of an explicit bivariate
rational function (Furstenberg's construction); multiplying such
witnesses over pairwise disjoint variable pairs realizes the Hadamard
product of the branches as the complete diagonal of a rational function
in twice as many variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from operator import le, mul
from typing import Sequence, Union

from . import _intpoly as ip
from .algebraic import Annihilator, _dy, _z_rows, verify_annihilator
from .config import DEFAULTS
from .errors import (
    BudgetExceeded,
    DenominatorVanishesAtOrigin,
    SchemaError,
    VerificationFailed,
)
from .polynomials import Poly, RatFun, poly_rows, ratfun_from_rows
from .rationals import (
    coerce_rational,
    format_rational,
    parse_rational,
    wire_int,
    wire_object,
)
from .series import TruncSeries, hadamard_mul

#: Work cap for diagonal extraction: the box volume order^m times the number
#: of denominator terms.  An extraction at the cap takes 0.1-0.35 s for the
#: corpus witnesses (Python 3.11, one core of a shared VM).
DESK_MAX_WORK = 10 ** 6


# -- bivariate construction ---------------------------------------------------

def furstenberg_bivariate(ann: Annihilator) -> RatFun:
    """Rational R(x, y) whose diagonal is the branch of ``ann`` minus y0.

    R = y^2 Q_y(xy, y) / Q(xy, y) for Q = v^D·P(z, y + y0) (see
    `_translate_branch`) over its signed integer content, reduced by the
    common factor y so the denominator is a unit at (0, 0).  Variable 0 is
    x, variable 1 is y.
    """
    rows = _z_rows(_translate_branch(_z_rows(ann.poly), ann.y0))
    pc = ip.primitive_rows(rows, rows[-1])

    def substituted(rows, s):
        """y^s·Q(xy, y) from the y-rows of Q: z^a y^b -> x^a y^(a+b+s)."""
        return Poly(2, {(a, a + b + s): c for b, row in enumerate(rows)
                        for a, c in enumerate(row) if c})

    # The moved branch is simple, as P's is (the constructor checked):
    # Q(0,0) = 0 kills the constant term of Q(xy, y), while Q_y(0,0) =
    # v^(D-1)·P_y(0,y0) != 0 means Q has a linear y term, which survives
    # the substitution with y-exponent 1.  So Q(xy, y) is divisible by y
    # exactly once and y^2 Q_y(xy, y) exactly twice.
    return RatFun(substituted(_dy(pc), 1), substituted(pc, -1))


def _translate_branch(pc: list[list[int]], c: Fraction) -> Poly:
    """v^D·P(z, y + u/v) for P given by its y-rows, c = u/v and
    D = deg_y P: move the branch point c to the origin with integer
    coefficients.  At each z-power a, q(w) = Σ_b P_(b,a)·v^(D-b)·w^b
    shifts to q(w + u), and w^k becomes v^k·y^k."""
    u, v = c.numerator, c.denominator
    top = len(pc) - 1
    out: dict[tuple[int, int], int] = {}
    for a in range(max(map(len, pc))):
        q = [row[a] * v ** (top - b) if a < len(row) else 0
             for b, row in enumerate(pc)]
        for k, x in enumerate(ip.shift_arg(q, u)):
            out[a, k] = x * v ** k
    return Poly(2, out)


# -- diagonal extraction ------------------------------------------------------

def diagonal_extract(rat: RatFun, order: int) -> TruncSeries:
    """Coefficients of x_1^n ... x_m^n for n < order.

    Solves den * S = num for the series S over the box [0, order - 1]^m,
    visiting the exponents in product order, which lists every e - d
    (d >= 0, d != 0) before e.  num and den have integer coefficients, and
    every step stays integer arithmetic: with d0 = den(0) the solve keeps
    U_e = d0^(|e|+1) S_e, which satisfies

        U_e = d0^|e| num_e - sum_{d != 0} den_d d0^(|d|-1) U_{e-d},

    and only the diagonal entries are divided out, S_(n,...,n) =
    U_(n,...,n) / d0^(m n + 1).  The same path serves every d0 != 0.

    U is one flat list in row-major order, so each step d is a fixed
    offset back from the current cell.  Step d applies at e when e >= d
    in every coordinate, which depends only on the clipped exponent
    (min(e_i, top_i))_i, top_i being the largest exponent of x_i over the
    steps; one table, built up front, maps each clipped pattern to the
    (offset, coefficient) pairs that apply there.  Steps with an exponent
    of order or more never apply inside the box and are dropped.
    """
    if order < 1:
        raise SchemaError("need at least one diagonal coefficient")
    m = rat.nvars
    work = order ** m * len(rat.den.terms)
    if work > DESK_MAX_WORK:
        raise BudgetExceeded(
            f"diagonal extraction capped at {DESK_MAX_WORK} units of work; "
            f"order {order} in {m} variables with {len(rat.den.terms)} "
            f"denominator terms needs {work}"
        )
    if rat.den.constant_term() == 0:
        raise DenominatorVanishesAtOrigin(
            "denominator has no constant term; the series does not exist"
        )
    den = dict(rat.den.terms)
    d0 = den.pop((0,) * m)
    stride = [order ** (m - 1 - i) for i in range(m)]
    start = {sum(map(mul, e, stride)): c * d0 ** sum(e)
             for e, c in rat.num.terms.items() if max(e) < order}
    steps = [(d, sum(map(mul, d, stride)), c * d0 ** (sum(d) - 1))
             for d, c in den.items() if max(d) < order]
    top = [max((d[i] for d, _, _ in steps), default=0) for i in range(m)]
    table = {
        pattern: [(off, c) for d, off, c in steps
                  if all(map(le, d, pattern))]
        for pattern in itertools.product(*(range(t + 1) for t in top))
    }
    clipped = itertools.product(
        *([*range(t), *itertools.repeat(t, order - t)] for t in top))
    u: list[int] = []
    for idx, row in enumerate(map(table.__getitem__, clipped)):
        acc = start.get(idx, 0)
        for off, c in row:
            acc -= c * u[idx - off]
        u.append(acc)
    diag = sum(stride)
    return TruncSeries(tuple(
        Fraction(u[n * diag], d0 ** (m * n + 1)) for n in range(order)
    ))


# -- witnesses ----------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalWitness:
    """Rational function in 2d variables whose complete diagonal is a
    Hadamard product of d algebraic branches (up to a constant at n = 0)."""

    R: RatFun
    d: int
    verified_order: int
    constant_shift: Fraction = Fraction(0)
    #: diagonal extracted and checked, or proved by construction, by the
    #: constructing function
    _checked: tuple[Fraction, ...] = field(default=(), repr=False,
                                           compare=False)

    def __post_init__(self):
        wire_int(self.d, "d", 1)
        if self.R.nvars != 2 * self.d:
            raise SchemaError(
                f"witness for {self.d} factors needs {2 * self.d} variables, "
                f"got {self.R.nvars}"
            )
        wire_int(self.verified_order, "verified_order", 1)
        if self.R.den.constant_term() == 0:
            raise DenominatorVanishesAtOrigin(
                "witness denominator must be a unit at the origin"
            )
        object.__setattr__(
            self, "constant_shift", coerce_rational(self.constant_shift)
        )

    def diagonal(self, order: int) -> TruncSeries:
        """Complete diagonal with the recorded constant re-added at n = 0."""
        if 0 < order <= len(self._checked):
            return TruncSeries(self._checked[:order])
        base = diagonal_extract(self.R, order).coeffs
        return TruncSeries((base[0] + self.constant_shift,) + base[1:])

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "R": {
                "num": poly_rows(self.R.num),
                "den": poly_rows(self.R.den),
            },
            "verified_order": self.verified_order,
            "constant_shift": format_rational(self.constant_shift),
        }

    @classmethod
    def from_json_dict(cls, obj) -> "DiagonalWitness":
        obj = wire_object(obj, ("d", "R", "verified_order", "constant_shift"),
                          "witness")
        d = wire_int(obj["d"], "d", 1)
        rat = obj["R"]
        if not isinstance(rat, dict) or set(rat) != {"num", "den"}:
            raise SchemaError('R must be an object with "num" and "den"')
        shift = parse_rational(obj["constant_shift"])
        return cls(ratfun_from_rows(rat["num"], rat["den"], 2 * d), d,
                   obj["verified_order"], shift)


def diagonal_witness(
    ann: Annihilator, verified_order: int = DEFAULTS.diagonal_order
) -> DiagonalWitness:
    """Construct and check the d = 1 witness for a branch.

    A branch with constant term c != 0 is lifted as f - c and c is
    recorded on the witness, to be re-added at n = 0.  The diagonal D is
    checked against P to the verified order N: D(0) = y0 and
    P(z, D) = 0 mod z^N.  As P_y(0, y0) != 0, each D_k is fixed by
    D_0..D_(k-1) (Hensel), so D is the branch mod z^N.
    """
    witness = DiagonalWitness(furstenberg_bivariate(ann), 1, verified_order,
                              ann.y0)
    got = witness.diagonal(verified_order).coeffs
    if got[0] != ann.y0 or not verify_annihilator(ann, TruncSeries(got)):
        raise VerificationFailed(
            "diagonal is not the branch: D(0) != y0 or P(z, D) != 0 mod z^N"
        )
    return replace(witness, _checked=got)


def product_lift(parts: Sequence[Union[DiagonalWitness, RatFun]]) -> RatFun:
    """Product of rational functions over disjoint variable blocks.

    Part i occupies the next consecutive block of variables, so the
    complete diagonal of the result is the Hadamard product of the
    constituent diagonals.
    """
    rats = [p.R if isinstance(p, DiagonalWitness) else p for p in parts]
    if len(rats) < 2:
        raise SchemaError("product lift needs at least two factors")
    total = sum(r.nvars for r in rats)
    num = Poly.const(total, 1)
    den = Poly.const(total, 1)
    at = 0
    for r in rats:
        num = num * r.num.embed(total, at)
        den = den * r.den.embed(total, at)
        at += r.nvars
    return RatFun(num, den)


def product_witness(factors: Sequence[DiagonalWitness]) -> DiagonalWitness:
    """Combine witnesses; the result's diagonal is the Hadamard product
    of the factors' diagonals (shifts composed at n = 0).

    Proved by construction, not extracted: over disjoint variable blocks
    each coefficient of the complete diagonal is, term by term, the
    product of the blocks' own diagonal coefficients (Denef and Lipshitz,
    Algebraic power series and diagonals, J. Number Theory 1987).  So the
    product is verified to its factors' least verified order, to which
    a factor read back from JSON (never checked here) is extracted.
    """
    rat = product_lift(factors)
    order = min(f.verified_order for f in factors)
    acc = reduce(hadamard_mul, (f.diagonal(order) for f in factors))
    # Only n = 0 needs a correction: the shifted factors' product there
    # minus the lift's own term R(0).
    shift = acc.coeffs[0] - Fraction(rat.num.constant_term(),
                                     rat.den.constant_term())
    return DiagonalWitness(rat, sum(f.d for f in factors), order, shift,
                           acc.coeffs)
