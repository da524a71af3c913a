"""Algebraic power series presented by a bivariate annihilating polynomial.

An :class:`Annihilator` is a nonzero P(z, y) together with a simple root
y0 of P(0, y), so the branch through y0 is an unramified formal power
series.  P matters only up to a constant factor, so the constructor
stores the primitive integer k·P, and checks the branch point exactly, as
`PRecurrence` checks its own invariants: `NotARoot` if P(0, y0) != 0,
`RamifiedBranch` if P_y(0, y0) = 0.  Ramified branches (fractional
exponents) are rejected outright rather than half-supported.

Every algebraic series is D-finite, so `branch_recurrence` derives, and
proves, a linear recurrence for the branch straight from P (Bostan, Chyzak,
Lecerf, Salvy and Schost, ISSAC 2007).  With D = P_y, each derivative is
y^(k) = A_k(z, y)/D^(2k-1), where A_1 = -P_z and

    A_(k+1) = D^2 ∂_z A_k - D P_z ∂_y A_k - (2k-1) A_k (D_z D - D_y P_z).

Over the common denominator D^(2K-1), the rows 1, y, y', ..., y^(K) are
pseudo-reduced mod P in y, scaled to one power of lc_y(P), and the first K
whose rows have a left kernel over Z[z] gives a linear ODE.  A combination
that vanishes mod P vanishes on the branch, because D(0, y0) != 0.  The ODE
becomes a recurrence through [z^n] z^i y^(k) = (n-i+1)_k a_(n-i+k), valid
past the degree of its inhomogeneous part.  `expand_branch` takes the
recurrence's first n0 + r terms from Newton iteration over Q,

    f  <-  f - P(z, f) / P_y(z, f)     (mod z^m2),  m2 <= 2m,

and unrolls the rest in O(n) small-by-big steps.

`branch_residue_prefixes`, the one residue entry, runs the Newton
iteration in (Z/p^r)[[z]] when the branch point stays a simple root mod p,
so residues never pass through the exact coefficients, whose bit size
grows linearly in n.  `_newton_prefixes` is the package's one Newton
iteration (tan in :mod:`gradeforge.analytic` is a branch too).  It yields
the prefix at each of a series of ascending sizes, refusing a size below
one, and resumes from the f and 1/P_y it holds; its step targets halve
down from each size, so a fresh run ends exactly at n and an extension
takes balanced steps.  The Q prefix of the recurrence is its one-size
use.  Its truncated products run in the integer kernel `_intpoly`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import _intpoly as ip
from .errors import (
    NoKernel,
    NotARoot,
    RamifiedBranch,
    SchemaError,
    VerificationFailed,
)
from .holonomic import PRecurrence, _finish, unroll
from .obstruction import check_prime_power
from .polynomials import Poly, fraction_free_left_kernel
from .rationals import coerce_rational, residue
from .series import TruncSeries


@dataclass(frozen=True)
class Annihilator:
    """P(z, y) plus the simple root y0 of P(0, y); variables are (z, y) in
    that order.  `poly` holds the primitive k·P (k > 0), so positive
    multiples of one P give equal annihilators."""

    poly: Poly
    y0: Fraction

    def __post_init__(self):
        if self.poly.nvars != 2:
            raise SchemaError("annihilator must be bivariate in (z, y)")
        if self.poly.is_zero():
            raise SchemaError("annihilator polynomial must be nonzero")
        if self.poly.degree_in(1) < 1:
            raise SchemaError("annihilator must involve y")
        y0 = coerce_rational(self.y0)
        object.__setattr__(self, "y0", y0)
        content = math.gcd(*self.poly.terms.values())
        object.__setattr__(self, "poly", Poly(2, {
            e: c // content for e, c in self.poly.terms.items()}))
        pc = _z_rows(self.poly)
        p0 = sum(row[0] * y0 ** j for j, row in enumerate(pc) if row)
        if p0 != 0:
            raise NotARoot(f"P(0, {y0}) = {p0} != 0")
        if _dy(pc, y0)[1] == 0:
            raise RamifiedBranch(
                "P_y(0, y0) = 0: multiple root at the branch point"
            )


def _conv_frac(xs: Sequence[Fraction], ys: Sequence[Fraction],
               limit: int) -> list[Fraction]:
    """Truncated convolution over Fraction, zero-padded to `limit` entries.

    Denominators are cleared once per operand so the product runs in the
    integer kernel.
    """
    ia, da = ip.clear_denominators(xs)
    ib, db = ip.clear_denominators(ys)
    scale = da * db
    out = [Fraction(c, scale) for c in ip.conv(ia, ib, limit)]
    out.extend([Fraction(0)] * (limit - len(out)))
    return out


def _conv_mod(xs: Sequence[int], ys: Sequence[int], limit: int,
              modulus: int) -> list[int]:
    """Truncated convolution mod `modulus`, zero-padded to `limit` entries."""
    out = [c % modulus for c in ip.conv(xs, ys, limit)]
    out.extend([0] * (limit - len(out)))
    return out


def _identity(x):
    return x


def _eval_poly_at_series(coeff_lists, f, limit, mul=_conv_frac,
                         norm=_identity):
    """P(z, f(z)) mod z^limit by Horner in y, for P given by integer
    y-rows; the ring is given by `mul` (product truncated and zero-padded
    to `limit`) and `norm`, which also maps an integer into it."""
    res = [norm(c) for c in coeff_lists[-1][:limit]]
    res += [0] * (limit - len(res))
    for j in range(len(coeff_lists) - 2, -1, -1):
        res = mul(res, f, limit)
        cj = coeff_lists[j]
        for i in range(min(len(cj), limit)):
            if cj[i]:
                res[i] = norm(res[i] + cj[i])
    return res


def _precision_steps(held: int, target: int) -> list[int]:
    """Newton step targets from precision `held` up to `target`, ascending.

    The schedule is read top-down: target, ⌈target/2⌉, ... while above
    `held`, so every step at most doubles the precision, the steps are
    balanced whatever `held` is, and the last one ends exactly at target.
    """
    steps = []
    while target > held:
        steps.append(target)
        target = (target + 1) // 2
    return steps[::-1]


def _newton_prefixes(pc, pyc, y0, g0, sizes, mul, norm):
    """Yield the first n coefficients of the branch through y0 for each n
    in `sizes`, by one Newton iteration that resumes from the precision it
    already holds, so a run through ascending sizes costs about what the
    last size alone costs.

    pc and pyc are the integer y-rows of P and P_y, y0 the branch point
    and g0 = 1/P_y(0, y0) in the ring.  `mul(a, b, k)` is the
    product truncated and zero-padded to k entries; `norm` brings a sum or
    a negation back to a canonical ring element.
    """
    # f: branch prefix, correct mod z^len(f).
    # g: inverse of P_y(z, f), correct mod z^len(g) and lifted lazily.  A
    # step from m to m2 needs g only mod z^h, h = m2 - m <= m, and the
    # expensive correction P/P_y reduces to a half-size "middle product":
    # P(z, f) vanishes mod z^m, so only its top h coefficients times g[:h]
    # contribute.  P_y(z, f) mod z^h is final once f is, so g is lifted in
    # place by its own Newton steps, each at most doubling its precision.
    f = [y0]
    g = [g0]
    for n in sizes:
        if n < 1:
            raise SchemaError(f"need at least one coefficient, got {n}")
        for m2 in _precision_steps(len(f), n):
            m = len(f)
            h = m2 - m
            for gm in _precision_steps(len(g), h):
                dval = _eval_poly_at_series(pyc, f[:gm], gm, mul, norm)
                ar = mul(dval, g, gm)
                two_minus = [norm(2 - ar[0])] + [norm(-x) for x in ar[1:]]
                g = mul(g, two_minus, gm)
            val = _eval_poly_at_series(pc, f + [0] * h, m2, mul, norm)
            f += [norm(-c) for c in mul(val[m:], g[:h], h)]
        yield f[:n]


def _z_rows(p: Poly) -> list[list[int]]:
    """P(z, y) as its y-coefficients, dense `_intpoly` lists in z."""
    rows = [[0] * (p.degree_in(0) + 1) for _ in range(p.degree_in(1) + 1)]
    for (i, j), c in p.terms.items():
        rows[j][i] = c
    return [ip.trim(row) for row in rows]


def _dy(pc: list[list[int]], y0: Fraction) -> tuple[list[list[int]], Fraction]:
    """The y-rows of P_y from those of P, and P_y(0, y0)."""
    pyc = [[j * c for c in row] for j, row in enumerate(pc)][1:]
    return pyc, sum(row[0] * y0 ** j for j, row in enumerate(pyc) if row)


def _prem_y(row: list[list[int]], pc: list[list[int]]
            ) -> tuple[list[list[int]], int]:
    """(lc^e·row mod P, e): the pseudo-remainder in y over Z[z] of a row
    given, like P, as y-coefficient lists."""
    d = len(pc) - 1
    row = list(row)
    e = 0
    while len(row) > d:
        top = row.pop()
        if not top:
            continue
        s = len(row) - d
        row = [ip.mul(c, pc[d]) for c in row]
        for j in range(d):
            row[s + j] = ip.sub(row[s + j], ip.mul(top, pc[j]))
        e += 1
    return row + [[] for _ in range(d - len(row))], e


def _linear_ode(p: Poly, pc: list[list[int]]) -> list[list[int]]:
    """Integer polynomials c_(-1), c_0, ..., c_K in z, not all of
    c_0..c_K zero, with c_(-1) + Σ c_k·y^(k) = 0 on every simple branch of
    the integer P, whose y-rows are pc; K is the least order for which the
    derivation finds one."""
    pz = p.derivative(0)
    dp = p.derivative(1)
    twist = dp.derivative(0) * dp - dp.derivative(1) * pz
    dd, dpz = dp * dp, dp * pz
    lc = pc[-1]
    a = [None, -pz]  # a[k] = A_k, unreduced: y^(k) = A_k / D^(2k-1)
    for order in range(len(pc) - 1):
        if order > 1:
            ak, k = a[-1], order - 1
            a.append(dd * ak.derivative(0) - dpz * ak.derivative(1)
                     - twist * ak * (2 * k - 1))
        one = dp ** max(2 * order - 1, 0)
        rows = [one, one * Poly.variable(2, 1)]
        rows += [a[k] * dp ** (2 * order - 2 * k)
                 for k in range(1, order + 1)]
        reduced = [_prem_y(_z_rows(row), pc) for row in rows]
        top = max(e for _, e in reduced)
        scale = [[1]]
        for _ in range(top):
            scale.append(ip.mul(scale[-1], lc))
        matrix = [[ip.mul(c, scale[top - e]) for c in row]
                  for row, e in reduced]
        try:
            return fraction_free_left_kernel(matrix)
        except NoKernel:
            continue
    raise VerificationFailed(
        f"no linear ODE of order below deg_y P = {len(pc) - 1}")


def _falling(j: int, k: int) -> list[int]:
    """(m + j)(m + j - 1)...(m + j - k + 1) as a dense list in m."""
    out = [1]
    for t in range(k):
        out = ip.mul(out, [j - t, 1])
    return out


def branch_recurrence(ann: Annihilator) -> PRecurrence:
    """A proved P-recurrence for the branch of P through (0, y0).

    The ODE c_(-1) + Σ_k c_k(z)·y^(k) = 0 of `_linear_ode` is read
    coefficientwise: [z^n] z^i·y^(k) = (n-i+1)_k·a_(n-i+k).  With
    m = n + lo, lo the least k - i over the terms, and j = k - i - lo,
    that is Σ_j p_j(m)·a_(m+j) = 0 where p_j(m) sums c_(k,i) times the
    falling factorial (m+j)(m+j-1)...(m+j-k+1).  It holds for every n past
    deg c_(-1), and for every n < 0 with m >= 0 because each term then has
    a zero factor; `holonomic._finish` raises the base past the integer
    zeros of the leading coefficient.  The first n0 + r terms come from
    Newton iteration over Q.
    """
    pc = _z_rows(ann.poly)
    ode = _linear_ode(ann.poly, pc)
    terms = [(k - i, k, c) for k, ck in enumerate(ode[1:])
             for i, c in enumerate(ck) if c]
    lo = min(t[0] for t in terms)
    q_dense: list[list[int]] = [[] for _ in range(
        max(t[0] for t in terms) - lo + 1)]
    for shift, k, c in terms:
        j = shift - lo
        q_dense[j] = ip.add(q_dense[j], [c * x for x in _falling(j, k)])
    n0_base = max(0, lo + len(ode[0]))

    def terms_of(count: int) -> list[Fraction]:
        pyc, py0 = _dy(pc, ann.y0)
        return next(_newton_prefixes(pc, pyc, ann.y0, 1 / py0, (count,),
                                     _conv_frac, _identity))

    return _finish(q_dense, n0_base, terms_of, empirical=False)


def expand_branch(ann: Annihilator, n: int) -> TruncSeries:
    """First n coefficients of the branch of P through (0, y0): the Newton
    prefix of `branch_recurrence`, unrolled to n terms."""
    if n < 1:
        raise SchemaError("need at least one coefficient")
    return unroll(branch_recurrence(ann), n)


def branch_residue_prefixes(ann: Annihilator, sizes: Iterable[int], p: int,
                            r: int = 1) -> Iterator[list[int]] | None:
    """The first n coefficients of the branch mod p^r (p prime) for each n
    in `sizes`, from one resumed Newton iteration; or None.

    The annihilator holds the primitive integer k·P.  When y0 is
    p-integral and k·P_y(0, y0) is a p-unit, every quantity in the Newton
    iteration is p-integral, so the iteration runs in (Z/p^r)[[z]]
    (Hensel lifting) with coefficients of r·log2(p) bits
    instead of the Θ(n) bits of the exact ones, and each prefix equals
    ``reduce_mod(expand_branch(ann, n), p, r)``.  Otherwise this returns
    None and only the exact expansion can say whether the branch is
    p-integral.  Sizes are drawn lazily, so a caller may stop before the
    last; a size no larger than one already reached costs only a slice, and
    a size below 1 raises `SchemaError` when it is drawn.
    """
    check_prime_power(p, r)
    pc = _z_rows(ann.poly)
    pyc, py0 = _dy(pc, ann.y0)
    if ann.y0.denominator % p == 0 or py0.numerator % p == 0:
        return None
    modulus = p ** r
    return _newton_prefixes(
        pc, pyc, residue(ann.y0, modulus),
        pow(residue(py0, modulus), -1, modulus), sizes,
        lambda a, b, limit: _conv_mod(a, b, limit, modulus),
        lambda x: x % modulus,
    )


def verify_annihilator(ann: Annihilator, f: TruncSeries) -> bool:
    """Check that P(z, f) vanishes mod z^order(f).

    [z^k] P(z, f) for k < order(f) involves only the known coefficients
    f_0..f_k, so the whole window is checked.
    """
    res = _eval_poly_at_series(_z_rows(ann.poly), list(f.coeffs), f.order)
    return not any(res)
