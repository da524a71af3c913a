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

All of it is integer arithmetic on y-rows (`_z_rows`): ∂_z is
`_intpoly.deriv` on each row and ∂_y scales and shifts the rows.  Over the
common denominator D^(2K-1), the numerators of 1, y, y', ..., y^(K) are
pseudo-reduced mod P in y, scaled to one power of lc_y(P), and the first K
whose numerators have a left kernel over Z[z] give a linear ODE.  A combination
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
use.  The iteration runs over a small ring interface.  Over Q
(`_Rationals`) a series is a Fraction list whose products run in the
integer kernel's `_intpoly.conv`.  Mod p^r it is one packed integer, a
coefficient per slot (`_intpoly.ResidueRing`): a truncated product is one
big-integer product, and one Barrett step reduces every slot mod p^r at
once, so no Python loop runs over the coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from . import _intpoly as ip
from .errors import (
    BudgetExceeded,
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

#: Cap on the dense size (deg_z P + 1)·(deg_y P + 1) of an annihilator.
#: The y-rows of P are dense in z, so a short sparse payload such as
#: z^(10^9)·y^2 - y + 1 would otherwise allocate gigabytes; 10^6 entries
#: is the desk scale of `diagonals.DESK_MAX_WORK`.
MAX_DENSE_SIZE = 10 ** 6


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
        dense = (self.poly.degree_in(0) + 1) * (self.poly.degree_in(1) + 1)
        if dense > MAX_DENSE_SIZE:
            raise BudgetExceeded(
                f"P has dense size {dense} > {MAX_DENSE_SIZE} coefficients")
        y0 = coerce_rational(self.y0)
        object.__setattr__(self, "y0", y0)
        content = math.gcd(*self.poly.terms.values())
        object.__setattr__(self, "poly", Poly(2, {
            e: c // content for e, c in self.poly.terms.items()}))
        pc = _z_rows(self.poly)
        p0 = _at_origin(pc, y0)
        if p0 != 0:
            raise NotARoot(f"P(0, {y0}) = {p0} != 0")
        if _at_origin(_dy(pc), y0) == 0:
            raise RamifiedBranch(
                "P_y(0, y0) = 0: multiple root at the branch point"
            )


class _Rationals:
    """Q[[z]] truncated, as Fraction lists: the ring of the recurrence's
    Newton prefix and of `verify_annihilator`; `_intpoly.ResidueRing` is
    the same interface over Z/p^r."""

    def reach(self, n, *xs):
        return xs

    def row(self, values, limit):
        return list(values[:limit])

    def prefix(self, f, n):
        return f[:n]

    def mul(self, a, b, limit, plus=()):
        """a·b + plus mod z^limit, each operand cleared once for `conv`."""
        ia, da = ip.clear_denominators(a[:limit])
        ib, db = ip.clear_denominators(b[:limit])
        out = [Fraction(c, da * db) for c in ip.conv(ia, ib, limit)]
        out.extend([Fraction(0)] * (limit - len(out)))
        for i, c in enumerate(plus):
            if c:
                out[i] += c
        return out

    def neg(self, x, limit, c=0):
        return [c - x[0]] + [-v for v in x[1:limit]]

    def shift(self, x, k):
        return x[k:]

    def append(self, f, k, tail):
        return f + tail


_RATIONALS = _Rationals()


def _eval_poly_at_series(coeff_lists, f, limit, ring=_RATIONALS):
    """P(z, f(z)) mod z^limit by Horner in y, for P given by integer
    y-rows, in `ring` (see `_newton_prefixes`)."""
    res = ring.row(coeff_lists[-1], limit)
    for row in coeff_lists[-2::-1]:
        res = ring.mul(res, f, limit, ring.row(row, limit))
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


def _newton_prefixes(pc, pyc, y0, g0, sizes, ring):
    """Yield the first n coefficients of the branch through y0 for each n
    in `sizes`, by one Newton iteration that resumes from the precision it
    already holds, so a run through ascending sizes costs about what the
    last size alone costs.

    pc and pyc are the integer y-rows of P and P_y, y0 the branch point
    and g0 = 1/P_y(0, y0) in the ring.  The ring holds truncated series:
    `reach(n, *xs)` readies it for series of n terms (re-encoding xs),
    `row(values, k)` reads k coefficients in, `prefix(x, k)` writes them
    out, `mul(a, b, k, plus)` is a·b + plus mod z^k, `neg(x, k, c)` is
    c - x mod z^k, `shift(x, k)` divides by z^k and `append(f, k, tail)`
    is f + z^k·tail.
    """
    # f: branch prefix, correct mod z^held.
    # g: inverse of P_y(z, f), correct mod z^held_g and lifted lazily.  A
    # step from m to m2 needs g only mod z^h, h = m2 - m <= m, and the
    # expensive correction P/P_y reduces to a half-size "middle product":
    # P(z, f) vanishes mod z^m, so only its top h coefficients times g
    # contribute.  P_y(z, f) mod z^h is final once f is, so g is lifted in
    # place by its own Newton steps, each at most doubling its precision.
    f = ring.row([y0], 1)
    g = ring.row([g0], 1)
    held = held_g = 1
    for n in sizes:
        if n < 1:
            raise SchemaError(f"need at least one coefficient, got {n}")
        f, g = ring.reach(n, f, g)
        for m2 in _precision_steps(held, n):
            h = m2 - held
            for gm in _precision_steps(held_g, h):
                dval = _eval_poly_at_series(pyc, f, gm, ring)
                g = ring.mul(g, ring.neg(ring.mul(dval, g, gm), gm, 2), gm)
                held_g = gm
            val = _eval_poly_at_series(pc, f, m2, ring)
            f = ring.append(f, held, ring.neg(
                ring.mul(ring.shift(val, held), g, h), h))
            held = m2
        yield ring.prefix(f, n)


def _z_rows(p: Poly) -> list[list[int]]:
    """P(z, y) as its y-coefficients, dense `_intpoly` lists in z."""
    rows = [[0] * (p.degree_in(0) + 1) for _ in range(p.degree_in(1) + 1)]
    for (i, j), c in p.terms.items():
        rows[j][i] = c
    return [ip.trim(row) for row in rows]


# Bivariate forms as y-rows (see `_z_rows`); a form may end in zero rows.

def _at_origin(rows: list[list[int]], y0: Fraction) -> Fraction:
    """P(0, y0)."""
    return sum(row[0] * y0 ** j for j, row in enumerate(rows) if row)


def _dy(rows: list[list[int]]) -> list[list[int]]:
    """∂P/∂y: row j times j, one power of y down."""
    return [[j * c for c in row] for j, row in enumerate(rows)][1:]


def _rsum(*terms) -> list[list[int]]:
    """Σ c·a·b over the (c, a, b) in terms: c an int, a and b forms."""
    out: list[list[int]] = []
    for c, a, b in terms:
        out += [[]] * (len(a) + len(b) - 1 - len(out))
        for i, x in enumerate(a):
            if x:
                x = [c * v for v in x]
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = ip.add(out[i + j], ip.mul(x, y))
    return out


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


def _linear_ode(pc: list[list[int]]) -> list[list[int]]:
    """Integer polynomials c_(-1), c_0, ..., c_K in z, not all of
    c_0..c_K zero, with c_(-1) + Σ c_k·y^(k) = 0 on every simple branch of
    the integer P whose y-rows are pc; K is the least order for which the
    derivation finds one."""
    pz, dp = list(map(ip.deriv, pc)), _dy(pc)
    twist = _rsum((1, list(map(ip.deriv, dp)), dp), (-1, _dy(dp), pz))
    dpz = _rsum((1, dp, pz))
    dpow = [[[1]]]  # dpow[i] = D^i
    a = [None, [ip.neg(row) for row in pz]]  # y^(k) = A_k / D^(2k-1)
    for order in range(len(pc) - 1):
        while len(dpow) < 2 * order:
            dpow.append(_rsum((1, dpow[-1], dp)))
        if order > 1:
            ak, k = a[-1], order - 1
            a.append(_rsum((1, dpow[2], list(map(ip.deriv, ak))),
                           (-1, dpz, _dy(ak)), (1 - 2 * k, twist, ak)))
        one = dpow[max(2 * order - 1, 0)]
        rows = [one, [[]] + one]
        rows += [_rsum((1, a[k], dpow[2 * order - 2 * k]))
                 for k in range(1, order + 1)]
        reduced = [_prem_y(row, pc) for row in rows]
        top = max(e for _, e in reduced)
        scale = [[1]]
        for _ in range(top):
            scale.append(ip.mul(scale[-1], pc[-1]))
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
    ode = _linear_ode(pc)
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
        pyc = _dy(pc)
        return next(_newton_prefixes(pc, pyc, ann.y0,
                                     1 / _at_origin(pyc, ann.y0), (count,),
                                     _RATIONALS))

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
    pyc = _dy(pc)
    py0 = _at_origin(pyc, ann.y0)
    if ann.y0.denominator % p == 0 or py0.numerator % p == 0:
        return None
    modulus = p ** r
    return _newton_prefixes(
        pc, pyc, residue(ann.y0, modulus),
        pow(residue(py0, modulus), -1, modulus), sizes,
        ip.ResidueRing(modulus))


def verify_annihilator(ann: Annihilator, f: TruncSeries) -> bool:
    """Check that P(z, f) vanishes mod z^order(f).

    [z^k] P(z, f) for k < order(f) involves only the known coefficients
    f_0..f_k, so the whole window is checked.
    """
    res = _eval_poly_at_series(_z_rows(ann.poly), list(f.coeffs), f.order)
    return not any(res)
