"""Algebraic power series presented by a bivariate annihilating polynomial.

An :class:`Annihilator` is a nonzero P(z, y) together with a starting value
y0 satisfying P(0, y0) = 0.  When the root is simple (P_y(0, y0) != 0) the
branch through y0 is an unramified formal power series and `expand_branch`
computes its coefficients by Newton iteration with precision doubling:

    f  <-  f - P(z, f) / P_y(z, f)     (mod z^(2m))

`branch_residues` runs the same iteration in (Z/p^r)[[z]] when the branch
point stays a simple root mod p, so residues never pass through the exact
coefficients, whose bit size grows linearly in n.  `_newton_branch` is the
package's one Newton iteration (tan in :mod:`gradeforge.analytic` is a branch
too); its truncated products run in the integer kernel `_intpoly`.

Ramified branches (multiple roots of P(0, y) at y0, fractional exponents)
are rejected outright rather than half-supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _intpoly as ip
from .errors import NotARoot, RamifiedBranch, SchemaError, VerificationFailed
from .obstruction import is_prime
from .polynomials import Poly
from .rationals import coerce_rational, residue
from .series import TruncSeries


@dataclass(frozen=True)
class Annihilator:
    """P(z, y) plus the branch point y0; variables are (z, y) in that order."""

    poly: Poly
    y0: Fraction

    def __post_init__(self):
        if self.poly.nvars != 2:
            raise SchemaError("annihilator must be bivariate in (z, y)")
        if self.poly.is_zero():
            raise SchemaError("annihilator polynomial must be nonzero")
        if self.poly.degree_in(1) < 1:
            raise SchemaError("annihilator must involve y")
        object.__setattr__(self, "y0", coerce_rational(self.y0))


def _y_coefficient_lists(p: Poly) -> list[list[Fraction]]:
    """Coefficients of y^j as dense lists in z, index j = 0..deg_y."""
    dy = p.degree_in(1)
    dz = p.degree_in(0)
    out = [[Fraction(0)] * (dz + 1) for _ in range(dy + 1)]
    for (i, j), c in p.terms.items():
        out[j][i] = c
    return out


def _conv_frac(xs: Sequence[Fraction], ys: Sequence[Fraction],
               limit: int) -> list[Fraction]:
    """Truncated convolution over Fraction, zero-padded to `limit` entries.

    Denominators are cleared once per operand so the product runs in the
    integer kernel.
    """
    if not xs or not ys or limit <= 0:
        return []
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
    """P(z, f(z)) mod z^limit by Horner in y; the ring is given by `mul`
    (product truncated and zero-padded to `limit`) and `norm`."""
    res = list(coeff_lists[-1][:limit])
    res += [0] * (limit - len(res))
    for j in range(len(coeff_lists) - 2, -1, -1):
        res = mul(res, f, limit)
        cj = coeff_lists[j]
        for i in range(min(len(cj), limit)):
            if cj[i]:
                res[i] = norm(res[i] + cj[i])
    return res


def _branch_derivative(ann: Annihilator) -> tuple[Poly, Fraction]:
    """P_y and P_y(0, y0), after the exact checks at the branch point."""
    p = ann.poly
    y0 = ann.y0
    p0 = p.eval([Fraction(0), y0])
    if p0 != 0:
        raise NotARoot(f"P(0, {y0}) = {p0} != 0")
    py = p.derivative(1)
    py0 = py.eval([Fraction(0), y0])
    if py0 == 0:
        raise RamifiedBranch(
            "P_y(0, y0) = 0: multiple root at the branch point"
        )
    return py, py0


def _newton_branch(pc, pyc, y0, g0, n, mul, norm):
    """First n coefficients of the branch through y0, by Newton iteration.

    pc and pyc are the y-coefficient lists of P and P_y over the ring, y0
    the branch point and g0 = 1/P_y(0, y0) in it.  `mul(a, b, k)` is the
    product truncated and zero-padded to k entries; `norm` brings a sum or
    a negation back to a canonical ring element.
    """
    # f: branch prefix, correct mod z^m.
    # g: inverse of P_y(z, f), maintained lazily at order gm.  Each pass
    # needs g only mod z^h where h = m2 - m <= m, so one Newton lift of g
    # (valid because h <= 2*gm throughout the doubling schedule) is enough,
    # and the expensive correction P/P_y reduces to a half-size "middle
    # product": P(z, f) vanishes mod z^m, so only its top h coefficients
    # times g[:h] contribute.
    f = [y0]
    g = [g0]
    gm = 1
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        h = m2 - m
        if gm < h:
            if h > 2 * gm:
                raise VerificationFailed(
                    f"one Newton lift cannot take 1/P_y from order {gm} to {h}"
                )
            dval = _eval_poly_at_series(pyc, f[:h], h, mul, norm)
            ar = mul(dval, g, h)
            two_minus = [norm(2 - ar[0])] + [norm(-x) for x in ar[1:]]
            g = mul(g, two_minus, h)
            gm = h
        f_pad = f + [0] * (m2 - len(f))
        val = _eval_poly_at_series(pc, f_pad, m2, mul, norm)
        corr = mul(val[m:m2], g[:h], h)
        f = f[:m] + [norm(-c) for c in corr]
        m = m2
    return f[:n]


def expand_branch(ann: Annihilator, n: int) -> TruncSeries:
    """First n coefficients of the branch of P through (0, y0).

    Quadratic Newton convergence: precision doubles each pass, so the loop
    runs O(log n) times with the last pass dominating.
    """
    if n < 1:
        raise SchemaError("need at least one coefficient")
    py, py0 = _branch_derivative(ann)
    f = _newton_branch(_y_coefficient_lists(ann.poly),
                       _y_coefficient_lists(py), ann.y0, 1 / py0, n,
                       _conv_frac, _identity)
    return TruncSeries(tuple(f))


def branch_residues(ann: Annihilator, n: int, p: int,
                    r: int = 1) -> list[int] | None:
    """First n coefficients of the branch mod p^r (p prime), or None.

    P is scaled by the rational k that makes k·P a primitive integer
    polynomial.  When y0 is p-integral and k·P_y(0, y0) is a p-unit, every
    quantity in the Newton iteration is p-integral, so the iteration runs
    in (Z/p^r)[[z]] (Hensel lifting) with coefficients of r·log2(p) bits
    instead of the Θ(n) bits of the exact ones, and the result equals
    ``reduce_mod(expand_branch(ann, n), p, r)``.  Otherwise this returns
    None and only the exact expansion can say whether the branch is
    p-integral.  The exact checks at the branch point run first.
    """
    if n < 1:
        raise SchemaError("need at least one coefficient")
    if r < 1 or not is_prime(p):
        raise SchemaError(
            f"need a prime p and an exponent r >= 1, got p = {p}, r = {r}")
    py, py0 = _branch_derivative(ann)
    coeffs = ann.poly.terms.values()
    den = math.lcm(*(c.denominator for c in coeffs))
    k = Fraction(den, math.gcd(*(int(c * den) for c in coeffs)))
    if ann.y0.denominator % p == 0 or (py0 * k).numerator % p == 0:
        return None
    modulus = p ** r

    def lists(poly: Poly) -> list[list[int]]:
        return [[residue(c * k, modulus) for c in row]
                for row in _y_coefficient_lists(poly)]

    return _newton_branch(
        lists(ann.poly), lists(py), residue(ann.y0, modulus),
        pow(residue(py0 * k, modulus), -1, modulus), n,
        lambda a, b, limit: _conv_mod(a, b, limit, modulus),
        lambda x: x % modulus,
    )


def verify_annihilator(ann: Annihilator, f: TruncSeries) -> bool:
    """Check P(z, f) vanishes through the trustworthy window.

    The residual is checked through order(f) - deg_z(P): the final deg_z(P)
    coefficient slots could in principle mix in unknown coefficients of f, so
    they are excluded (a deliberately conservative margin).
    """
    n = f.order
    slack = max(ann.poly.degree_in(0), 0)
    window = n - slack
    if window <= 0:
        return True
    pc = _y_coefficient_lists(ann.poly)
    res = _eval_poly_at_series(pc, list(f.coeffs), n)
    return all(res[i] == 0 for i in range(window))
