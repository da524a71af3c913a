"""Algebraic power series presented by a bivariate annihilating polynomial.

An :class:`Annihilator` is a nonzero P(z, y) together with a starting value
y0 satisfying P(0, y0) = 0.  When the root is simple (P_y(0, y0) != 0) the
branch through y0 is an unramified formal power series and `expand_branch`
computes its coefficients by Newton iteration with precision doubling:

    f  <-  f - P(z, f) / P_y(z, f)     (mod z^(2m))

Ramified branches (multiple roots of P(0, y) at y0, fractional exponents)
are rejected outright rather than half-supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotARoot, RamifiedBranch, VerificationFailed
from .polynomials import Poly
from .rationals import coerce_rational
from .series import TruncSeries, _conv_frac


@dataclass(frozen=True)
class Annihilator:
    """P(z, y) plus the branch point y0; variables are (z, y) in that order."""

    poly: Poly
    y0: Fraction

    def __post_init__(self):
        if self.poly.nvars != 2:
            raise ValueError("annihilator must be bivariate in (z, y)")
        if self.poly.is_zero():
            raise ValueError("annihilator polynomial must be nonzero")
        if self.poly.degree_in(1) < 1:
            raise ValueError("annihilator must involve y")
        object.__setattr__(self, "y0", coerce_rational(self.y0))


def _y_coefficient_lists(p: Poly) -> list[list[Fraction]]:
    """Coefficients of y^j as dense lists in z, index j = 0..deg_y."""
    dy = p.degree_in(1)
    dz = p.degree_in(0)
    out = [[Fraction(0)] * (dz + 1) for _ in range(dy + 1)]
    for (i, j), c in p.terms.items():
        out[j][i] = c
    return out


def _eval_poly_at_series(coeff_lists, f, limit):
    """P(z, f(z)) mod z^limit by Horner in y."""
    res = list(coeff_lists[-1][:limit])
    res += [Fraction(0)] * (limit - len(res))
    for j in range(len(coeff_lists) - 2, -1, -1):
        res = _conv_frac(res, f, limit)
        res += [Fraction(0)] * (limit - len(res))
        cj = coeff_lists[j]
        for i in range(min(len(cj), limit)):
            if cj[i]:
                res[i] += cj[i]
    return res


def expand_branch(ann: Annihilator, n: int) -> TruncSeries:
    """First n coefficients of the branch of P through (0, y0).

    Quadratic Newton convergence: precision doubles each pass, so the loop
    runs O(log n) times with the last pass dominating.
    """
    if n < 1:
        raise ValueError("need at least one coefficient")
    p = ann.poly
    y0 = ann.y0
    p0 = p.eval([Fraction(0), y0])
    if p0 != 0:
        raise NotARoot(f"P(0, {y0}) = {p0} != 0")
    py = p.derivative(1)
    if py.eval([Fraction(0), y0]) == 0:
        raise RamifiedBranch(
            "P_y(0, y0) = 0: multiple root at the branch point"
        )

    pc = _y_coefficient_lists(p)
    pyc = _y_coefficient_lists(py)

    # f: branch prefix, correct mod z^m.
    # g: reciprocal of P_y(z, f), maintained lazily at order gm.  Each pass
    # needs g only mod z^h where h = m2 - m <= m, so one Newton lift of g
    # (valid because h <= 2*gm throughout the doubling schedule) is enough,
    # and the expensive correction P/P_y reduces to a half-size "middle
    # product": P(z, f) vanishes mod z^m, so only its top h coefficients
    # times g[:h] contribute.
    f = [y0]
    g = [1 / Fraction(py.eval([Fraction(0), y0]))]
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
            dval = _eval_poly_at_series(pyc, f[:h], h)
            ar = _conv_frac(dval, g, h)
            two_minus = [2 - ar[0]] + [-x for x in ar[1:]]
            g = _conv_frac(g, two_minus, h)
            gm = h
        f_pad = f + [Fraction(0)] * (m2 - len(f))
        val = _eval_poly_at_series(pc, f_pad, m2)
        corr = _conv_frac(val[m:m2], g[:h], h)
        corr += [Fraction(0)] * (h - len(corr))
        f = f_pad[:m] + [-c for c in corr]
        m = m2
    return TruncSeries(tuple(f[:n]))


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
