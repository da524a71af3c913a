"""Truncated power series with exact rational coefficients.

A series is a prefix of coefficients; ``order`` is the number of known
coefficients (so indices 0 .. order-1 are meaningful and nothing else is).
Binary operations truncate to the shorter operand.  No operation ever reads
past a series' declared order; results never pretend to know more than the
inputs justify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import _intpoly as ip
from .errors import TruncationExceeded, ZeroConstantTerm
from .rationals import coerce_rational


@dataclass(frozen=True)
class TruncSeries:
    """Known coefficient prefix of a formal power series."""

    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def from_list(values: Iterable) -> "TruncSeries":
        return TruncSeries(tuple(coerce_rational(v) for v in values))

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise TruncationExceeded(
                f"cannot extend a series of order {self.order} to {order}"
            )
        return TruncSeries(self.coeffs[:order])


def hadamard_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Termwise product; order = min of the operand orders."""
    n = min(a.order, b.order)
    return TruncSeries(tuple(x * y for x, y in zip(a.coeffs[:n], b.coeffs[:n])))


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


def cauchy_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Convolution product; order = min of the operand orders."""
    n = min(a.order, b.order)
    return TruncSeries(tuple(_conv_frac(a.coeffs[:n], b.coeffs[:n], n)))


def _recip_list(a: Sequence[Fraction], n: int) -> list[Fraction]:
    inv0 = Fraction(1) / a[0]
    r = [inv0]
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        ar = _conv_frac(a[:m2], r, m2)
        corr = [Fraction(2) - ar[0]] + [-x for x in ar[1:]]
        r = _conv_frac(r, corr, m2)
        r.extend([Fraction(0)] * (m2 - len(r)))
        m = m2
    return r[:n]


def reciprocal(a: TruncSeries) -> TruncSeries:
    """Multiplicative inverse through the same order.

    Requires a nonzero constant term.
    """
    if a.order == 0:
        return a
    if a.coeffs[0] == 0:
        raise ZeroConstantTerm("series has no inverse: constant term is zero")
    return TruncSeries(tuple(_recip_list(a.coeffs, a.order)))


def compose_scale(a: TruncSeries, c) -> TruncSeries:
    """Substitute z -> c*z, i.e. multiply coefficient n by c^n."""
    c = coerce_rational(c)
    out = []
    p = Fraction(1)
    for x in a.coeffs:
        out.append(x * p)
        p *= c
    return TruncSeries(tuple(out))
