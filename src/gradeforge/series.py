"""Truncated power series with exact rational coefficients.

A series is a prefix of coefficients; ``order`` is the number of known
coefficients (so indices 0 .. order-1 are meaningful and nothing else is).
The one binary operation is the paper's Hadamard (termwise) product, which
truncates to the shorter operand.  No operation ever reads past a series'
declared order; results never pretend to know more than the inputs justify.
Convolution products live with the Newton iteration in
:mod:`gradeforge.algebraic`, their only user.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import TruncationExceeded
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
