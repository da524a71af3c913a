"""Built-in series: the named examples every command can reference.

Each entry carries an exact coefficient generator and, where the series
has one, a P-recursive recurrence and/or an algebraic annihilator, so the
CLI and tests never need external data files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .algebraic import Annihilator
from .errors import SchemaError
from .holonomic import PRecurrence, unroll
from .polynomials import Poly
from .series import TruncSeries


@dataclass(frozen=True)
class BuiltinSeries:
    coefficient: Callable[[int], Fraction]
    recurrence: Optional[PRecurrence] = None
    annihilator: Optional[Annihilator] = None

    def expand(self, terms: int) -> TruncSeries:
        """First `terms` coefficients, unrolled from the recurrence where
        there is one; `coefficient` stays as the reference for tests."""
        if terms < 1:
            raise SchemaError("need at least one coefficient")
        if self.recurrence is not None:
            return unroll(self.recurrence, terms)
        return TruncSeries(tuple(self.coefficient(n) for n in range(terms)))


_Z = Poly.variable(2, 0)
_Y = Poly.variable(2, 1)
_ONE = Poly.const(2, 1)

#: Annihilators for the algebraic members of the corpus (z, y variables).
CORPUS_ANNIHILATORS: dict[str, Annihilator] = {
    "catalan": Annihilator(_Z * _Y * _Y - _Y + _ONE, 1),
    "catalan-shifted": Annihilator(_Y * _Y - _Y + _Z, 0),
    "central-binomial": Annihilator(
        (_ONE - Poly.const(2, 4) * _Z) * _Y * _Y - _ONE, 1
    ),
    "geometric": Annihilator((_ONE - _Z) * _Y - _ONE, 1),
    "sqrt1p": Annihilator(_Y * _Y - _ONE - _Z, 1),
    "cbrt1m": Annihilator(_Y * _Y * _Y - _ONE + _Z, 1),
}


def _sign_by_bits(n: int) -> Fraction:
    return Fraction(-1 if bin(n).count("1") % 2 else 1)


BUILTINS: dict[str, BuiltinSeries] = {
    "euler": BuiltinSeries(  # alternating factorials (-1)^n n!
        lambda n: Fraction((-1) ** n * math.factorial(n)),
        PRecurrence.from_dense([[1, 1], [1]], 0, [1]),
    ),
    "exp": BuiltinSeries(  # 1/n!
        lambda n: Fraction(1, math.factorial(n)),
        PRecurrence.from_dense([[-1], [1, 1]], 0, [1]),
    ),
    "log1p": BuiltinSeries(  # log(1+z): 0, then (-1)^(n+1)/n
        lambda n: Fraction((-1) ** (n + 1), n) if n else Fraction(0),
        PRecurrence.from_dense([[0, 1], [1, 1]], 1, [0, 1]),
    ),
    "geometric": BuiltinSeries(  # all-ones 1/(1-z)
        lambda n: Fraction(1),
        PRecurrence.from_dense([[-1], [1]], 0, [1]),
        CORPUS_ANNIHILATORS["geometric"],
    ),
    "central-binomial": BuiltinSeries(  # binomial(2n, n)
        lambda n: Fraction(math.comb(2 * n, n)),
        PRecurrence.from_dense([[-2, -4], [1, 1]], 0, [1]),
        CORPUS_ANNIHILATORS["central-binomial"],
    ),
    "catalan": BuiltinSeries(  # Catalan numbers binomial(2n, n)/(n+1)
        lambda n: Fraction(math.comb(2 * n, n), n + 1),
        PRecurrence.from_dense([[-2, -4], [2, 1]], 0, [1]),
        CORPUS_ANNIHILATORS["catalan"],
    ),
    "thue-morse-signs": BuiltinSeries(_sign_by_bits),  # (-1)^(bit count of n)
}


def builtin_names() -> tuple[str, ...]:
    return tuple(BUILTINS)


def get_builtin(name: str) -> BuiltinSeries:
    try:
        return BUILTINS[name]
    except KeyError:
        raise SchemaError(
            f"unknown builtin {name!r}; choose from {', '.join(BUILTINS)}"
        ) from None


def expand_builtin(name: str, terms: int) -> TruncSeries:
    return get_builtin(name).expand(terms)
