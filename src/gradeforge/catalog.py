"""Built-in series: the named examples every command can reference.

Each entry is the exact object the pipelines consume, so the CLI and tests
never need external data files: a `PRecurrence` for euler, exp and log1p,
the corpus `Annihilator` for geometric, central-binomial and catalan, whose
recurrence `algebraic.branch_recurrence` derives and proves, and a
`BuiltinSeries` coefficient rule for thue-morse-signs, which has neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .algebraic import Annihilator
from .errors import SchemaError
from .holonomic import PRecurrence
from .polynomials import Poly
from .series import TruncSeries


@dataclass(frozen=True)
class BuiltinSeries:
    """A series known only by a rule for its n-th coefficient."""

    coefficient: Callable[[int], Fraction]

    def expand(self, terms: int) -> TruncSeries:
        return TruncSeries(tuple(self.coefficient(n) for n in range(terms)))


Builtin = Union[PRecurrence, Annihilator, BuiltinSeries]

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


BUILTINS: dict[str, Builtin] = {
    "euler": PRecurrence.from_dense([[1, 1], [1]], 0, [1]),  # (-1)^n n!
    "exp": PRecurrence.from_dense([[-1], [1, 1]], 0, [1]),  # 1/n!
    # log(1+z): 0, then (-1)^(n+1)/n
    "log1p": PRecurrence.from_dense([[0, 1], [1, 1]], 1, [0, 1]),
    "geometric": CORPUS_ANNIHILATORS["geometric"],  # all-ones 1/(1-z)
    "central-binomial": CORPUS_ANNIHILATORS["central-binomial"],  # C(2n, n)
    "catalan": CORPUS_ANNIHILATORS["catalan"],  # C(2n, n)/(n+1)
    "thue-morse-signs": BuiltinSeries(_sign_by_bits),  # (-1)^(bit count of n)
}


def builtin_names() -> tuple[str, ...]:
    return tuple(BUILTINS)


def get_builtin(name: str) -> Builtin:
    try:
        return BUILTINS[name]
    except KeyError:
        raise SchemaError(
            f"unknown builtin {name!r}; choose from {', '.join(BUILTINS)}"
        ) from None
