"""Exception hierarchy.

Every error raised by the package derives from :class:`GradeforgeError`
and is raised as its family where the fault is found; the family alone
sets the CLI exit code: malformed input (2), violated mathematical
preconditions (3), exhausted work budgets (4).  Anything else, including
:class:`VerificationFailed`, is a defect and exits 1.  The first two
families also subclass the built-in bad-value exception, as
``json.JSONDecodeError`` does, so callers catching it keep working.
"""

from __future__ import annotations


class GradeforgeError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class SchemaError(GradeforgeError, ValueError):
    """Malformed descriptor, config, or wire payload."""

    exit_code = 2


class MathPreconditionError(GradeforgeError, ValueError):
    """Input is well-formed but violates a mathematical precondition."""

    exit_code = 3


class BudgetError(GradeforgeError):
    """A work budget (depth, state count, term count) is too small."""

    exit_code = 4


class VerificationFailed(GradeforgeError):
    """An exact self-check failed: a result disagrees with an independent
    recomputation or breaks an invariant of its construction.  This is a
    defect in the package, never a property of the input."""


# -- exact algebra ----------------------------------------------------------

class InexactDivision(MathPreconditionError):
    """Polynomial division left a nonzero remainder."""


class VariableMismatch(MathPreconditionError):
    """Operands live in polynomial rings with different variable counts."""


class NoKernel(MathPreconditionError):
    """The matrix has full column rank; no left kernel vector exists."""


# -- series -----------------------------------------------------------------

class TruncationExceeded(MathPreconditionError):
    """A truncated series holds fewer terms than the operation needs."""


# -- algebraic series -------------------------------------------------------

class NotARoot(MathPreconditionError):
    """y0 is not a root of P(0, y)."""


class RamifiedBranch(MathPreconditionError):
    """P_y(0, y0) = 0: the branch is ramified (or y0 is a multiple root)."""


# -- holonomic --------------------------------------------------------------

class DegenerateInput(MathPreconditionError):
    """Recurrence input whose leading coefficient window is identically zero."""


class UnderdeterminedRecurrence(MathPreconditionError):
    """Supplied initial terms do not cover every index the recurrence skips."""


class NoFit(MathPreconditionError):
    """Recurrence guessing found only the zero solution."""


# -- obstruction ------------------------------------------------------------

class TooSparse(MathPreconditionError):
    """Too few nonzero coefficients for a meaningful growth fit."""


class NotSignSequence(MathPreconditionError):
    """Periodicity scan applied to entries outside {+1, -1}."""


# -- mod-p automata ---------------------------------------------------------

class PrimeDividesDenominator(MathPreconditionError):
    """Reduction mod p^r hit a coefficient denominator divisible by p."""

    def __init__(self, p: int, index: int):
        super().__init__(
            f"prime {p} divides the denominator of coefficient {index}"
        )
        self.p = p
        self.index = index


class BudgetTooSmall(BudgetError):
    """Source truncation cannot support the requested fingerprint/depth."""


# -- diagonal lifts ---------------------------------------------------------

class DenominatorVanishesAtOrigin(MathPreconditionError):
    """Diagonal extraction needs den(0, ..., 0) != 0."""


class BudgetExceeded(BudgetError):
    """Requested expansion exceeds the desk-scale work cap."""


# -- analytic bench ---------------------------------------------------------

class NonPositiveArgument(MathPreconditionError):
    """Integral representation only converges for z > 0."""


class InsufficientTerms(BudgetError):
    """Series tail bound still exceeds tolerance at the term cap."""


class NotOdd(MathPreconditionError):
    """Plate identity requires an odd series (even coefficients zero)."""
