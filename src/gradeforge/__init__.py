"""Exact and numeric tooling for coefficientwise products of power series.

The package is organized around a few object families:

* truncated series and their termwise product (:mod:`gradeforge.series`,
  :mod:`gradeforge.rationals`),
* algebraic branches, expanded by one Newton iteration over Q or mod p^r
  (:mod:`gradeforge.polynomials`, :mod:`gradeforge.algebraic`),
* linear recurrences with polynomial coefficients, their closure under the
  coefficientwise product, and sequence guessing (:mod:`gradeforge.holonomic`),
* finite-state residue analysis modulo prime powers (:mod:`gradeforge.automata`),
* diagonal witnesses for coefficientwise products of algebraic series
  (:mod:`gradeforge.diagonals`),
* numeric/analytic checks: a divergent-series integral comparison, an optical
  resummation identity, and even-zeta spot checks (:mod:`gradeforge.analytic`),
* heuristics that report evidence against small closed forms
  (:mod:`gradeforge.obstruction`).

``python -m gradeforge.cli`` (installed as ``gradeforge``) exposes the main
workflows as subcommands.
"""

from gradeforge.algebraic import Annihilator, expand_branch
from gradeforge.analytic import (
    ExpPolyRational,
    QuadratureConfig,
    euler_branch_formula,
    euler_integral,
    euler_report,
    optics_identity_check,
    rational_hadamard,
    zeta_odd_denominator_check,
)
from gradeforge.automata import (
    ChristolReport,
    KernelAutomaton,
    KernelBudgets,
    christol_report,
    kernel_closure,
    reduce_mod,
)
from gradeforge.catalog import builtin_names, expand_builtin, get_builtin
from gradeforge.config import Defaults, load_defaults
from gradeforge.descriptors import SeriesDescriptor, expand_descriptor, materialize
from gradeforge.diagonals import (
    DiagonalWitness,
    diagonal_extract,
    diagonal_witness,
    furstenberg_bivariate,
    product_lift,
    product_witness,
)
from gradeforge.errors import (
    BudgetError,
    GradeforgeError,
    MathPreconditionError,
    SchemaError,
)
from gradeforge.holonomic import PRecurrence, guess_recurrence, hadamard_recurrence
from gradeforge.obstruction import ObstructionReport, obstruction_report
from gradeforge.polynomials import Poly, RatFun
from gradeforge.series import TruncSeries, hadamard_mul

__version__ = "0.1.0"

__all__ = [
    "Annihilator",
    "BudgetError",
    "ChristolReport",
    "Defaults",
    "DiagonalWitness",
    "ExpPolyRational",
    "GradeforgeError",
    "KernelAutomaton",
    "KernelBudgets",
    "MathPreconditionError",
    "ObstructionReport",
    "PRecurrence",
    "Poly",
    "QuadratureConfig",
    "RatFun",
    "SchemaError",
    "SeriesDescriptor",
    "TruncSeries",
    "builtin_names",
    "christol_report",
    "diagonal_extract",
    "diagonal_witness",
    "euler_branch_formula",
    "euler_integral",
    "euler_report",
    "expand_branch",
    "expand_builtin",
    "expand_descriptor",
    "furstenberg_bivariate",
    "get_builtin",
    "guess_recurrence",
    "hadamard_mul",
    "hadamard_recurrence",
    "kernel_closure",
    "load_defaults",
    "materialize",
    "obstruction_report",
    "optics_identity_check",
    "product_lift",
    "product_witness",
    "rational_hadamard",
    "reduce_mod",
    "zeta_odd_denominator_check",
]
