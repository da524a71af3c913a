"""Floating-point bench for the analytic facts the exact modules lean on.

Covers the exponential integral I(z) = ∫_0^∞ e^{-u}/(1+zu) du (quadrature
and its branch/series formula), closed-form Hadamard products of rational
coefficient sequences with the pole-product law, and the plate-stack
series identity with its odd-zeta special values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .algebraic import Annihilator, expand_branch
from .config import DEFAULTS
from .errors import (
    InsufficientTerms,
    NonPositiveArgument,
    NotOdd,
    SchemaError,
    TruncationExceeded,
    VerificationFailed,
)
from .polynomials import Poly
from .rationals import wire_int
from .series import TruncSeries

#: Euler–Mascheroni constant, 30 digits.
EULER_GAMMA = 0.577215664901532860606512090082

#: I(1) = -e(γ + Σ (-1)^n/(n·n!)), the value the z = 1 cross-checks pin.
GOMPERTZ = 0.5963473623231940743


# -- exp-poly rational sequences ----------------------------------------------

def _poly_add(p: Sequence, q: Sequence) -> tuple:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] = out[i] + c
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return tuple(out)


def _poly_mul(p: Sequence, q: Sequence) -> tuple:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return tuple(out)


def _poly_trim(p: Sequence) -> tuple:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _poly_eval(p: Sequence, n: int):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * n + c
    return acc


def _exactly_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


@dataclass(frozen=True)
class ExpPolyRational:
    """Coefficient sequence a_n = Σ_i p_i(n) · α_i^(-n-1).

    Each term is (pole, multiplicity, residue-polynomial coefficients in
    n); these are exactly the partial-fraction coefficient forms of
    rational functions with nonzero poles.  Poles may be Fractions (exact
    work) or floats/complex (bench work).
    """

    terms: tuple[tuple[object, int, tuple], ...]

    def __post_init__(self):
        merged: dict = {}
        for item in self.terms:
            if len(item) != 3:
                raise SchemaError("term must be (pole, multiplicity, poly)")
            pole, mult, poly = item
            if pole == 0:
                raise SchemaError("poles must be nonzero")
            wire_int(mult, "multiplicity", 1)
            poly = _poly_trim(tuple(poly))
            if len(poly) > mult:
                raise SchemaError(
                    "residue polynomial degree must stay below the multiplicity"
                )
            if not poly:
                continue
            if pole in merged:
                poly = _poly_add(merged[pole], poly)
            merged[pole] = poly
        clean = []
        # exact for int and Fraction poles, so distinct poles never tie
        for pole in sorted(merged, key=lambda p: (p.real, p.imag)):
            poly = _poly_trim(merged[pole])
            if poly:
                clean.append((pole, len(poly), poly))
        object.__setattr__(self, "terms", tuple(clean))

    @classmethod
    def simple_pole(cls, alpha) -> "ExpPolyRational":
        """The sequence of 1/(α - z): a_n = α^(-n-1)."""
        return cls(((alpha, 1, (1,)),))

    @property
    def is_exact(self) -> bool:
        return all(
            _exactly_rational(pole) and all(_exactly_rational(c) for c in poly)
            for pole, _, poly in self.terms
        )

    @property
    def poles(self) -> tuple:
        return tuple(pole for pole, _, _ in self.terms)

    def coefficient(self, n: int):
        if n < 0:
            raise SchemaError("coefficient index must be nonnegative")
        total = Fraction(0)
        for pole, _, poly in self.terms:
            # exact for int and Fraction poles, float or complex otherwise
            power = (Fraction(1) * pole) ** (-n - 1)
            total = total + _poly_eval(poly, n) * power
        return total

    def expand(self, order: int) -> TruncSeries:
        if not self.is_exact:
            raise SchemaError("only exact (rational) sequences expand to a series")
        return TruncSeries(tuple(self.coefficient(n) for n in range(order)))


def rational_hadamard(f: ExpPolyRational, g: ExpPolyRational) -> ExpPolyRational:
    """Termwise product of the coefficient forms.

    (p(n) α^(-n-1)) · (q(n) β^(-n-1)) = (pq)(n) (αβ)^(-n-1), so the output
    poles all lie in the product set {α_i β_j}; coinciding products merge
    by summing residue polynomials.
    """
    terms = []
    for pa, _, pp in f.terms:
        for pb, _, pq in g.terms:
            prod_poly = _poly_mul(pp, pq)
            terms.append((pa * pb, len(prod_poly), prod_poly))
    return ExpPolyRational(tuple(terms))


# -- exponential integral -----------------------------------------------------

#: Largest node count: the error estimate also runs the 2·nodes rule, and
#: past 188 nodes the smallest Gauss–Laguerre weights underflow to 0.
MAX_LAGUERRE_NODES = 93


@dataclass(frozen=True)
class QuadratureConfig:
    nodes: int = DEFAULTS.laguerre_nodes
    tolerance: float = DEFAULTS.quad_tolerance

    def __post_init__(self):
        if wire_int(self.nodes, "quadrature nodes", 8) > MAX_LAGUERRE_NODES:
            raise SchemaError(f"quadrature nodes must be at most {MAX_LAGUERRE_NODES}")
        if not self.tolerance > 0:
            raise SchemaError("tolerance must be positive")


@functools.lru_cache(maxsize=8)
def _laguerre_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-point Gauss–Laguerre rule: Newton on the three-term recurrence
    from `gaulag`'s starting guesses (Numerical Recipes), with Christoffel
    weights 1/Σ_{k<n} L_k(x)², which round less than x/(n·L_{n-1}(x))²."""
    nodes, weights = [], []
    for i in range(n):
        if i == 0:
            x = 3.0 / (1.0 + 2.4 * n)
        elif i == 1:
            x += 15.0 / (1.0 + 2.5 * n)
        else:
            x += (1.0 + 2.55 * (i - 1)) / (1.9 * (i - 1)) * (x - nodes[i - 2])
        for _ in range(20):
            p1, p2, squares = 1.0, 0.0, 0.0  # L_j(x), L_{j-1}(x), Σ_{k<j} L_k(x)²
            for j in range(n):
                squares += p1 * p1
                p1, p2 = ((2 * j + 1 - x) * p1 - j * p2) / (j + 1), p1
            step = p1 * x / (n * (p1 - p2))  # L_n(x) / L_n'(x)
            x -= step
            if abs(step) <= 3e-14 * x:
                break
        nodes.append(x)
        weights.append(1.0 / squares)
    if not abs(math.fsum(weights) - 1.0) <= 1e-12:  # ∫_0^∞ e^(-u) du = 1
        raise VerificationFailed(f"{n}-node Gauss–Laguerre weights do not sum to 1")
    return tuple(nodes), tuple(weights)


def _laguerre_value(z: float, n: int) -> float:
    x, w = _laguerre_rule(n)
    return math.fsum(wi / (1.0 + z * xi) for xi, wi in zip(x, w))


def _exp_sinh_value(z: float, tolerance: float) -> tuple[float, float]:
    """I(z) and its last level difference by the exp-sinh rule u = exp(π/2·sinh t),
    |t| ≤ 4.5 (Takahasi and Mori, 1974), halving the step h from 1/2 until two
    levels agree within max(tolerance, 1e-12·|value|) or h = 2^-10.  The window
    loses at most e^-70: 0 < e^(-u)/(1+zu) ≤ 1 on u < e^-70, and e^(-u)
    vanishes past e^70."""

    def term(t: float) -> float:
        u = math.exp(math.pi / 2 * math.sinh(t))
        return u * math.exp(-u) / (1.0 + z * u) * math.pi / 2 * math.cosh(t)

    value = math.inf
    for level in range(1, 11):
        h, m = 2.0**-level, 9 * 2 ** (level - 1)  # m·h = 4.5
        new = h * math.fsum(term(k * h) for k in range(-m, m + 1))
        diff, value = abs(new - value), new
        if diff <= max(tolerance, 1e-12 * abs(value)):
            break
    return value, diff


def _integral_with_error(z: float, cfg: QuadratureConfig) -> tuple[float, float, str]:
    v1, v2 = (_laguerre_value(z, n) for n in (cfg.nodes, 2 * cfg.nodes))
    doubling = abs(v2 - v1)
    # The Laguerre weight undersamples the slowly decaying 1/(1+zu) tail once
    # z is large: fall back to exp-sinh there or when doubling does not settle.
    if z < 4.0 and doubling <= cfg.tolerance:
        return v2, doubling, f"gauss-laguerre-{2 * cfg.nodes}"
    return (*_exp_sinh_value(z, cfg.tolerance), "adaptive")


def euler_integral(z: float, cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """I(z) = ∫_0^∞ e^(-u)/(1+zu) du for z > 0."""
    if not z > 0:
        raise NonPositiveArgument(f"integral requires z > 0, got {z}")
    return _integral_with_error(z, cfg)[0]


def euler_branch_formula(z: float, terms: int = DEFAULTS.branch_terms) -> float:
    """Principal-branch value of I(z) from the series formula.

    I(z) = -(1/z) e^(1/z) log(1/z) + S(1/z) with
    S(y) = -y e^y (γ + Σ_{n≥1} (-y)^n / (n·n!)).
    """
    if not 0 < z < math.inf:  # log(1/z) needs a finite z
        raise NonPositiveArgument(f"formula requires finite z > 0, got {z}")
    if terms < 1:
        raise SchemaError("need at least one series term")
    y = 1.0 / z
    try:
        bound = y**terms / (terms * math.factorial(terms))
    except OverflowError:
        bound = math.inf
    if not bound < 1e-12:
        raise InsufficientTerms(
            f"tail bound {bound:.3e} at {terms} terms exceeds 1.0e-12"
        )
    tail = sum((-y) ** n / (n * math.factorial(n)) for n in range(1, terms + 1))
    front = -y * math.exp(y)
    return front * math.log(y) + front * (EULER_GAMMA + tail)


def branch_offset(z: float) -> float:
    """Spacing 2π z^(-1) e^(1/z) between adjacent branches of I at z > 0."""
    if not z > 0:
        raise NonPositiveArgument(f"branch spacing defined for z > 0, got {z}")
    try:
        return 2.0 * math.pi * math.exp(1.0 / z) / z
    except OverflowError:
        return math.inf


def euler_report(
    z: float, cfg: QuadratureConfig = QuadratureConfig(),
    terms: int = DEFAULTS.branch_terms,
) -> dict:
    """Quadrature value vs. the branch formula, with error bars.  The
    formula runs first, so it refuses a z outside (0, inf) or too few terms
    before any quadrature runs."""
    reference = euler_branch_formula(z, terms)
    value, err, method = _integral_with_error(z, cfg)
    return {
        "value": value,
        "error_estimate": err,
        "reference": reference,
        "discrepancy": abs(value - reference),
        "method": method,
        "branch_offset": branch_offset(z),
    }


def euler_derivative_check(
    n: int, cfg: QuadratureConfig = QuadratureConfig()
) -> tuple[float, float, float]:
    """Central-difference estimate of I^(n)(0) against (-1)^n (n!)^2.

    Returns (estimate, reference, relative error).  Loose by nature: the
    stencil sits at a small positive center because I is only defined for
    z > 0, so the estimate carries an O(center) bias.
    """
    if not 0 <= n <= 3:
        raise SchemaError("derivative check implemented for n = 0..3")
    val = lambda t: euler_integral(t, cfg)
    center, h = 2e-3, 5e-4
    if n == 0:
        est = val(center)
    elif n == 1:
        est = (val(center + h) - val(center - h)) / (2 * h)
    elif n == 2:
        est = (val(center + h) - 2 * val(center) + val(center - h)) / h**2
    else:
        est = (
            val(center + 2 * h)
            - 2 * val(center + h)
            + 2 * val(center - h)
            - val(center - 2 * h)
        ) / (2 * h**3)
    reference = float((-1) ** n * math.factorial(n) ** 2)
    return est, reference, abs(est - reference) / abs(reference)


# -- plate-stack identity -----------------------------------------------------

def _plate_unit(plates: Sequence[tuple]):
    """1 as a Fraction when every plate entry is rational, as a float else."""
    if all(_exactly_rational(a) and _exactly_rational(nk) for a, nk in plates):
        return Fraction(1)
    return 1.0


def plate_rational_sum(plates: Sequence[tuple], order: int):
    """Coefficients through ``order`` of Σ_k a_k n_k z / (n_k² - z²).

    The k-th summand expands as Σ_j a_k n_k^(-2j-1) z^(2j+1).  Exact when
    every plate entry is rational, float otherwise.
    """
    if order < 1:
        raise SchemaError("need at least one coefficient")
    one = _plate_unit(plates)
    out = [0 * one] * order
    for a, nk in plates:
        if nk == 0:
            raise SchemaError("plate indices must be nonzero")
        inv = one / nk
        weight = a * inv
        step = inv * inv
        j = 1
        while j < order:
            out[j] = out[j] + weight
            weight = weight * step
            j += 2
    return out


def optics_identity_check(
    plates: Sequence[tuple], H: TruncSeries, order: int
):
    """Maximum coefficient gap between the two sides of the stack identity.

    Left side: Σ_k a_k H(z/n_k) by rescaling and summing.  Right side:
    H Hadamard-multiplied with the plate rational sum.  The identity is a
    formal coefficient identity, so the gap is exactly 0 on rational
    inputs; float plates measure rounding only.
    """
    if order < 1:
        raise SchemaError("need at least one coefficient")
    if H.order < order:
        raise TruncationExceeded(
            f"series carries {H.order} coefficients, need {order}"
        )
    for idx in range(0, order, 2):
        if H.coeffs[idx] != 0:
            raise NotOdd(f"even coefficient at index {idx} is nonzero")
    rational = plate_rational_sum(plates, order)
    one = _plate_unit(plates)
    h = [one * c for c in H.coeffs[:order]]
    left = [0 * one] * order
    for a, nk in plates:
        scale = one
        inv = one / nk
        for j in range(order):
            left[j] += a * h[j] * scale
            scale *= inv
    return max(abs(l - x * g) for l, x, g in zip(left, h, rational))


# -- odd zeta values ----------------------------------------------------------

def tangent_series(order: int) -> TruncSeries:
    """Exact Maclaurin coefficients of tan through the given order: the branch
    through y = 0 of cos(z)·y − sin(z), both cut at z^order and scaled by
    (order − 1)! to integer coefficients."""
    if order < 1:
        raise SchemaError("need at least one coefficient")
    scale = math.factorial(order - 1)
    terms = {(i, 1 - i % 2): (-1) ** ((i + 1) // 2) * scale // math.factorial(i)
             for i in range(order)}
    return expand_branch(Annihilator(Poly(2, terms), Fraction(0)), order)


def zeta_tail_bound(j: int, cutoff: int) -> float:
    """Integral bound on Σ_{k≥cutoff} (2k+1)^(-2j-2)."""
    s = 2 * j + 2
    return (2 * cutoff + 1.0) ** (1 - s) / (2 * (s - 1))


class ZetaOddCheck(NamedTuple):
    lhs: float
    rhs: float
    discrepancy: float


def zeta_odd_denominator_check(j: int, cutoff: int = 100000) -> ZetaOddCheck:
    """Σ (2k+1)^(-2j-2) against π^(2j+2)/2^(2j+3) · t_{2j+1}.

    The left side is a direct partial sum plus the integral tail
    estimate; the residual error is far below zeta_tail_bound(j, cutoff).
    The t coefficient comes from the exact tangent series.
    """
    if not 0 <= j <= 6:
        raise SchemaError("j must be between 0 and 6")
    if cutoff < 1000:
        raise SchemaError("cutoff must be at least 1000")
    s = 2 * j + 2
    lhs = sum((2 * k + 1.0) ** (-s) for k in range(cutoff))
    lhs += zeta_tail_bound(j, cutoff)
    t = tangent_series(2 * j + 2).coeffs[2 * j + 1]
    rhs = math.pi**s / 2 ** (s + 1) * float(t)
    return ZetaOddCheck(lhs, rhs, abs(lhs - rhs))
