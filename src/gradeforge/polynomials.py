"""Exact multivariate polynomials and rational functions.

Representation: sparse dict mapping exponent tuples to nonzero Python
ints, with ring arithmetic, embedding and rendering; `Poly` has no calculus
(branch work runs on integer y-rows in `algebraic`).  Rational inputs are
cleared once, on the way in: `poly_from_rows` returns d·P with d the least
common denominator, and `ratfun_from_rows` scales a numerator and a
denominator by one common factor.  The monomial order everywhere is
graded lexicographic (total degree first, then leftmost variable most
significant); canonical text rendering and leading terms use it.

`fraction_free_left_kernel` works over univariate integer polynomials, given
as dense `_intpoly` coefficient lists, which is what the recurrence closure
code needs: entries stay in the integer-polynomial ring instead of blowing
up as reduced rational functions.  Bareiss elimination runs up to the first
unknown without a pivot, and the back-substitution divides exactly, because
by Cramer's rule every entry of the vector is a minor; no fraction is ever
formed.  For constant matrices (the equations of recurrence guessing) a
pre-pass finds the pivot equations modulo the prime 2^61 - 1, and Bareiss
runs on those alone; the vector is then checked exactly against every
equation, and a failed check falls back to the full elimination.  A pivot
in every column proves full rank, so no elimination over Z runs at all.  The
checked vector is the unique normalised one, so the result never depends on
the prime (the argument is in the function's docstring).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import sub
from typing import Mapping, Sequence

from . import _intpoly as ip
from .errors import NoKernel, SchemaError, VariableMismatch
from .rationals import coerce_rational, format_rational, wire_int


def _grlex_key(expo: tuple[int, ...]):
    return (sum(expo), expo)


class Poly:
    """Sparse multivariate polynomial over Z."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int]):
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        for expo, coeff in terms.items():
            expo = tuple(expo)
            if len(expo) != nvars or any(
                    type(e) is not int or e < 0 for e in expo):
                raise SchemaError(f"bad exponent tuple {expo} for {nvars} vars")
            if type(coeff) is not int:
                raise SchemaError(f"coefficient {coeff!r} is not an integer")
            if coeff:
                clean[expo] = coeff
        self.terms = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, value: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        expo = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {expo: 1})

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_in(self, var: int) -> int:
        return max((e[var] for e in self.terms), default=-1)

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Graded-lex leading (exponent, coefficient)."""
        expo = max(self.terms, key=_grlex_key)
        return expo, self.terms[expo]

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise VariableMismatch(
                f"operands over {self.nvars} and {other.nvars} variables"
            )

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = Poly.zero(self.nvars)
        res.terms = out
        return res

    def __neg__(self) -> "Poly":
        res = Poly.zero(self.nvars)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        res = Poly.zero(self.nvars)
        res.terms = out
        return res

    __rmul__ = __mul__

    def embed(self, nvars: int, offset: int) -> "Poly":
        """Move variable i of self to variable offset + i of a larger ring."""
        pad = nvars - offset - self.nvars
        if offset < 0 or pad < 0:
            raise VariableMismatch(
                f"{self.nvars} variables at offset {offset} exceed {nvars}"
            )
        res = Poly.zero(nvars)
        res.terms = {(0,) * offset + e + (0,) * pad: c
                     for e, c in self.terms.items()}
        return res

    # -- rendering -------------------------------------------------------

    def __repr__(self) -> str:
        names = (
            ["n"] if self.nvars == 1
            else ["z", "y"] if self.nvars == 2
            else [f"x{i}" for i in range(self.nvars)]
        )
        return rows_text(poly_rows(self), names)


def poly_rows(p: Poly) -> list[list]:
    """Wire form: one [*exponents, "coeff"] row per term, grlex descending."""
    return [
        [*e, format_rational(p.terms[e])]
        for e in sorted(p.terms, key=_grlex_key, reverse=True)
    ]


def poly_from_rows(rows, nvars: int, what: str) -> tuple[Poly, int]:
    """Read [*exponents, coeff] rows, the inverse of `poly_rows`, as
    (d·P, d): the rational P they spell, cleared by the least common
    denominator d of its coefficients.

    coeff is an integer or a rational string; rows for the same monomial
    add up.  Malformed rows raise SchemaError naming `what`.
    """
    if not isinstance(rows, list):
        raise SchemaError(f"{what} must be a list of term rows")
    terms: dict[tuple[int, ...], Fraction] = {}
    for row in rows:
        if not isinstance(row, list) or len(row) != nvars + 1:
            raise SchemaError(
                f"{what} term must be [{nvars} exponents..., coeff]"
            )
        expo = tuple(wire_int(e, f"{what} exponent", 0) for e in row[:-1])
        terms[expo] = terms.get(expo, 0) + coerce_rational(row[-1])
    ints, den = ip.clear_denominators(terms.values())
    return Poly(nvars, dict(zip(terms, ints))), den


def rows_text(rows, names: Sequence[str]) -> str:
    """Render [*exponents, "coeff"] rows as a sum, in row order."""
    parts = []
    for row in rows:
        mono = "*".join(
            f"{names[i]}^{k}" if k > 1 else names[i]
            for i, k in enumerate(row[:-1]) if k
        )
        c = row[-1]
        if mono:
            head = "" if c == "1" else "-" if c == "-1" else f"{c}*"
            parts.append(f"{head}{mono}")
        else:
            parts.append(c)
    return " + ".join(parts).replace("+ -", "- ") or "0"


class RatFun:
    """Ratio of two polynomials, canonicalized only up to the sign of the
    denominator's graded-lex leading coefficient (no gcd reduction)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if num.nvars != den.nvars:
            raise VariableMismatch("numerator/denominator variable counts differ")
        if den.is_zero():
            raise SchemaError("rational function denominator must be nonzero")
        _, lead = den.leading()
        if lead < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        return (self.nvars == other.nvars
                and self.num * other.den == other.num * self.den)

    def __hash__(self):
        # Equal ratios N/D = N'/D' have N D' = N' D, and graded-lex leading
        # terms multiply, so lead(N) / lead(D) is the same for both.
        if self.num.is_zero():
            return hash((self.nvars, None))
        ne, nc = self.num.leading()
        de, dc = self.den.leading()
        return hash((tuple(map(sub, ne, de)), Fraction(nc, dc)))

    def __repr__(self) -> str:
        return f"({self.num!r}) / ({self.den!r})"


def ratfun_from_rows(num_rows, den_rows, nvars: int) -> RatFun:
    """The rational function num/den spelled by two lists of term rows,
    num and den both scaled by dn·dd, the product of the denominators
    that `poly_from_rows` clears from each."""
    num, dn = poly_from_rows(num_rows, nvars, "num")
    den, dd = poly_from_rows(den_rows, nvars, "den")
    return RatFun(num * dd, den * dn)


# -- fraction-free left kernel ------------------------------------------------

_PREPASS_PRIME = 2 ** 61 - 1


def fraction_free_left_kernel(
        matrix: Sequence[Sequence[list[int]]]) -> list[list[int]]:
    """A nonzero row vector v with v * matrix = 0 over Z[n].

    Entries of `matrix` and of v are dense integer coefficient lists
    (`_intpoly` form: ascending, no trailing zeros, [] for zero).

    Deterministic: Bareiss elimination over the integer-polynomial ring,
    processing columns left to right, pivot = first nonzero row.  The result
    is content-free (polynomial and integer content divided out) with the
    first nonzero entry's leading coefficient positive.

    That result depends on the matrix alone.  Call the columns of `matrix`
    equations and its rows unknowns; let j0 be the first unknown whose
    column in the equations depends, over Q(n), on the columns before it.
    Then v is the one vector, up to a factor in Q(n), with support in
    [0, j0] and v_j0 != 0, and the normalisation picks one representative.

    When every entry is a constant, a modular pre-pass runs first.  The
    same elimination mod the prime 2^61 - 1 finds a pivot for each unknown
    before some unknown r, none for r, and so names r pivot equations; the
    Bareiss loop then runs on those r equations restricted to the unknowns
    [0, r].  That smaller system keeps every dependence among its columns
    and has a free unknown at r or before, so its first free unknown is
    some j0' <= j0.  If the vector it yields, padded with zeros, satisfies
    every equation exactly, then unknown j0' depends on the ones before it
    in the full system, so j0' = j0 and the vector is the one above: the
    result is the same as without the pre-pass.  If a check fails (a prime
    that drops the rank), the elimination runs on the full matrix.  If the
    pre-pass finds a pivot in every column, the matrix has full row rank
    modulo the prime, hence over Q, and NoKernel is raised at once.

    Raises NoKernel when the matrix has full row rank (no such vector).
    """
    rows = len(matrix)
    if rows == 0:
        raise NoKernel("empty matrix has no nonzero kernel vector")
    cols = len(matrix[0])
    if any(len(r) != cols for r in matrix):
        raise VariableMismatch("ragged matrix")

    # Equations: columns of `matrix`.  E[k][i] = matrix[i][k].
    E = [[matrix[i][k] for i in range(rows)] for k in range(cols)]
    if all(len(x) <= 1 for eq in E for x in eq):
        pivots = _pivot_equations_mod_p(E, rows)
        if pivots is None:
            raise NoKernel("matrix has full row rank modulo 2^61 - 1")
        r = len(pivots)
        vec = _bareiss_kernel([E[k][:r + 1] for k in pivots], r + 1)
        vec += [[] for _ in range(rows - r - 1)]
        if all(sum(v[0] * x[0] for v, x in zip(vec, eq) if v and x) == 0
               for eq in E):
            return vec
    return _bareiss_kernel(E, rows)


def _pivot_equations_mod_p(E: list[list[list[int]]],
                           nvars: int) -> list[int] | None:
    """Pivot equations of the elimination mod 2^61 - 1, one for each column
    before the first column with no pivot; None when every column has one.

    Same column order, same first-nonzero pivot rule, same row swaps and
    same stop as `_bareiss_kernel`; entries must be constants.
    """
    p = _PREPASS_PRIME
    M = [[x[0] % p if x else 0 for x in eq] for eq in E]
    order = list(range(len(M)))
    for col in range(nvars):
        pr = next((i for i in range(col, len(M)) if M[i][col]), None)
        if pr is None:
            return order[:col]
        M[col], M[pr] = M[pr], M[col]
        order[col], order[pr] = order[pr], order[col]
        piv = M[col]
        inv = pow(piv[col], -1, p)
        for row in M[col + 1:]:
            if row[col]:
                f = row[col] * inv % p
                for j in range(col + 1, nvars):
                    row[j] = (row[j] - f * piv[j]) % p
    return None


def _bareiss_kernel(E: list[list[list[int]]], nvars: int) -> list[list[int]]:
    """`fraction_free_left_kernel` on the equations E (E[k][i]: unknown i of
    equation k); rows of E are overwritten.

    Bareiss elimination runs until the first unknown j0 with no pivot, so
    after the row swaps equation k < j0 holds the pivot of unknown k.  Row k
    is then a row of minors of the swapped system: E[k][j] (j >= k) is the
    determinant on equations 0..k and unknowns 0..k-1, j, and the pivot
    E[k][k] is the leading (k+1)-minor.  Fix v_j0 to the last pivot, the
    leading j0-minor D (1 when j0 = 0).  By Cramer's rule the leading block
    then gives v_k = -det(block with column k replaced by column j0), a
    polynomial, for every k < j0; hence each step of the back-substitution
    v_k = -(sum over k < j <= j0 of E[k][j] v_j) / E[k][k] is an exact
    division in Z[n].
    """
    prev: list[int] = [1]
    for col in range(nvars):
        pr = next((i for i in range(col, len(E)) if E[i][col]), None)
        if pr is None:
            break
        E[col], E[pr] = E[pr], E[col]
        piv_row = E[col]
        piv = piv_row[col]
        for row in E[col + 1:]:
            if not any(row[j] for j in range(col, nvars)):
                continue
            head = row[col]
            for j in range(col + 1, nvars):
                t = ip.sub(ip.mul(piv, row[j]), ip.mul(head, piv_row[j]))
                row[j] = t if prev == [1] else ip.exact_div(t, prev)
            row[col] = []
        prev = piv
    else:
        raise NoKernel("matrix has full row rank")
    j0 = col

    vec: list[list[int]] = [[] for _ in range(nvars)]
    vec[j0] = list(prev)  # prev may be an entry of the caller's matrix
    for k in range(j0 - 1, -1, -1):
        acc: list[int] = []
        for j in range(k + 1, j0 + 1):
            if E[k][j] and vec[j]:
                acc = ip.add(acc, ip.mul(E[k][j], vec[j]))
        vec[k] = ip.neg(ip.exact_div(acc, E[k][k]))

    # Content-free normalisation.
    g = ip.gcd_all(vec)
    if g != [1]:
        vec = [ip.exact_div(c, g) for c in vec]
    gint = math.gcd(*(ip.content(c) for c in vec))
    if gint > 1:
        vec = [[x // gint for x in c] for c in vec]
    if next(c for c in vec if c)[-1] < 0:
        vec = [ip.neg(c) for c in vec]
    return vec
