"""Independent reference implementations used to pin expected test values.

Everything here is deliberately primitive — Pascal's triangle by addition,
convolution recurrences, binomial expansion by repeated multiplication —
and shares no code with the package under test.  When a test compares
package output against an oracle, a bug would have to appear in both
implementations in the same way to slip through.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

# ---------------------------------------------------------------------------
# integer sequences


def pascal_triangle(rows: int) -> list[list[int]]:
    """First `rows` rows of Pascal's triangle, addition only."""
    tri = [[1]]
    while len(tri) < rows:
        prev = tri[-1]
        tri.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return tri


def central_binomials(count: int) -> list[int]:
    """C(2n, n) for n < count, read out of Pascal's triangle."""
    tri = pascal_triangle(2 * count)
    return [tri[2 * n][n] for n in range(count)]


def catalan_numbers(count: int) -> list[int]:
    """C_0=1, C_{n+1} = sum C_k C_{n-k} — the convolution recurrence."""
    cat = [1]
    while len(cat) < count:
        n = len(cat) - 1
        cat.append(sum(cat[k] * cat[n - k] for k in range(n + 1)))
    return cat


def central_binomials_fast(count: int) -> list[int]:
    """C(2n,n) by the exact multiplicative step (for deep prefixes)."""
    out = [1]
    for n in range(count - 1):
        out.append(out[-1] * (2 * (2 * n + 1)) // (n + 1))
    return out


def catalan_numbers_fast(count: int) -> list[int]:
    """Catalan numbers by the exact multiplicative step."""
    out = [1]
    for n in range(count - 1):
        out.append(out[-1] * (2 * (2 * n + 1)) // (n + 2))
    return out


def thue_morse_signs(count: int) -> list[int]:
    """(-1)^(bit count of n) by block doubling: s -> s, -s."""
    signs = [1]
    while len(signs) < count:
        signs = signs + [-x for x in signs]
    return signs[:count]


def factorials(count: int) -> list[int]:
    out = [1]
    for n in range(1, count):
        out.append(out[-1] * n)
    return out


# ---------------------------------------------------------------------------
# univariate series


def tangent_taylor(order: int) -> list[Fraction]:
    """Taylor coefficients of tan via t' = 1 + t^2 (no trig division)."""
    t = [Fraction(0)]
    while len(t) < order:
        n = len(t) - 1
        conv = sum(t[k] * t[n - k] for k in range(n + 1))
        t.append((Fraction(1 if n == 0 else 0) + conv) / (n + 1))
    return t[:order]


def odd_sqrt_kernel(order: int) -> list[Fraction]:
    """Coefficients of z/sqrt(1-z^2): C(2j,j)/4^j at index 2j+1, else 0."""
    cb = central_binomials(order)
    out = [Fraction(0)] * order
    for j in range(order):
        if 2 * j + 1 >= order:
            break
        out[2 * j + 1] = Fraction(cb[j], 4**j)
    return out


def squares_plus_one(order: int) -> list[Fraction]:
    """(1+z)/(1-z)^3 expanded by convolving [1,1] with C(n+2,2)."""
    tri = pascal_triangle(order + 3)
    cubic = [tri[n + 2][2] for n in range(order)]  # 1/(1-z)^3
    out = []
    for n in range(order):
        value = cubic[n] + (cubic[n - 1] if n >= 1 else 0)
        out.append(Fraction(value))
    return out


def branch_prefix(P: dict, y0, n: int) -> list[Fraction]:
    """First n coefficients of the branch of P(z, y) = 0 through (0, y0).

    P maps (i, j) to the coefficient of z^i y^j, and y0 must be a simple
    root of P(0, y).  Only the linear term in f_k of P(z, f) reaches z^k,
    with factor P_y(0, y0), so f_k = -[z^k] P(z, f_<k) / P_y(0, y0).  The
    coefficients of each power f^j are kept from step to step: column k
    is one Cauchy sum with f_k = 0, and once f_k is known it gains
    j·y0^(j-1)·f_k, so the whole prefix costs O(n^2·deg_y) operations.
    """
    y0 = Fraction(y0)
    slope = sum(Fraction(c) * j * y0 ** (j - 1)
                for (i, j), c in P.items() if i == 0 and j > 0)
    top = max(j for _, j in P)
    f = [y0]
    powers = [[y0 ** j] for j in range(top + 1)]  # powers[j][t] = [z^t] f^j
    for k in range(1, n):
        f.append(Fraction(0))
        powers[0].append(Fraction(0))
        for j in range(1, top + 1):
            powers[j].append(sum(map(mul, powers[j - 1], reversed(f))))
        at_k = sum(Fraction(c) * powers[j][k - i]
                   for (i, j), c in P.items() if i <= k)
        f[k] = -at_k / slope
        for j in range(1, top + 1):
            powers[j][k] += j * y0 ** (j - 1) * f[k]
    return f[:n]


# ---------------------------------------------------------------------------
# multivariate polynomials over Q (the Fraction arithmetic `Poly` once had)


class FracPoly:
    """Sparse polynomial {exponent tuple: nonzero Fraction} with schoolbook
    sum, product, power, embedding and evaluation."""

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {tuple(e): Fraction(c) for e, c in terms.items() if c}

    def _collect(self, pairs) -> "FracPoly":
        out: dict = {}
        for e, c in pairs:
            out[e] = out.get(e, Fraction(0)) + c
        return FracPoly(self.nvars, out)

    def __add__(self, other: "FracPoly") -> "FracPoly":
        return self._collect([*self.terms.items(), *other.terms.items()])

    def __mul__(self, other) -> "FracPoly":
        if not isinstance(other, FracPoly):
            return FracPoly(self.nvars,
                            {e: c * other for e, c in self.terms.items()})
        return self._collect(
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in other.terms.items())

    def __pow__(self, k: int) -> "FracPoly":
        out = FracPoly(self.nvars, {(0,) * self.nvars: 1})
        for _ in range(k):
            out = out * self
        return out

    def embed(self, nvars: int, offset: int) -> "FracPoly":
        pad = (0,) * (nvars - offset - self.nvars)
        return FracPoly(nvars, {(0,) * offset + e + pad: c
                                for e, c in self.terms.items()})

    def value_at(self, point) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            for x, k in zip(point, e):
                c *= Fraction(x) ** k
            total += c
        return total


# ---------------------------------------------------------------------------
# multivariate series (plain dict arithmetic, graded-order linear solve)


def _iter_box(bounds: tuple[int, ...]):
    """All exponent vectors e with 0 <= e_i <= bounds_i, by total degree."""
    vecs = [()]
    for b in bounds:
        vecs = [v + (i,) for v in vecs for i in range(b + 1)]
    return sorted(vecs, key=sum)


def rational_series_box(num: dict, den: dict, bounds: tuple[int, ...]) -> dict:
    """Series coefficients of num/den on an exponent box.

    Solves den * S = num degree by degree: the coefficient of e is
    (num_e - sum_{d != 0} den_d * S_{e-d}) / den_0.  This is a different
    algorithm from geometric-series inversion of the denominator.
    """
    d0 = Fraction(den[(0,) * len(bounds)])
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for e in _iter_box(bounds):
        acc = Fraction(num.get(e, 0))
        for d, c in den.items():
            if all(x == 0 for x in d):
                continue
            prev = tuple(a - b for a, b in zip(e, d))
            if any(x < 0 for x in prev):
                continue
            acc -= Fraction(c) * coeffs.get(prev, Fraction(0))
        coeffs[e] = acc / d0
    return coeffs


def diagonal_from_box(coeffs: dict, nvars: int, order: int) -> list[Fraction]:
    return [coeffs.get((n,) * nvars, Fraction(0)) for n in range(order)]


def _mul_capped(a: dict, b: dict, cap: int) -> dict:
    """Product of exponent -> coefficient dicts, dropping every exponent
    above ``cap``; exponents only grow, so the kept terms are exact."""
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if max(e) <= cap:
                out[e] = out.get(e, Fraction(0)) + ca * cb
    return out


def geometric_series_diagonal(num: dict, den: dict, nvars: int,
                              order: int) -> list[Fraction]:
    """Diagonal of num/den by inverting den = den_0 (1 - Q) as sum Q^k.

    Q has no constant term, so Q^k has total degree >= k and
    nvars * (order - 1) passes saturate the box [0, order - 1]^nvars.
    This is a different algorithm from the linear solve of
    ``rational_series_box``.
    """
    zero = (0,) * nvars
    d0 = Fraction(den[zero])
    cap = order - 1
    q = {e: -Fraction(c) / d0 for e, c in den.items()
         if e != zero and max(e) <= cap}
    inv = {zero: Fraction(1)}
    for _ in range(nvars * cap):
        inv = _mul_capped(q, inv, cap)
        inv[zero] = Fraction(1)  # 1 + Q * inv; Q * inv has no constant
    full = _mul_capped({e: Fraction(c) for e, c in num.items()}, inv, cap)
    return [full.get((n,) * nvars, Fraction(0)) / d0 for n in range(order)]


def catalan_witness_diagonal(order: int) -> list[Fraction]:
    """Diagonal of y(2y-1)/(x+y-1) by direct binomial expansion.

    Writes the denominator as -(1 - (x+y)) and expands
    -y(2y-1) * sum_m (x+y)^m, collecting the x^n y^n coefficient:
    C(2n-1, n) - 2 C(2n-2, n), which telescopes to the shifted Catalans.
    """
    tri = pascal_triangle(2 * order + 2)

    def binom(m: int, k: int) -> int:
        if k < 0 or m < 0 or k > m:
            return 0
        return tri[m][k]

    out = [Fraction(0)]
    for n in range(1, order):
        # x^n y^n from y * (x+y)^(2n-1) minus 2 y^2 * (x+y)^(2n-2)
        out.append(Fraction(binom(2 * n - 1, n) - 2 * binom(2 * n - 2, n)))
    return out[:order]


def hypergeom_residues(
    ratio_num, ratio_den, count: int, p: int, r: int
) -> list[int]:
    """a_n mod p^r for a_0 = 1, a_{n+1} = a_n * ratio_num(n)/ratio_den(n).

    Keeps the p-adic valuation and the unit part (mod p^r) separately, so
    each step is small-integer work: no big integers, no Fractions.  Exact
    as long as every a_n is p-integral (valuation never goes negative while
    the term is read).
    """
    m = p**r
    v, u = 0, 1 % m
    out = []
    for n in range(count):
        out.append(0 if v >= r else (p**v * u) % m)
        nu, de = ratio_num(n), ratio_den(n)
        while nu % p == 0:
            nu //= p
            v += 1
        while de % p == 0:
            de //= p
            v -= 1
        u = u * nu * pow(de, -1, m) % m
    return out


HYPERGEOM_RATIOS = {
    "catalan": (lambda n: 2 * (2 * n + 1), lambda n: n + 2),
    "central-binomial": (lambda n: 2 * (2 * n + 1), lambda n: n + 1),
    "geometric": (lambda n: 1, lambda n: 1),
    "sqrt1p": (lambda n: 1 - 2 * n, lambda n: 2 * (n + 1)),
    "cbrt1m": (lambda n: 3 * n - 1, lambda n: 3 * (n + 1)),
}


def corpus_residues(name: str, count: int, p: int, r: int) -> list[int]:
    """Residues mod p^r of a corpus sequence (catalan-shifted = 0-prefixed)."""
    if name == "catalan-shifted":
        return [0] + corpus_residues("catalan", count - 1, p, r)
    num, den = HYPERGEOM_RATIOS[name]
    return hypergeom_residues(num, den, count, p, r)


# ---------------------------------------------------------------------------
# linear algebra and prime support


def canonical_left_kernel(matrix: list[list[int]]) -> list[int]:
    """The left kernel vector `fraction_free_left_kernel` must return for a
    constant matrix, by Fraction Gauss–Jordan.

    matrix[i][k] is unknown i of equation k.  Let j0 be the first unknown
    whose column (over the equations) depends on the ones before it; the
    vector has v_j0 = 1, zeros after j0, and is then scaled to coprime
    integers whose first nonzero entry is positive.  None when every
    unknown is independent.
    """
    from math import gcd, lcm

    nvars = len(matrix)
    eqs = [[Fraction(matrix[i][k]) for i in range(nvars)]
           for k in range(len(matrix[0]))]
    pivot_of: dict[int, list[Fraction]] = {}  # column -> its reduced row
    for col in range(nvars):
        row = next((r for r in eqs if r[col] != 0), None)
        if row is None:
            break
        eqs.remove(row)
        row = [x / row[col] for x in row]
        for other in eqs + list(pivot_of.values()):
            factor = other[col]
            if factor:
                for j in range(nvars):
                    other[j] -= factor * row[j]
        pivot_of[col] = row
    else:
        return None
    j0 = col
    v = [Fraction(0)] * nvars
    v[j0] = Fraction(1)
    for c, row in pivot_of.items():
        v[c] = -row[j0]
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
    return ints


def rational_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of two integer polynomials (ascending coefficient lists) by
    Euclid's algorithm over Q on Fractions, then scaled to integers with
    unit content and a positive lead; [] when both are zero."""
    from math import gcd, lcm

    def trimmed(c):
        c = [Fraction(x) for x in c]
        while c and c[-1] == 0:
            c.pop()
        return c

    u, v = trimmed(a), trimmed(b)
    while v:
        while len(u) >= len(v):  # u <- u mod v, one leading term at a time
            q, shift = u[-1] / v[-1], len(u) - len(v)
            u = trimmed([x - q * v[i - shift] if i >= shift else x
                         for i, x in enumerate(u)])
        u, v = v, u
    if not u:
        return []
    den = lcm(*(x.denominator for x in u))
    ints = [int(x * den) for x in u]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [x // g if ints[-1] > 0 else -x // g for x in ints]


def trial_division_support(coeffs, window: int):
    """(primes with first index, still_growing, incomplete) of a prime
    support scan that trial-divides every denominator from scratch up to
    10^6; a residue above 10^12 is left unfactored and its index marked
    incomplete."""
    first: dict[int, int] = {}
    incomplete = []
    for n, c in enumerate(coeffs):
        residue = Fraction(c).denominator
        d = 2
        while d <= 10**6 and d * d <= residue:
            if residue % d == 0:
                first.setdefault(d, n)
                while residue % d == 0:
                    residue //= d
            d += 1 if d == 2 else 2
        if residue > 1:
            if d * d > residue:
                first.setdefault(residue, n)
            else:
                incomplete.append(n)
    cutoff = len(coeffs) - window
    return (tuple(sorted(first.items())),
            any(n >= cutoff for n in first.values()),
            tuple(incomplete))
