"""Dense integer-coefficient univariate polynomial kernels (internal).

Coefficient lists are ascending (index = exponent) with no trailing zeros;
the zero polynomial is the empty list.  Everything here is exact integer
arithmetic.  `Poly` coefficients are integers already, cleared when they
were read; callers holding Fractions (series terms, recurrence windows)
clear them with ``clear_denominators`` and restore them on the way out.

Two pieces deserve a note:

* ``conv`` switches to Kronecker substitution once the schoolbook loop would
  dominate: CPython's big-int multiplication does the work, and one XOR with
  a half-slot constant makes packing and unpacking carry-free; at slots of 1,
  2, 4 and 8 bytes ``array``/``memoryview`` casts do each in one call.
* ``int_roots`` isolates real roots with a Sturm chain and bisection down to
  unit intervals, then tests the integer endpoint.  This stays exact and fast
  even when the constant term is hundreds of digits, where the divisors-of-
  the-constant-term approach would need an integer factorization.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from typing import Iterable

from .errors import InexactDivision

_SCHOOLBOOK_CUTOFF = 2048  # len(a)*len(b) at or below this: plain double loop
# Slot bytes -> signed array/memoryview code.  Casts use native byte order and
# the slots are little-endian, so big-endian machines go slot by slot.
_CAST = {1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}


def clear_denominators(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Rationals -> (integers, d) with value_i = integer_i / d, d the lcm."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return trim(out)


def sub(a: list[int], b: list[int]) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, x in enumerate(b):
        out[i] -= x
    return trim(out)


def neg(a: list[int]) -> list[int]:
    return [-x for x in a]


def _conv_schoolbook(a, b, limit):
    out = [0] * min(len(a) + len(b) - 1, limit)
    for i, x in enumerate(a):
        if x == 0 or i >= limit:
            continue
        jmax = min(len(b), limit - i)
        for j in range(jmax):
            out[i + j] += x * b[j]
    return out


def _pack(c, stride, half):
    """Sum of c[i]·R^i, R = 2^(8·stride), for integers -R/2 <= c[i] < R/2.

    `half` holds R/2 in each of at least len(c) slots.  Written as two's
    complement slots, c reads as one unsigned integer U, and per slot
    (x mod R) XOR R/2 = x + R/2, so (U ^ half) - half is the signed sum;
    slots past len(c) hold 0 and cancel.  One pass whatever the signs.
    """
    code = _CAST.get(stride)
    raw = (array(code, c).tobytes() if code else b"".join(
        [x.to_bytes(stride, "little", signed=True) for x in c]))
    return (int.from_bytes(raw, "little") ^ half) - half


def conv(a: list[int], b: list[int], limit: int | None = None) -> list[int]:
    """Convolution of coefficient lists, truncated to `limit` entries.

    The result has exact length min(len(a)+len(b)-1, limit), [] when
    limit <= 0; trailing zeros are kept so series code can rely on
    positional meaning.

    Large products use Kronecker substitution: a and b become the signed big
    integers A = Σ a_i·R^i and B = Σ b_j·R^j with R = 2^(8·stride), and one
    multiplication gives A·B = Σ c_t·R^t.  The slot is wide enough that every
    |c_t| < R/2, so with H = R/2 in every slot each digit of A·B + H lies in
    [0, R): no carries, and (A·B + H) ^ H holds c_t as a two's complement
    slot.  A 3-byte slot widens to 4 to reach a cast width; 5-7-byte slots
    stay as they are, because widening them to 8 makes the product larger
    by more than one call per slot saves.
    """
    if not a or not b or (limit is not None and limit <= 0):
        return []
    n = len(a) + len(b) - 1
    if limit is None or limit > n:
        limit = n
    if min(len(a), len(b)) <= 16 or len(a) * len(b) <= _SCHOOLBOOK_CUTOFF:
        return _conv_schoolbook(a, b, limit)

    # |c_t| <= min(la, lb)·max|a|·max|b| < 2^(slot_bits - 1)
    slot_bits = (max(max(a), -min(a)).bit_length()
                 + max(max(b), -min(b)).bit_length()
                 + min(len(a), len(b)).bit_length() + 1)
    stride = (slot_bits + 7) // 8
    stride = 4 if stride == 3 else stride  # widen 3 bytes to a cast width
    half = int.from_bytes((bytes(stride - 1) + b"\x80") * n, "little")
    digits = ((_pack(a, stride, half) * _pack(b, stride, half) + half)
              ^ half).to_bytes(n * stride, "little")
    code = _CAST.get(stride)
    if code:
        return memoryview(digits)[:limit * stride].cast(code).tolist()
    return [int.from_bytes(digits[t:t + stride], "little", signed=True)
            for t in range(0, limit * stride, stride)]


def mul(a: list[int], b: list[int]) -> list[int]:
    return trim(conv(a, b))


def exact_div(a: list[int], b: list[int]) -> list[int]:
    """Quotient a/b; raises InexactDivision unless b divides a exactly."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    if len(a) < len(b):
        raise InexactDivision("inexact polynomial division")
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(out) - 1, -1, -1):
        num = rem[k + len(b) - 1]
        if num == 0:
            continue
        q, r = divmod(num, lead)
        if r != 0:
            raise InexactDivision("inexact polynomial division")
        out[k] = q
        for j, x in enumerate(b):
            rem[k + j] -= q * x
    if any(rem):
        raise InexactDivision("inexact polynomial division")
    return trim(out)


def content(a: list[int]) -> int:
    g = 0
    for x in a:
        g = math.gcd(g, x)
        if g == 1:
            return 1
    return g


def primitive(a: list[int]) -> list[int]:
    """Divide out the content; normalize the leading coefficient positive."""
    if not a:
        return []
    g = content(a)
    if a[-1] < 0:
        g = -g
    return [x // g for x in a]


def _prem_positive(a: list[int], b: list[int]) -> list[int]:
    """A positive scalar multiple of (a mod b), as integer coefficients.

    Computes the pseudo-remainder lead(b)^(da-db+1) * a mod b, then fixes the
    sign so the result is a positive multiple of the true remainder (what a
    Sturm chain needs).
    """
    da, db = len(a) - 1, len(b) - 1
    lead = b[-1]
    total = da - db + 1
    applied = 0
    r = list(a)
    while r and len(r) - 1 >= db:
        s = len(r) - 1 - db
        top = r[-1]
        r = [x * lead for x in r]
        for j, y in enumerate(b):
            r[s + j] -= top * y
        trim(r)
        applied += 1
    if r and applied < total:
        r = [x * lead ** (total - applied) for x in r]
    if lead < 0 and total % 2 == 1:
        r = [-x for x in r]
    return trim(r)


def deriv(a: list[int]) -> list[int]:
    return trim([i * c for i, c in enumerate(a)][1:])


def _sturm_chain(p: list[int]) -> list[list[int]]:
    chain = [list(p), deriv(p)]
    while chain[-1]:
        r = [-x for x in _prem_positive(chain[-2], chain[-1])]
        if r:
            g = content(r)
            r = [x // g for x in r]
        chain.append(r)
    chain.pop()  # the zero remainder that ended the loop
    return chain


def _sign_changes(chain: list[list[int]], x: int) -> int:
    signs = []
    for p in chain:
        v = eval_at(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def int_roots(a: list[int]) -> list[int]:
    """All integer roots of a nonzero polynomial, ascending, exact."""
    if not a:
        raise ZeroDivisionError("zero polynomial has every root")
    roots: set[int] = set()
    c = list(a)
    while c and c[0] == 0:
        roots.add(0)
        c.pop(0)
    if len(c) > 1:
        c = primitive(c)
        g = gcd(c, deriv(c))
        sq = exact_div(c, g) if len(g) > 1 else c
        chain = _sturm_chain(sq)
        # Cauchy bound: every real root has |x| < 1 + max|c_i|/|lead|
        lead = abs(sq[-1])
        top = max(abs(x) for x in sq[:-1]) if len(sq) > 1 else 0
        bound = 1 + (top + lead - 1) // lead
        counts = {-bound - 1: _sign_changes(chain, -bound - 1)}
        stack = [(-bound - 1, bound + 1)]
        while stack:
            lo, hi = stack.pop()
            if hi not in counts:
                counts[hi] = _sign_changes(chain, hi)
            n_roots = counts[lo] - counts[hi]
            if n_roots <= 0:
                continue
            if hi - lo == 1:
                if eval_at(sq, hi) == 0:
                    roots.add(hi)
                continue
            mid = (lo + hi) // 2
            if mid not in counts:
                counts[mid] = _sign_changes(chain, mid)
            stack.append((lo, mid))
            stack.append((mid, hi))
    return sorted(roots)


def gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive polynomial gcd (primitive pseudo-remainder sequence)."""
    if not a:
        return primitive(list(b))
    if not b:
        return primitive(list(a))
    a = primitive(list(a))
    b = primitive(list(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return [1]
        r = _prem_positive(a, b)
        a, b = b, primitive(r)
    return primitive(a)


def eval_at(a: list[int], n: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * n + c
    return acc


def shift_arg(a: list[int], k: int) -> list[int]:
    """Return the coefficient list of p(n + k)."""
    out: list[int] = []
    for c in reversed(a):
        # out = out*(n+k) + c
        nxt = [0] + out
        for i, x in enumerate(out):
            nxt[i] += k * x
        nxt[0] += c
        out = trim(nxt)
    return out
