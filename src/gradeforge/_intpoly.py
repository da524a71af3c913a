"""Dense integer-coefficient univariate polynomial kernels (internal).

Coefficient lists are ascending (index = exponent) with no trailing zeros;
the zero polynomial is the empty list.  Everything here is exact integer
arithmetic.  `Poly` coefficients are integers already, cleared when they
were read; callers holding Fractions (series terms, recurrence windows)
clear them with ``clear_denominators`` and restore them on the way out.

Three pieces deserve a note:

* ``conv`` switches to Kronecker substitution once the schoolbook loop would
  dominate: CPython's big-int multiplication does the work, and one XOR with
  a half-slot constant makes packing and unpacking carry-free; at slots of 1,
  2, 4 and 8 bytes ``array``/``memoryview`` casts do each in one call.
* ``ResidueRing`` holds a truncated series over Z/m as one packed integer,
  a coefficient per slot, for the Newton iteration mod p^r: a truncated
  product is one big-int product and a mask, and one Barrett step reduces
  every slot mod m with a few whole-integer operations, exactly.
* ``int_roots`` bisects down to unit intervals, counting real roots with the
  remainder sequence of c and c' divided by its last element (the Sturm
  chain of c's squarefree part), and tests the integer endpoint.  This stays
  exact and fast even when the constant term is hundreds of digits, where
  the divisors-of-the-constant-term approach would need a factorization.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InexactDivision

_SCHOOLBOOK_CUTOFF = 2048  # len(a)*len(b) at or below this: plain double loop
# Slot bytes -> signed and unsigned array/memoryview codes.  Casts use native
# byte order and the slots are little-endian, so big-endian machines go slot
# by slot.
_CAST = {1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}
_UCAST = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


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


def _unpack(raw, count, stride, signed):
    """Slots 0..count-1 of little-endian `raw`, `stride` bytes each."""
    code = (_CAST if signed else _UCAST).get(stride)
    if code:
        return memoryview(raw)[:count * stride].cast(code).tolist()
    return [int.from_bytes(raw[t:t + stride], "little", signed=signed)
            for t in range(0, count * stride, stride)]


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
    return _unpack(digits, limit, stride, True)


def _respace(x: int, count: int, src: int, dst: int) -> bytearray:
    """Slots 0..count-1 of x, `src` bytes each, as `dst`-byte slots.

    Each slot keeps its low min(src, dst) bytes, copied by one strided slice
    assignment per byte plane however many slots there are.
    """
    raw = x.to_bytes(count * src, "little")
    out = bytearray(count * dst)
    for i in range(min(src, dst)):
        out[i::dst] = raw[i::src]
    return out


class ResidueRing:
    """Power series over Z/m truncated to at most n terms, each packed into
    one integer: slot t, `nb` bytes wide, holds the coefficient of z^t in
    [0, m).

    The ring works on whole integers, never one coefficient at a time.  A
    truncated product is one big-integer product and a mask; negation is
    m·(1 in every slot) - x.  The slots are sized for the largest size n
    reached: every value formed before a reduction, a product of two
    series of at most n terms plus a packed row, or m - x + 2, is at most
    n·(m-1)^2 + 2m < 2^b, so nothing carries across slots and nb = ⌈b/8⌉.

    ``reduce`` takes every slot mod m at once by a Barrett step (Granlund
    and Montgomery, PLDI 1994).  With s = b + bitlen(m-1) and
    k = ⌈2^s/m⌉, ⌊c·k/2^s⌋ = ⌊c/m⌋ for every c < 2^b: write k·m = 2^s + e
    with 0 <= e < m and c = q·m + ρ with 0 <= ρ < m; then
    c·k/2^s = q + (ρ + c·e/2^s)/m, and c·e < 2^b·2^bitlen(m-1) = 2^s makes
    ρ + c·e/2^s < m.  The slots are copied to `wb` = ⌈(b+s)/8⌉ bytes, where
    c·k < 2^(b+s) fits; X·k shifted down s bits and masked to its low
    8·wb - s bits per slot is the packed quotient Q, and X - m·Q the packed
    remainder, each slot exact and nonnegative.  No residue is approximated.
    """

    def __init__(self, m: int):
        self.m = m
        self.b = 0
        self.nb = 1
        # unpacking narrows to the least cast width holding m - 1
        ub = ((m - 1).bit_length() + 7) // 8
        self.ub = next((w for w in _UCAST if w >= ub), ub)
        self.reach(1)

    def reach(self, n: int, *xs: int) -> list[int]:
        """Size the slots for products of up to n terms, never narrowing;
        returns xs, packed at the previous width, at the new one."""
        m = self.m
        b = (n * (m - 1) ** 2 + 2 * m).bit_length()
        if b <= self.b:
            return list(xs)
        old, self.b = self.nb, b
        self.nb = nb = (b + 7) // 8
        self.s = s = b + (m - 1).bit_length()
        self.k = -(-(1 << s) // m)
        self.wb = wb = (b + s + 7) // 8
        self.qslot = ((1 << (8 * wb - s)) - 1).to_bytes(wb, "little")
        self.mslot = m.to_bytes(nb, "little")
        return [int.from_bytes(_respace(
            x, -(-x.bit_length() // (8 * old)), old, nb), "little")
            for x in xs]

    def row(self, values: Sequence[int], limit: int) -> int:
        """The first `limit` integers of `values` reduced mod m, each below
        m < 2^(b-1) and so its own signed slot (a zero half-slot)."""
        return _pack([v % self.m for v in values[:limit]], self.nb, 0)

    def prefix(self, x: int, count: int) -> list[int]:
        """The residues in slots 0..count-1."""
        data = _respace(x & ((1 << (8 * self.nb * count)) - 1), count,
                        self.nb, self.ub)
        return _unpack(data, count, self.ub, False)

    def reduce(self, x: int, count: int) -> int:
        """Every slot of x, each below 2^b, taken mod m."""
        nb, wb = self.nb, self.wb
        wide = int.from_bytes(_respace(x, count, nb, wb), "little")
        q = ((wide * self.k) >> self.s) & int.from_bytes(
            self.qslot * count, "little")
        return int.from_bytes(
            _respace(wide - self.m * q, count, wb, nb), "little")

    def mul(self, a: int, b: int, count: int, plus: int = 0) -> int:
        """a·b + plus mod z^count; plus holds residues in count slots."""
        mask = (1 << (8 * self.nb * count)) - 1
        return self.reduce(((a & mask) * (b & mask) & mask) + plus, count)

    def neg(self, x: int, count: int, c: int = 0) -> int:
        """c - x mod z^count, for x reduced and 0 <= c <= m."""
        return self.reduce(int.from_bytes(self.mslot * count, "little")
                           - x + c, count)

    def shift(self, x: int, k: int) -> int:
        """x divided by z^k, dropping the low k slots."""
        return x >> (8 * self.nb * k)

    def append(self, f: int, k: int, tail: int) -> int:
        """f + z^k·tail, for f with k slots."""
        return f | (tail << (8 * self.nb * k))


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


def _remainders(a: list[int], b: list[int]) -> list[list[int]]:
    """a, b (if nonzero), then -prem of the last two divided by its content,
    down to the last nonzero element or a constant.  That element is a
    multiple of gcd(a, b); for b = a' the list is the Sturm chain of a."""
    chain = [a, b]
    while len(chain[-1]) > 1:
        r = _prem_positive(chain[-2], chain[-1])
        if not r:
            break
        g = -content(r)
        chain.append([x // g for x in r])
    return chain if b else [a]


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
    c = primitive(a)
    if len(c) == 1:
        return []
    # divided by g = gcd(c, c'): the Sturm chain of the squarefree part c/g
    chain = _remainders(c, deriv(c))
    g = primitive(chain[-1])
    if len(g) > 1:
        chain = [exact_div(p, g) for p in chain]
    sq = chain[0]
    # Cauchy bound: every real root has |x| < 1 + max|c_i|/|lead|
    lead = abs(sq[-1])
    bound = 1 + (max(abs(x) for x in sq[:-1]) + lead - 1) // lead
    roots = []
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
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        if mid not in counts:
            counts[mid] = _sign_changes(chain, mid)
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(roots)


def gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive polynomial gcd: the last element of the primitive
    remainder sequence, longer operand first."""
    a, b = primitive(a), primitive(b)
    if len(a) < len(b):
        a, b = b, a
    return primitive(_remainders(a, b)[-1])


def gcd_all(polys: Iterable[list[int]]) -> list[int]:
    """Primitive gcd of the nonzero polys ([] if none), short ones first."""
    g: list[int] = []
    for c in sorted((c for c in polys if c), key=len):
        g = gcd(g, c)
        if g == [1]:
            break
    return g


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
