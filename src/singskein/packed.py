"""Polynomials packed into Python ints (Kronecker substitution).

The one module that knows the packed format.  From the Hecke fold to the
skein coefficients every polynomial is kept as Python ints, one balanced
W-bit digit per power of a variable set to 2^W; ``hecke``, ``markov`` and
``skein`` read digits only through ``_digits``, ``_laurent`` and
``_low_digit`` and take every width from ``_width``.  A polynomial in q and
z is a list of rows over z, each row the value of its polynomial in q at
q = 2^W: one digit per power of q.  A word's coordinate numerators, polynomials in q, z and B
(``markov``), are one int: q -> 2^W, z -> 2^Z with Z = W times the
q-slots, and B -> 2^S with S = Z times the z-slots.  It is split once, at S
and then at Z, into those rows (``_dense``).  Both splits are exact when
every digit at W is below 2^(W-1): a row then has at most Z/W such
balanced digits, so |row| < 2^(Z-1), and the same sum over at most S/Z rows
gives |N_b| < 2^(S-1).  A polynomial in x = s^2 and y = u^2 is one int,
x -> 2^W and y -> 2^S, S = W times the x-slots, so q -> x needs no
repacking.  The split fold's product of trace components, polynomials in
r (resolutions), q and z, is one int per factor (``_product``): r in the
lowest digits, then q, then z -> 2^Z with Z = W times the r- and q-slots.
It is handed on undecoded, as a ``PackedProduct``.  Its decode splits it
at Z into z-rows, and each row at W: a row holds at most Z/W balanced
digits, so again |row| < 2^(Z-1).  The rows' decode, ``_laurent``, also
reads the fold's rows (``hecke._peel``), which have the same layout with
r in the lowest digits.  ``markov`` decodes nothing: it re-lays each power
of r out at the numerators' layout (``PackedProduct.relaid``).

The exactness lemma.  Evaluation at a power of two is a ring homomorphism,
so shifts, adds and products of these ints are exact at any W.  Only the
zero tests, the lowest set bits, the remainder tests and the decodes read
digits, and they are exact when every digit is below 2^(W-1) in absolute
value: an int is then 0 iff every digit is, its lowest set bit lies in its
lowest nonzero digit, and its top digit is its bit length over W.  So a
width is a bound on every digit that is read, plus one bit (``_width``).

The one decoder, ``_digits``, reads the low W bits of v as a digit d,
shifts v down by W, and, when d is at least 2^(W-1), takes 2^W off d and
carries 1 into what is left: v = d + 2^W v' = (d - 2^W) + 2^W (v' + 1).
So a digit costs a mask and a shift of v, and a negative digit the add of
its carry besides.

The re-layout lemma.  Let v hold balanced digits d_j at w bits, w a whole
number of bytes, each in [-2^(w-1), 2^(w-1)) and all in its first N
lanes.  With the offset O = 2^(w-1) sum_(j<N) 2^(wj), v + O is
sum_j (d_j + 2^(w-1)) 2^(wj), and every lane d_j + 2^(w-1) lies in
[0, 2^w): no lane borrows from the next or carries into it, so the
little-endian bytes of v + O are its lanes side by side, w/8 bytes each.
Copy them into the low bytes of lanes of W >= w bits, W a whole number of
bytes too, at any lane positions pos(j), with the bytes above left 0
(strided ``bytearray`` slice assignments, run in C): that is the int
sum_j (d_j + 2^(w-1)) 2^(W pos(j)).  The same copy of O's lanes gives
sum_j 2^(w-1) 2^(W pos(j)), and the difference is sum_j d_j 2^(W pos(j)),
v's digits laid out anew at W.  The copies need whole bytes, so the
product's width and the W it is re-laid out at are rounded up to whole
bytes, and only those: a wider width only widens the range of digits
that are read exactly (the exactness lemma), so every decode stays exact.
The product's digits are below its L1 bound, so they lie in that range.

``_packed_width`` proves W for one word's coordinates from L1 norms (sums
of absolute coefficients), which bound every digit.  Start from a numerator
over D^d of L1 at most l1 and z-degree at most L, to be rendered with z^m;
let r = max(-m, 0).

* Division by z - rho, rho = q or -1 (``_divide_linear``), at most d times
  each: Q_(t-1) = sum_(s >= t) rho^(s-t) R_s and the remainder is
  sum_s rho^s R_s.  A digit of either is a diagonal partial sum of the
  dividend's digits, so it is at most the dividend's L1, and
  L1(Q) <= sum_s s L1(R_s) <= L L1(R).  So every L1 stays within
  l1 L^(2d), and so does that of R, the numerator left in lowest terms.
* The embedding (``_embed_packed``): Rtilde = sum_b R_b(x) (x - 1)^b
  (1 - x y)^(level - b), where each factor product has L1 2^level, so
  L1(Rtilde) <= 2^level L1(R), with level <= max(L + max(m, 0), 2d + r).
  Its x-degree is at most D + level, D the q-degree of R, and the x-slots
  are D + level + 1, so no y-row spills into the next.
* Division by x - 1 (``_divide_x_minus_one``), at most r times: a quotient
  digit is a partial sum sum_(s >= i) P_s of the dividend's digits and the
  remainder is P(1), so one division raises L1 by at most the x-slot count.

So every digit that is read is at most l1 L^(2d) 2^level (D + level + 1)^r,
and W is ``_width`` of that bound.
"""

from __future__ import annotations

from functools import reduce
from operator import itemgetter, or_
from typing import Mapping

from .braid import Record


def _width(bound: int) -> int:
    """Digit width at which every digit of absolute value at most ``bound``
    is read exactly: the bound's bit length plus a sign bit."""
    return bound.bit_length() + 1


def _digits(v: int, width: int):
    """(index, digit) for each nonzero balanced width-bit digit of v, lowest
    first, a negative digit carrying 1 into the rest (module docstring); the
    digits are v's coefficients when each is below 2^(width-1).
    A width below 2 holds no nonzero balanced digit, so a nonzero v there is
    a ValueError, not an endless run of -1s."""
    if width < 2 and v:
        raise ValueError(f"a nonzero int has no balanced digits of width {width}")
    full = 1 << width
    mask = full - 1
    half = full >> 1
    i = 0
    while v:
        digit = v & mask
        v >>= width
        if digit >= half:  # negative: d - 2^W, with 1 carried into the rest
            digit -= full
            v += 1
        if digit:
            yield i, digit
        i += 1


def _dense(v: int, width: int) -> list[int]:
    """v's balanced width-bit digits as a list, lowest first, up to its top
    nonzero one."""
    out = []
    for i, digit in _digits(v, width):
        out += [0] * (i - len(out)) + [digit]
    return out


def _laurent(rows: list[int], width: int, slots: int, low: int) -> list[dict[tuple[int, int], int]]:
    """The coefficients of r^0 .. r^(slots - 1) of sum_t rows[t] z^t, where
    the balanced width-bit digit k + slots e of a row holds r^k q^(low + e),
    each a Laurent dict over (q-exponent, z-exponent)."""
    out: list[dict[tuple[int, int], int]] = [{} for _ in range(slots)]
    for ze, row in enumerate(rows):
        for slot, digit in _digits(row, width):
            qe, r = divmod(slot, slots)
            out[r][(qe + low, ze)] = digit
    return out


def _low_digit(rows, width: int) -> int:
    """Index of the lowest nonzero digit among these ints, not all zero:
    the lowest set bit of any of them lies in it."""
    bits = reduce(or_, rows)
    return ((bits & -bits).bit_length() - 1) // width


def _packed_width(l1: int, z_degree: int, q_degree: int, d: int, m: int) -> int:
    """Digit width W proved for a numerator over D^d with L1 at most ``l1``,
    z-degree at most ``z_degree`` and, once its q-shift is taken out, q-degree
    at most ``q_degree``, rendered with z^m (bound in the module docstring)."""
    r = max(-m, 0)
    level = max(z_degree + max(m, 0), 2 * d + r)
    return _width(l1 * max(z_degree, 1) ** (2 * d) * 2**level * (q_degree + level + 1) ** r)


def _whole_bytes(width: int) -> int:
    """``width`` rounded up to a whole number of bytes."""
    return -(-width // 8) * 8


class PackedProduct(Record):
    """A product of polynomials in r, q^(+-1) and z, undecoded (``_product``):
    the coefficient of r^k q^(low + i) z^t in the balanced digit
    k + slots (i + span t) of ``value`` at ``width`` bits, a whole number of
    bytes, for k < slots, i < span and t < rows.  ``norms[k]`` bounds the
    L1 norm of the coefficient of r^k, and low .. low + span - 1 bounds its
    q-exponents."""

    __slots__ = ("value", "width", "slots", "span", "rows", "low", "norms")

    def decoded(self) -> list[dict[tuple[int, int], int]]:
        """The coefficients of r^0 .. r^(slots - 1), each a Laurent dict over
        (q-exponent, z-exponent): split at z, then each z-row at the width
        (module docstring)."""
        rows = _dense(self.value, self.width * self.slots * self.span)
        return _laurent(rows, self.width, self.slots, self.low)

    def relaid(self, q0: int, width: int, z_stride: int) -> list[int]:
        """The coefficient of each r^k as one int with the coefficient of
        q^(q0 + e) z^t in its balanced digit e at ``width`` bits, a whole
        number of bytes and at least the product's, and z -> 2^z_stride,
        which must hold the q-range from q0 <= low: the re-layout lemma in
        the module docstring, by strided byte copies."""
        lane, wide = self.width // 8, width // 8
        rows, span = self.rows, self.span
        pad = (self.low - q0) * wide  # bytes below a z-row's first lane
        row = span * wide  # bytes of a z-row's lanes
        if width % 8 or lane > wide or pad < 0 or pad + row > z_stride // 8:
            raise ValueError("the target layout does not hold the product's lanes")
        gap = bytes(z_stride // 8 - row)  # between one z-row's lanes and the next's

        def laid(flat: bytearray) -> int:  # a z-row of span lanes at a time
            view = memoryview(flat)
            return int.from_bytes(
                bytes(pad) + gap.join([view[row * t : row * (t + 1)] for t in range(rows)]), "little"
            )

        half = (1 << (self.width - 1)).to_bytes(lane, "little")
        lanes = self.slots * span * rows
        src = (self.value + int.from_bytes(half * lanes, "little")).to_bytes(lane * lanes, "little")
        offset = laid(bytearray((half + bytes(wide - lane)) * (span * rows)))
        step = self.slots * lane  # bytes from one lane of r^k to the next
        out = []
        for k in range(self.slots):
            flat = bytearray(row * rows)
            for b in range(lane):
                flat[b::wide] = src[k * lane + b :: step]
            out.append(laid(flat) - offset)
        return out


def _product(factors: list[list[dict[tuple[int, int], int]]], slots: int) -> PackedProduct:
    """The product of polynomials in r, q^(+-1) and z, each given as its
    components (a Laurent dict over (q-exponent, z-exponent) per power of r),
    undecoded; the r-degrees must sum to less than ``slots``.  Each component
    is packed by ``_pack`` in one layout: r in ``slots`` digits, then q over
    the q-range of the product, then z.  So no slot of the product spills into
    the next, and the ints are multiplied.  The coefficient of r^k of the
    product is a sum of products of one coefficient of each factor, so its L1
    norm is at most the convolution of the factors' per-r L1 norms at k, and
    each of its coefficients at most the product of the factors' L1 norms, the
    sum of that convolution.  At ``_width`` of that bound, rounded up to whole
    bytes, every digit is below 2^(width-1), so the product is read exactly
    (``PackedProduct.decoded``, the module docstring)."""
    lows, span, rows, norms = [], 1, 1, [1] + [0] * (slots - 1)
    for factor in factors:
        qs = [qe for comp in factor for qe, _ in comp]
        if not qs:  # a zero factor
            return PackedProduct(0, 8, slots, 1, 1, 0, (0,) * slots)
        lows.append(min(qs))
        span += max(qs) - lows[-1]
        rows += max(ze for comp in factor for _, ze in comp)
        convolved = [0] * slots
        for r, comp in enumerate(factor):
            b = sum(map(abs, comp.values()))
            for i in range(slots - r):
                convolved[i + r] += norms[i] * b
        norms = convolved
    width = _whole_bytes(_width(sum(norms)))
    z_shift = width * slots * span
    total = 1
    for factor, low in zip(factors, lows):
        value = 0
        for r, comp in enumerate(factor):
            for ze, row in enumerate(_pack(comp, low, width * slots)):
                value += row << (width * r + z_shift * ze)
        total *= value
    return PackedProduct(total, width, slots, span, rows, sum(lows), tuple(norms))


def _pack(laurent: Mapping[tuple[int, int], int], q0: int, width: int) -> list[int]:
    """Laurent terms over (q, z) as rows over z, each an int with the
    coefficient of q^e in digit e - q0 (q -> 2^width)."""
    rows = [0] * (max(map(itemgetter(1), laurent), default=-1) + 1)
    for (eq, ez), v in laurent.items():
        rows[ez] += v << (width * (eq - q0))
    return rows


def _divide_linear(rows: list[int], shift: int, sign: int, limit: int) -> tuple[list[int], int]:
    """Divide sum_t rows[t] z^t by z - sign * 2^shift (z - q: shift W, sign 1;
    z + 1: shift 0, sign -1) as often as it divides, at most limit times;
    returns the quotient rows and the number of divisions.  Synthetic
    division: Q_(t-1) = R_t + sign * (Q_t << shift), and the last such sum is
    the remainder, so a division stops at the first nonzero remainder."""
    times = 0
    while times < limit:
        carry = 0
        out = []
        for v in reversed(rows):
            carry = v + sign * (carry << shift)
            out.append(carry)
        if carry:
            break
        rows = out[-2::-1]
        times += 1
    return rows, times


def _embed_packed(rows: tuple[int, ...], level: int, width: int) -> tuple[int, int]:
    """(value, stride): sum_b R_b(x) (x - 1)^b (1 - x*y)^(level - b) for the
    z-rows of R, packed at x -> 2^width (so R_b(q) is R_b(x) as it stands) and
    y -> 2^stride, with stride = width times the x-slots the value needs."""
    slots = max(abs(v).bit_length() for v in rows) // width + level + 1
    stride = width * slots
    xy = width + stride
    acc, a_pow = 0, 1
    for b in range(level + 1):
        if b:
            acc -= acc << xy  # times 1 - x*y
            a_pow = (a_pow << width) - a_pow  # (x - 1)^b
        if b < len(rows) and rows[b]:
            acc += rows[b] * a_pow
    return acc, stride


def _divide_x_minus_one(rows: list[int], width: int, limit: int) -> tuple[list[int], int]:
    """Divide every polynomial in x (packed at x -> 2^width) by x - 1 as
    often as all of them allow, at most limit times.  P(2^W) = (2^W - 1)
    Q(2^W) + P(1), and |P(1)| < 2^(W - 1), so x - 1 divides P iff the int
    remainder mod 2^W - 1 is 0, and the int quotient is then Q packed."""
    modulus = (1 << width) - 1
    times = 0
    while times < limit:
        split = [divmod(v, modulus) for v in rows]
        if any(rem for _, rem in split):
            break
        rows = [quo for quo, _ in split]
        times += 1
    return rows, times
