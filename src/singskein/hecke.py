"""The Hecke algebra of type A in its permutation basis, with the Markov trace.

The algebra on n strands is spanned by basis elements ``T_w`` indexed by
permutations of {1..n}, subject to ``T_i^2 = (q - 1) T_i + q`` for the
generators ``T_i = T_{s_i}``.  Right multiplication follows the standard
rule: ``T_w T_i = T_{w s_i}`` when the length goes up, and
``(q - 1) T_w + q T_{w s_i}`` otherwise; the inverse generator acts through
``T_i^{-1} = q^{-1} T_i + (q^{-1} - 1)``.

``ocneanu_trace`` is the unique linear functional with ``tr(1) = 1``,
``tr(ab) = tr(ba)`` and ``tr(x T_{s_n} y) = z tr(x y)`` for x, y supported
on the first n strands.  It is computed per basis element by coset peeling:
for ``T_w`` with largest moved point m, write ``w = v s_{m-1} c`` where
``v = s_j ... s_{m-2}`` (j = w(m)) and c fixes m, with lengths adding up;
then ``tr(T_w) = z * tr(T_v T_c)`` and the recursion bottoms out at the
identity.  The value of ``tr(T_w)`` does not depend on the ambient strand
count, so traces are memoised on the permutation with trailing fixed
points trimmed.

Internally a small kernel works with interned trimmed permutations and
exact integer coefficients; the public operations wrap everything in
``RationalFunction`` scalars.  ``trace_components`` folds a word once for
all 2^d desingularisations: a singular letter branches into a "delete" and
a "resolve to crossing" copy, and the copy's resolution count r rides in
the coefficient.  Each permutation's coefficient, a polynomial in q and r,
is one Python int P_w, its value at q = 2^(R*B) and r = 2^B with R = d + 1:
the signed (balanced) B-bit digit in slot R*e + r is the coefficient of
q^e with r resolutions.  The fold is scaled by q^#S, #S the number of
negative crossings, so no exponent is negative: a negative crossing
multiplies by ``q T_i^{-1} = T_i + (1 - q)`` and every rule is a shift and
an add.  The trace combination sums ``c * P_w`` over the permutations w
for each term ``c q^a z^b`` of ``tr(T_w)`` (a is never negative), shifts
each sum by a powers of q and adds it into one int per z-exponent,
decoded once; slots never collide because r < R.  Decoding is exact when
every digit is below 2^(B-1) in absolute value, and B is set from two
bounds on L1 norms (sums of absolute coefficients):

- the fold of a word with c crossings and d double points has L1 at most
  3^c 4^d: a crossing step at most triples it (``(q-1) T_w + q T_ws`` or
  ``T_ws + (1-q) T_w``), and a double point at most quadruples it (the
  deleted copy plus the resolved crossing);
- ``tr(T_w)`` has L1 at most 3^((m-1)(m-2)/2) for largest moved point m:
  coset peeling makes at most m - 2 left multiplications, each at most
  tripling L1, then recurses into S_(m-1).

A digit of a z-sum is a sum of fold coefficients times trace coefficients,
so it is at most the product of the two bounds with m = n, the strand
count; B is that product's bit length plus one.
"""

from __future__ import annotations

import threading
from typing import Mapping

from .braid import SIGMA, SIGMA_INV, TAU, SingularBraidWord, StrandIndexError
from .coeff import QZ, RationalFunction
from .permutations import Permutation

__all__ = [
    "HeckeElement",
    "SingularLetterError",
    "mul_by_generator",
    "evaluate_word",
    "multiply",
    "ocneanu_trace",
    "permutation_trace",
    "trace_components",
]


class SingularLetterError(ValueError):
    """An ordinary-algebra operation met a singular crossing."""


# ---------------------------------------------------------------------------
# Kernel: interned permutations, integer coefficients.
#
# Permutations are trimmed tuples (trailing fixed points removed) interned
# to small ints.  Trace values are dicts keyed by (q-exponent, z-exponent)
# pairs with integer values.  ``_kernel_trace`` folds with dict
# coefficients keyed by q-exponent and is not packed: its folds are short
# and sparse, so decoding would dominate (a packed version measured about
# 30% slower on cold fills).
# ---------------------------------------------------------------------------

_intern: dict[tuple[int, ...], int] = {(): 0}
_tuples: list[tuple[int, ...]] = [()]
_intern_lock = threading.Lock()
# The mult/trace caches need no lock: their fills are pure and idempotent,
# so a race only duplicates work.  Interning assigns fresh ids, which is
# not idempotent, hence the lock on the miss path.
_rmult_cache: dict[tuple[int, int], tuple[int, bool]] = {}
_lmult_cache: dict[tuple[int, int], tuple[int, bool]] = {}
_trace_cache: dict[int, dict[tuple[int, int], int]] = {0: {(0, 0): 1}}


def _intern_list(values: list[int]) -> int:
    while values and values[-1] == len(values):
        values.pop()
    key = tuple(values)
    wid = _intern.get(key)
    if wid is None:
        with _intern_lock:
            wid = _intern.get(key)
            if wid is None:
                wid = len(_tuples)
                _intern[key] = wid
                _tuples.append(key)
    return wid


def _rmult(wid: int, i: int) -> tuple[int, bool]:
    """(id of w*s_i, whether the length went up)."""
    key = (wid, i)
    hit = _rmult_cache.get(key)
    if hit is not None:
        return hit
    t = _tuples[wid]
    values = list(t) + list(range(len(t) + 1, i + 2))
    a, b = values[i - 1], values[i]
    values[i - 1], values[i] = b, a
    result = (_intern_list(values), a < b)
    _rmult_cache[key] = result
    return result


def _lmult(i: int, wid: int) -> tuple[int, bool]:
    """(id of s_i*w, whether the length went up)."""
    key = (i, wid)
    hit = _lmult_cache.get(key)
    if hit is not None:
        return hit
    t = _tuples[wid]
    values = list(t) + list(range(len(t) + 1, i + 2))
    pa, pb = values.index(i), values.index(i + 1)
    values[pa], values[pb] = i + 1, i
    result = (_intern_list(values), pa < pb)
    _lmult_cache[key] = result
    return result


def _acc(new: dict, wid: int, coeffs: dict, delta: int, negate: bool = False) -> None:
    dst = new.get(wid)
    if dst is None:
        dst = new[wid] = {}
    if negate:
        for key, c in coeffs.items():
            dst[key + delta] = dst.get(key + delta, 0) - c
    else:
        for key, c in coeffs.items():
            dst[key + delta] = dst.get(key + delta, 0) + c


def _prune(state: dict) -> dict:
    out = {}
    for wid, coeffs in state.items():
        clean = {k: v for k, v in coeffs.items() if v}
        if clean:
            out[wid] = clean
    return out


def _kernel_trace(wid: int) -> dict[tuple[int, int], int]:
    cached = _trace_cache.get(wid)
    if cached is not None:
        return cached
    t = _tuples[wid]
    m = len(t)
    j = t[m - 1]  # w(m) < m since the tuple is trimmed
    # c = L_j^{-1} w where L_j = s_j ... s_{m-1}; relabel values accordingly
    c_vals = [m if v == j else (v - 1 if v > j else v) for v in t]
    cid = _intern_list(c_vals)
    # element = T_v T_c with v = s_j ... s_{m-2}, folded by left multiplication
    state: dict[int, dict[int, int]] = {cid: {0: 1}}
    for i in range(m - 2, j - 1, -1):
        new: dict[int, dict[int, int]] = {}
        for uid, coeffs in state.items():
            vid, ascent = _lmult(i, uid)
            if ascent:
                _acc(new, vid, coeffs, 0)
            else:
                _acc(new, uid, coeffs, 1)
                _acc(new, uid, coeffs, 0, negate=True)
                _acc(new, vid, coeffs, 1)
        state = _prune(new)
    out: dict[tuple[int, int], int] = {}
    for uid, coeffs in state.items():
        child = _kernel_trace(uid)
        for qe, c in coeffs.items():
            for (tq, tz), tc in child.items():
                k2 = (qe + tq, tz + 1)
                v = out.get(k2, 0) + c * tc
                if v:
                    out[k2] = v
                else:
                    del out[k2]
    _trace_cache[wid] = out
    return out


def trace_components(word: SingularBraidWord) -> list[dict[tuple[int, int], int]]:
    """For each k in 0..degree, the sum over k-subsets S of the singular
    letters of ``tr`` of the word with S resolved and the rest deleted, as an
    integer Laurent dict over (q-exponent, z-exponent)."""
    d = word.degree
    n = word.strands
    stride = d + 1  # slots per power of q: resolution counts 0..d
    negatives = sum(1 for g in word.letters if g.kind == SIGMA_INV)
    crossings = len(word.letters) - d
    # Digit width from the two L1 bounds in the module docstring.
    bound = 3**crossings * 4**d * 3 ** ((n - 1) * (n - 2) // 2)
    bits = bound.bit_length() + 1
    q_shift = stride * bits
    state: dict[int, int] = {0: 1}
    for g in word.letters:
        i = g.index
        new: dict[int, int] = {}
        get = new.get
        if g.kind == SIGMA:
            for wid, p in state.items():
                vid, ascent = _rmult(wid, i)
                if ascent:
                    new[vid] = get(vid, 0) + p
                else:
                    pq = p << q_shift
                    new[wid] = get(wid, 0) + pq - p
                    new[vid] = get(vid, 0) + pq
        elif g.kind == SIGMA_INV:  # times q: T_i + (1 - q)
            for wid, p in state.items():
                vid, ascent = _rmult(wid, i)
                if ascent:
                    new[vid] = get(vid, 0) + p
                    new[wid] = get(wid, 0) + p - (p << q_shift)
                else:
                    new[vid] = get(vid, 0) + (p << q_shift)
        else:  # TAU: delete + resolve
            for wid, p in state.items():
                new[wid] = get(wid, 0) + p
                pr = p << bits
                vid, ascent = _rmult(wid, i)
                if ascent:
                    new[vid] = get(vid, 0) + pr
                else:
                    pq = pr << q_shift
                    new[wid] = get(wid, 0) + pq - pr
                    new[vid] = get(vid, 0) + pq
        state = {wid: p for wid, p in new.items() if p}
    by_term: dict[tuple[int, int], int] = {}
    get = by_term.get
    for wid, p in state.items():
        for key, tc in _kernel_trace(wid).items():
            by_term[key] = get(key, 0) + tc * p
    sums: dict[int, int] = {}
    for (tq, tz), total in by_term.items():
        sums[tz] = sums.get(tz, 0) + (total << tq * q_shift)
    comps: list[dict[tuple[int, int], int]] = [{} for _ in range(stride)]
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    for tz, total in sums.items():
        slot = 0
        while total:
            digit = total & mask
            if digit >= half:
                digit -= 1 << bits
            if digit:
                qe, re = divmod(slot, stride)
                comps[re][(qe - negatives, tz)] = digit  # undo q^#S
            total = (total - digit) >> bits
            slot += 1
    return comps


def permutation_trace(perm: Permutation) -> RationalFunction:
    """Markov trace of the basis element indexed by ``perm`` (any strand count)."""
    m = perm.largest_moved_point()
    wid = _intern_list(list(perm.image[:m]))
    return RationalFunction.from_laurent_terms(QZ, _kernel_trace(wid))


# ---------------------------------------------------------------------------
# Public elements
# ---------------------------------------------------------------------------

_RF_ONE = RationalFunction.one(QZ)
_RF_Q = RationalFunction.coordinate(QZ, "q")
_RF_Q_MINUS_1 = _RF_Q - _RF_ONE
_RF_Q_INV = _RF_Q.inverse()
_RF_Q_INV_MINUS_1 = _RF_Q_INV - _RF_ONE


class HeckeElement:
    """Finite linear combination of permutation basis elements."""

    __slots__ = ("strands", "terms")

    def __init__(self, strands: int, terms: Mapping[Permutation, RationalFunction]):
        clean: dict[Permutation, RationalFunction] = {}
        for perm, coeff in terms.items():
            if perm.size != strands:
                raise ValueError(
                    f"permutation of size {perm.size} in an element on {strands} strands"
                )
            if coeff.variables != QZ:
                raise ValueError("coefficients must live over (q, z)")
            if not coeff.is_zero:
                clean[perm] = coeff
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("HeckeElement is immutable")

    @classmethod
    def identity(cls, strands: int) -> "HeckeElement":
        return cls(strands, {Permutation.identity(strands): _RF_ONE})

    def scaled(self, factor: RationalFunction) -> "HeckeElement":
        return HeckeElement(
            self.strands, {w: c * factor for w, c in self.terms.items()}
        )

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.strands != other.strands:
            raise ValueError("strand counts differ")
        out = dict(self.terms)
        for w, c in other.terms.items():
            acc = out.get(w)
            out[w] = c if acc is None else acc + c
        return HeckeElement(self.strands, out)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.strands == other.strands and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.strands, tuple(sorted(self.terms.items(), key=lambda kv: kv[0].image))))

    def __repr__(self) -> str:
        if not self.terms:
            return "<hecke 0>"
        bits = [f"({c})*T{w.image}" for w, c in sorted(self.terms.items(), key=lambda kv: kv[0].image)]
        return "<hecke " + " + ".join(bits) + ">"


def mul_by_generator(h: HeckeElement, i: int, sign: int = 1) -> HeckeElement:
    """Right-multiply by ``T_i`` (sign +1) or ``T_i^{-1}`` (sign -1)."""
    if not 1 <= i <= h.strands - 1:
        raise StrandIndexError(f"generator index {i} out of range for {h.strands} strands")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out: dict[Permutation, RationalFunction] = {}

    def add(w: Permutation, c: RationalFunction) -> None:
        acc = out.get(w)
        out[w] = c if acc is None else acc + c

    for w, c in h.terms.items():
        ws = w.right_multiplied(i)
        ascent = not w.has_right_descent(i)
        if sign > 0:
            if ascent:
                add(ws, c)
            else:
                add(w, c * _RF_Q_MINUS_1)
                add(ws, c * _RF_Q)
        else:
            if ascent:
                add(ws, c * _RF_Q_INV)
                add(w, c * _RF_Q_INV_MINUS_1)
            else:
                add(ws, c)
    return HeckeElement(h.strands, out)


def evaluate_word(word: SingularBraidWord) -> HeckeElement:
    """Image of a crossing-only word: a left-to-right generator fold."""
    h = HeckeElement.identity(word.strands)
    for g in word.letters:
        if g.kind == TAU:
            raise SingularLetterError(
                "cannot evaluate a singular crossing in the ordinary algebra"
            )
        h = mul_by_generator(h, g.index, g.kind)
    return h


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product a*b, folding a reduced word for each basis permutation of b."""
    if a.strands != b.strands:
        raise ValueError("strand counts differ")
    out = HeckeElement(a.strands, {})
    for v, cv in b.terms.items():
        piece = a
        for i in v.reduced_word():
            piece = mul_by_generator(piece, i)
        out = out + piece.scaled(cv)
    return out


def ocneanu_trace(h: HeckeElement) -> RationalFunction:
    """The Markov trace, extended linearly from the basis elements."""
    total = RationalFunction.zero(QZ)
    for w, c in h.terms.items():
        total = total + c * permutation_trace(w)
    return total
