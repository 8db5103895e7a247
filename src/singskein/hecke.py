"""The Hecke algebra of type A in its permutation basis, with the Markov trace.

The algebra on n strands is spanned by basis elements ``T_w`` indexed by
permutations of {1..n}, subject to ``T_i^2 = (q - 1) T_i + q`` for the
generators ``T_i = T_{s_i}``.  Right multiplication follows the standard
rule: ``T_w T_i = T_{w s_i}`` when the length goes up, and
``(q - 1) T_w + q T_{w s_i}`` otherwise; the inverse generator acts through
``T_i^{-1} = q^{-1} T_i + (q^{-1} - 1)``.

The Markov trace ``tr`` is the unique linear functional with ``tr(1) = 1``,
``tr(ab) = tr(ba)`` and ``tr(x T_{s_n} y) = z tr(x y)`` for x, y supported
on the first n strands.

This module is the kernel the CLI runs: packed permutations and exact
integer coefficients.  The algebra with ``RationalFunction`` coefficients
(``HeckeElement``, ``mul_by_generator``, ``evaluate_word``, ``multiply``,
``ocneanu_trace`` and ``permutation_trace``), the tests' oracle, lives in
``singskein.oracle``; the acceptance tests import ``HeckeElement``,
``multiply`` and ``permutation_trace`` from here, so those still resolve
here.  A permutation w is one int whose field k - 1, 5 bits wide, holds
w(k) XOR k: a fixed point is a zero field, so trailing fixed points vanish,
the identity is 0 and w's largest moved point is its bit length over 5,
rounded up.  Right multiplication by s_i swaps two fields in closed form.
Points up to 31 XOR into 5 bits and 32 does not, so the kernel folds on at
most 31 strands.  Its one memo, the coset split of a permutation, is keyed
by the packed value, so ``clear_caches`` may empty it at any time and
``cache_info`` reports its entries, hits and misses.

A step (``_step``) walks the state in s_i-orbits {u, u s_i}, u with an
ascent at i, and writes each orbit's new coefficients in closed form from
its two old ones: with T_i, ``T_u -> T_us`` and
``T_us -> (q - 1) T_us + q T_u``; with q T_i^{-1}, ``T_u -> T_us + (1 - q)
T_u`` and ``T_us -> q T_u``.  So each new coefficient is stored once, and
the zero rule holds: no state stores a 0.  A single term is never 0, only a
sum can be, and every sum that vanishes is dropped where it is formed, in
the step and in the peel's merges alike.  The coset split (``_coset``)
relabels every field at once by a carry lemma: for a field value v <= 31,
v + 31 - j carries out of its 5 bits iff v > j.

``trace_components`` folds a word once for all 2^d desingularisations: a
double point is the identity plus the crossing rule one digit up: the
deleted copy is the state itself, and in the copy resolved to a crossing the
resolution count r rides in the coefficient.  Each
permutation's coefficient, a polynomial in q and r, is one Python int P_w,
its value at q = 2^(R*B) and r = 2^B with R = d + 1: the signed (balanced)
B-bit digit in slot R*e + r is the coefficient of q^e with r resolutions.
The fold is scaled by q^#S, #S the number of negative crossings, so no
exponent is negative: a negative crossing multiplies by
``q T_i^{-1} = T_i + (1 - q)`` and every rule is a shift and an add.

The trace then acts on the whole folded element, one strand at a time, by
peeling: for m from the strand count down to 2, each term P_w T_w whose
largest moved point is m is written ``T_w = T_v T_{m-1} T_c`` with
j = w(m), ``v = s_j ... s_{m-2}`` and c fixing m, lengths adding up, and is
replaced by ``z P_w T_c T_j ... T_{m-2}``.  That has the same trace: the
Markov property takes out ``T_{m-1}`` as a factor z, and cyclicity moves
``T_v`` to the right.  At one level and one power of z, all the c are
folded together in one positive fold, each joining just before the step
s_j.  What is left on the identity is one int per power of z, decoded once
(``packed._digits``); slots never collide because r < R.  The decode is
exact by the lemma in ``singskein.packed`` once B is ``packed._width`` of a
bound on every digit, taken from L1 norms (sums of absolute coefficients):
every fold or peel step at most triples L1 (``(q-1) T_w + q T_ws`` or
``T_ws + (1-q) T_w``) and a double point at most quadruples it (the
identity plus the crossing rule one digit up).  A word with c crossings and
d double points folds to L1 at most 3^c 4^d, and a coefficient passes
through at most sum_{m=2..n} (m - 2) = (n-1)(n-2)/2 peel steps on n
strands, so every digit is at most 3^(c + (n-1)(n-2)/2) 4^d.

``trace_components`` does not fold the word as given but its cyclic
reduction (``braid._reduced``): every pair s_i^e ... s_i^-e is cancelled
whose letters in between, going round the word, all commute with s_i (an
index at least 2 away, or t_i).  That is exact: T_i T_i^-1 = 1, far
generators commute, both images of a double point (the identity when
deleted, T_i when resolved) commute with T_i^(+-1), and tr(ab) = tr(ba), so
every desingularisation of the reduced word has the trace of the word's.
Double points are never cancelled and the exponent sum is kept, so the
degree and the orientation rule below are those of the word.  The reduced
word is folded on the strands it spans, its indices moved down so that the
lowest is 1: max - min + 2 strands, 1 for no letter.  That is exact too:
tr does not depend on the strand count, and tr o sh with sh(T_i) = T_(i+1)
is a Markov trace (sh is a homomorphism and sh(x T_n) = sh(x) T_(n+1)), so
it is tr.  The fold only sees the reduced word, so c and n in B are its
crossings and its strands.  Every word is folded this way, the skein
check's w s_i, w S_i and w too, each on its own.  ``_trace`` itself folds
the letters it is given, as given.

Each word is folded in one of two orientations, chosen per word.  The map
``iota: T_i -> -q T_i^{-1} = q - 1 - T_i`` is an involutive automorphism of
the algebra, and ``tr_z o iota`` is the Markov trace with parameter
``z' = q - 1 - z``, so ``tr_z(x) = tr_{z'}(iota(x))`` (Jones, Ann. Math. 126,
1987).  iota sends ``s_i`` and a resolved double point to ``-q T_i^{-1}`` and
``S_i`` to ``-q^{-1} T_i``.  A positive letter branches only where w has a
descent at i, a negative one where it has an ascent, and ascents are the
common case while w is short; so a word with more negative than positive
crossings (#S > #s) is folded as its mirror (a count rule, which need not
pick the cheaper fold when the signs are nearly balanced).  That fold swaps the rules of
s and S and resolves a double point by the negative rule
``q T_i^{-1} = T_i + (1 - q)``, one more factor q per resolution, so its
component k carries q^(#s + k) where the direct fold's carries q^#S.  As
component k of the word is (-1)^(c + k) q^(#s - #S + k) times the mirror's
at z', the packed ints left on the identity, P_u for each power z'^u, are
mapped back before the decode: z^t takes (-1)^t sum_{u >= t} C(u, t)
(q - 1)^(u - t) P_u, by Horner's rule in q - 1 a shift, a subtraction and an
add per step, at most n(n + 1)/2 steps.  The sums, taken without their
(-1)^t, are the direct fold's packed values with each digit of z^t and k
resolutions signed by (-1)^(t + c + k), so one decode serves both
orientations (q-exponents shifted down by #S) and applies that sign to each
value it stores.  The decoded values are the direct fold's, which the bound
above covers; the P_u and the ints in between may hold digits above
2^(B-1), as evaluation at q = 2^(R*B), r = 2^B is a ring homomorphism and
packed shifts and adds are exact.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .braid import SIGMA, SIGMA_INV, TAU, Generator, SingularBraidWord, _reduced, exponent_sum
from .packed import _digits, _width

__all__ = [
    "cache_info",
    "clear_caches",
    "trace_components",
]

# the oracle's Hecke algebra over Q(q, z), in ``singskein.oracle``
_ORACLE_NAMES = frozenset({"HeckeElement", "multiply", "permutation_trace"})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Kernel: packed permutations, packed integer coefficients.
# ---------------------------------------------------------------------------

_FIELD = 5  # bits per point of a packed permutation
_MASK = (1 << _FIELD) - 1  # also the largest strand count a field can hold
_TAU_NEG = 2  # a double point resolved to a negative crossing (mirror fold)
_MIRROR = {SIGMA: SIGMA_INV, SIGMA_INV: SIGMA, TAU: _TAU_NEG}
_RESOLVE = {TAU: SIGMA, _TAU_NEG: SIGMA_INV}  # the crossing a double point resolves to


# _IDS[m] packs the identity on m points without the XOR: field k - 1 holds k
_IDS = [sum(k << (_FIELD * (k - 1)) for k in range(1, m + 1)) for m in range(_MASK + 1)]
# bit 0 of every even field (0, 2, ..., 30), and all 5 bits of each
_EVEN_LOW = sum(1 << (2 * _FIELD * k) for k in range((_MASK + 1) // 2))
_EVEN = _EVEN_LOW * _MASK


@lru_cache(maxsize=None)
def _coset(w: int) -> tuple[int, int]:
    """(j, c) with w = s_j ... s_{m-1} c, lengths adding up, where m is w's
    largest moved point, j = w(m) and c fixes m.

    ``w ^ _IDS[m]`` holds the images w(k) in its fields, j = w(m) on top.
    c = L_j^{-1} w, L_j = s_j ... s_{m-1}, takes m to m (a zero field) and
    each image v of the m - 1 fields below to v - 1 if v > j, else v.  All
    fields are split at once by the carry lemma: for 1 <= j, v <= 31,
    v + (31 - j) carries out of its 5 bits iff v > j, and is at most 61.
    So the even fields, with the odd ones zeroed, take 31 - j each, and
    every carry lands in bit 0 of the zeroed field above; then the odd
    fields, moved down one field, the same way.  The carries, moved back
    to bit 0 of their own fields, are the ones subtracted."""
    m = (w.bit_length() + _FIELD - 1) // _FIELD
    top = _FIELD * (m - 1)
    images = w ^ _IDS[m]
    j = images >> top
    below = images ^ (j << top)
    spread = (_MASK - j) * _EVEN_LOW
    even = ((below & _EVEN) + spread) >> _FIELD & _EVEN_LOW
    odd = (((below >> _FIELD) & _EVEN) + spread) >> _FIELD & _EVEN_LOW
    return j, (below - even - (odd << _FIELD)) ^ _IDS[m - 1]


def cache_info() -> dict[str, int]:
    """Entries, hits and misses of the kernel's one memo, the coset split."""
    info = _coset.cache_info()
    return {"entries": info.currsize, "hits": info.hits, "misses": info.misses}


def clear_caches() -> None:
    """Empty the coset memo; safe at any time, as it is keyed by value."""
    _coset.cache_clear()


def _merge(dst: dict[int, int], src: dict[int, int]) -> None:
    """Add the terms of ``src`` into ``dst``, dropping each sum that is 0."""
    get = dst.get
    for w, p in src.items():
        old = get(w)
        if old is not None:
            p += old
            if not p:
                del dst[w]
                continue
        dst[w] = p


def _step(state: dict[int, int], i: int, kind: int, q_shift: int, bits: int) -> dict[int, int]:
    """Right-multiply a packed state by ``T_i`` (SIGMA), ``q T_i^{-1}``
    (SIGMA_INV) or a double point (TAU, _TAU_NEG).  No coefficient of the
    state or of the result is 0.

    With a = w(i) and b = w(i+1), w s_i swaps the two fields, that is XORs
    a ^ b into both, and u = w has an ascent at i iff a < b.  The state is
    walked in s_i-orbits {u, us}, and each orbit's new coefficients have a
    closed form in its old ones, p_u and p_us:

    * ``T_i``: ``T_u T_i = T_us`` and ``T_us T_i = (q - 1) T_us + q T_u``,
      so us gets p_u + (q - 1) p_us and u gets q p_us;
    * ``q T_i^{-1} = T_i + (1 - q)``: ``T_u -> T_us + (1 - q) T_u`` and
      ``T_us -> q T_u``, so us gets p_u and u gets (1 - q) p_u + q p_us.

    An orbit is done where its ascent u is met, after one ``get`` of us; a
    descent is skipped when u is in the state, and otherwise taken with
    p_u = 0.  So each new coefficient is stored once.  A single term is not
    0, as q = 2^q_shift is not 1; only the two-term sum can vanish, and it is
    dropped where it is formed.  A double point is the identity plus the
    crossing rule one digit up: the deleted copy is the state itself, and
    its resolution to ``T_i`` (TAU) or to ``q T_i^{-1}`` (_TAU_NEG) is that
    crossing's rule applied to the coefficients shifted one resolution
    digit (``<< bits``)."""
    if kind in _RESOLVE:
        new = _step({w: p << bits for w, p in state.items()}, i, _RESOLVE[kind], q_shift, bits)
        _merge(new, state)
        return new
    lo = _FIELD * (i - 1)
    hi = lo + _FIELD
    both = (1 << lo) | (1 << hi)
    new: dict[int, int] = {}
    get = state.get
    if kind == SIGMA:
        for w, p in state.items():
            a = ((w >> lo) & _MASK) ^ i
            b = ((w >> hi) & _MASK) ^ (i + 1)
            v = w ^ ((a ^ b) * both)
            if a < b:  # w = u, v = us
                r = get(v)
                if r is None:
                    new[v] = p
                else:
                    rq = r << q_shift
                    s = p + rq - r
                    if s:
                        new[v] = s
                    new[w] = rq
            elif v not in state:  # w = us, p_u = 0
                pq = p << q_shift
                new[w] = pq - p
                new[v] = pq
    else:  # SIGMA_INV, times q: T_i + (1 - q)
        for w, p in state.items():
            a = ((w >> lo) & _MASK) ^ i
            b = ((w >> hi) & _MASK) ^ (i + 1)
            v = w ^ ((a ^ b) * both)
            if a < b:  # w = u, v = us
                new[v] = p
                r = get(v)
                s = p - (p << q_shift) if r is None else p + ((r - p) << q_shift)
                if s:
                    new[w] = s
            elif v not in state:  # w = us, p_u = 0
                new[v] = p << q_shift
    return new


def _trace(
    state: dict[int, int], letters: tuple, strands: int, degree: int, mirror: bool = False
) -> list[dict[tuple[int, int], int]]:
    """Fold ``letters`` into ``state`` (packed permutations to packed ints),
    peel the result down to the identity and decode it: for each resolution
    count 0..degree, an integer Laurent dict over (q-exponent, z-exponent).

    With ``mirror`` the word is folded as its mirror, and the ints left on
    the identity are mapped back by z' -> q - 1 - z before the one decode, so
    only the decoded values, the direct fold's, need the digit bound (module
    docstring); ``state`` must then be the identity ``{0: 1}``.  ``state`` is
    consumed: each z-slice is dropped once it is partitioned, so the caller
    must keep no reference to it.
    """
    if strands > _MASK:
        raise ValueError(f"{strands} strands do not fit a {_FIELD}-bit field (at most {_MASK})")
    stride = degree + 1  # slots per power of q: resolution counts 0..degree
    crossings = len(letters) - degree
    # Digit width from the L1 bound in the module docstring.
    bits = _width(3 ** (crossings + (strands - 1) * (strands - 2) // 2) * 4**degree)
    q_shift = stride * bits
    for g in letters:
        state = _step(state, g.index, _MIRROR[g.kind] if mirror else g.kind, q_shift, bits)
    negatives = sum(1 for g in letters if g.kind == SIGMA_INV)
    slices = [state]
    del state
    return _peel(slices, strands, stride, mirror, bits, crossings, negatives)


def _peel(
    slices: list, strands: int, stride: int, mirror: bool, bits: int, crossings: int, negatives: int
) -> list[dict[tuple[int, int], int]]:
    """Peel a folded state, passed as ``[state]``, down to the identity and
    decode it (module docstring); ``crossings`` and ``negatives`` count the
    folded word's crossings and negative crossings.  The list is emptied as
    it is read, so a state that only it holds is dropped slice by slice."""
    q_shift = stride * bits
    for m in range(strands, 1, -1):
        below = 1 << (_FIELD * (m - 1))  # w < below: largest moved point below m
        out: list[dict[int, int]] = [{}]
        for k in range(len(slices)):
            part, slices[k] = slices[k], None
            rest: dict[int, int] = {}
            groups: dict[int, dict[int, int]] = {}  # j -> {c: P_w}
            for w, p in part.items():
                if w < below:
                    rest[w] = p
                else:  # (j, c) determines w, so no c repeats within its j
                    j, c = _coset(w)
                    dst = groups.get(j)
                    if dst is None:
                        groups[j] = {c: p}
                    else:
                        dst[c] = p
            del part
            _merge(out[k], rest)  # the terms below m, carrying z^k
            # z * P_w * T_c T_j ... T_{m-2}: each c joins just before step s_j
            acc: dict[int, int] = {}
            for i in range(min(groups, default=m), m):
                group = groups.pop(i, None)
                if group:
                    if len(group) > len(acc):
                        acc, group = group, acc
                    _merge(acc, group)
                if i < m - 1:
                    acc = _step(acc, i, SIGMA, q_shift, bits)
            out.append(acc)  # the terms carrying z^(k+1)
        slices = out
    totals = [part.get(0, 0) for part in slices]  # only the identity is left
    if mirror:  # z' -> q - 1 - z, Horner in q - 1; the sign (-1)^t waits for the decode
        mapped = []
        for t in range(len(totals)):
            acc = 0
            for u in range(len(totals) - 1, t - 1, -1):
                acc = (acc << q_shift) - acc + comb(u, t) * totals[u]
            mapped.append(acc)
        totals = mapped
    comps: list[dict[tuple[int, int], int]] = [{} for _ in range(stride)]
    for tz, total in enumerate(totals):
        for slot, digit in _digits(total, bits):
            qe, re = divmod(slot, stride)
            flip = mirror and (tz + crossings + re) & 1  # the mirror's (-1)^(t + c + k)
            comps[re][(qe - negatives, tz)] = -digit if flip else digit  # undo q^#S
    return comps


def _compact(letters: tuple) -> tuple[tuple, int]:
    """The letters moved down so that the lowest index is 1, and the strand
    count their indices span (1 for no letter): the trace does not see
    unused strands (module docstring)."""
    if not letters:
        return letters, 1
    indices = [g.index for g in letters]
    low = min(indices)
    if low > 1:
        letters = tuple(Generator(g.kind, g.index - low + 1) for g in letters)
    return letters, max(indices) - low + 2


def trace_components(word: SingularBraidWord) -> list[dict[tuple[int, int], int]]:
    """For each k in 0..degree, the sum over k-subsets S of the singular
    letters of ``tr`` of the word with S resolved and the rest deleted, as an
    integer Laurent dict over (q-exponent, z-exponent).  The word's cyclic
    reduction is folded on the strands it spans, as its mirror when it has
    more negative than positive crossings."""
    letters, strands = _compact(_reduced(word.letters))
    return _trace({0: 1}, letters, strands, word.degree, exponent_sum(word) < 0)

