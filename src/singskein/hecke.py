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
``multiply`` and ``permutation_trace`` from here, so ``braid._forward``
reads those from there.  A permutation w is one int, its inversion table:
field k - 1, 5 bits wide, holds d_k = #{l < k : w(l) > w(k)}
(``_pack_perm`` converts from images, and ``oracle._unpack_perm``, which
only the tests use, converts back).  d_k = 0 above w's largest moved point
m and d_m = m - w(m) > 0, so trailing fixed points vanish, the identity is
0, m is the bit length over 5, rounded up, and the fields sum to w's
length.  As d_k <= k - 1, 5-bit fields hold the tables of up to 32 points;
the kernel folds on at most 31 strands (``_MASK``).  w has an ascent at i
iff d_i >= d_{i+1}, and right multiplication by s_i changes only those two
fields, in closed form (``_step``).  The kernel holds no memo.

A crossing's step (``_step``) walks the state in s_i-orbits {u, u s_i}, u
with an ascent at i, and writes each orbit's new coefficients in closed form
from its two old ones: with T_i, ``T_u -> T_us`` and
``T_us -> (q - 1) T_us + q T_u``; with q T_i^{-1}, ``T_u -> T_us + (1 - q)
T_u`` and ``T_us -> q T_u``.  So each new coefficient is stored once.  A
double point's step is its crossing's step one resolution digit up, plus
the state: these two orbit rules are the kernel's only ones.  The zero rule
holds: no state stores a 0.  A single term is never 0, only a sum can be,
and every sum that vanishes is dropped where it is formed, in the step, in
the double point's merge and in the peel's merges alike.

``_folded`` folds a word once for all 2^d desingularisations: a
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
peeling: for m from the strand count down to 4, each term P_w T_w whose
largest moved point is m is written ``T_w = T_v T_{m-1} T_c`` with
j = w(m), ``v = s_j ... s_{m-2}`` and c fixing m, lengths adding up, and is
replaced by ``z P_w T_c T_j ... T_{m-2}``.  That has the same trace: the
Markov property takes out ``T_{m-1}`` as a factor z, and cyclicity moves
``T_v`` to the right.  The split is read off the fields (the split lemma):
j = m - d_m, from the top field, and c = L_j^{-1} w with
L_j = s_j ... s_{m-1} sends m to m and each w(k) > j to w(k) - 1, which
keeps the order of w(1), ..., w(m-1), so c's fields are w's below the top
one.  At one level and one power of z, all the c are folded together in
one positive fold, each joining just before the step s_j; a group is
built only for each j that occurs, and the terms below m join the slice
carried down for that power of z, the smaller dict merged into the larger.

The peel's base is S_3, whose six traces are known in closed form:
tr(1) = 1, tr(T_1) = tr(T_2) = z, tr(T_1 T_2) = tr(T_2 T_1) = z^2 and
tr(T_1 T_2 T_1) = z tr(T_1^2) = z ((q - 1) z + q) = (q - 1) z^2 + q z.  So
z-slice k adds each of its six coefficients, times its trace, into the ints
of z^k, z^(k+1) and z^(k+2), with q a shift: one int per power of z, which
``_peel`` returns undecoded and ``_trace`` decodes once
(``packed._laurent``); slots never collide because r < R.

The width lemma.  The decode is exact by the lemma in ``singskein.packed``
once B is ``packed._width`` of a bound on every digit, taken from L1 norms
(sums of absolute coefficients).  Every fold step at most triples L1
(``(q-1) T_w + q T_ws`` or ``T_ws + (1-q) T_w``) and a double point at most
quadruples it (the identity plus the crossing rule one digit up), so a word
with c crossings and d double points folds to L1 at most 3^c 4^d.  tr is
linear, so L1(tr x) <= L1(x) M_n on n strands, M_n the largest
L1(tr T_w) over w in S_n, and every digit is at most 3^c 4^d M_n.  M_n is
exactly 3^(n-2) for n = 2..8, reached at the transposition (1 n), as found
on every permutation (the battery's ``trace-bound`` step):

    n    1  2  3  4   5   6    7    8
    M_n  1  1  3  9  27  81  243  729

Above 8 strands, a peel level m at most triples L1 m - 2 times, as a term
passes through at most m - 2 steps there, and the levels n..9 carry the
state down to S_8.  So M_n <= 3^e(n) with e(n) = max(n - 2, 0) up to 8
and e(n) = 6 + sum_{m=9..n} (m - 2) above (``_peel_exponent``), and every
digit is at most 3^(c + e(n)) 4^d.  The per-level bound alone gives
(n-1)(n-2)/2 in place of e(n), 15 more on 8 strands or more.

``_folded`` is the one fold entry, and ``packed._decoded`` decodes its
result, in either of its two formats (the oracle's ``trace_components`` is
the two together).  It does not
fold the word as given but its cyclic reduction (``braid._reduced``), or
the reduction its caller already holds: every pair s_i^e ... s_i^-e is
cancelled whose letters in between, going round the word, all commute with
s_i (an index at least 2 away, or t_i).  That is exact: T_i T_i^-1 = 1, far
generators commute, both images of a double point (the identity when
deleted, T_i when resolved) commute with T_i^(+-1), and tr(ab) = tr(ba), so
every desingularisation of the reduced word has the trace of the word's.
Double points are never cancelled and the exponent sum is kept, so the
degree and the exponent sum are those of the word.  The reduced
word is folded on the strands it spans, its indices moved down so that the
lowest is 1: max - min + 2 strands, 1 for no letter.  That is exact too:
tr does not depend on the strand count, and tr o sh with sh(T_i) = T_(i+1)
is a Markov trace (sh is a homomorphism and sh(x T_n) = sh(x) T_(n+1)), so
it is tr.  Every word is folded this way, the skein check's w s_i, w S_i
and w and ``--verify``'s move words too, each on its own.  ``_trace``
itself folds the letters it is given, as given, from the identity: it is
the whole-word fold, which the tests keep as an independent path, and
``_peel`` alone, its ints decoded by ``packed._laurent``, traces a single
basis element.

A reduced word that spans at least ``_SPLIT_STRANDS`` (7) strands is cut
into pieces at its block indices (``_split``), a block's letters being a
piece of their own; on fewer, re-reducing the pieces, one fold per piece
and the product cost more than the fold they save.  The trace is multiplicative over the split union and
the connected sum of closures, the stacking product of acceptance
criterion 7 (``oracle.closure_product``).  The cut lemma: for a in H_n, b
in H_k and x in the algebra generated by T_n, tr(a x sh^n(b)) =
tr(a) tr(b) (alpha + beta z), where x = alpha + beta T_n.  Every such x has
that form, as T_n^2 = (q - 1) T_n + q and T_n^-1 = q^-1 T_n + q^-1 - 1,
so by linearity it is enough that tr(a sh^n(b)) = tr(a) tr(b) and
tr(a T_n sh^n(b)) = z tr(a) tr(b).  By induction on k, as H_k = H_(k-1) +
H_(k-1) T_(k-1) H_(k-1) (for k = 1, b is a scalar and tr(a T_n) =
z tr(a)): for b = u T_(k-1) v with u, v in H_(k-1), the Markov property
tr(x T_m y) = z tr(x y) takes one factor z out of each side, and leaves
the case uv.

So let i be a block index: the word's letters at i form one run, going
round the word, among its letters at i - 1, i and i + 1.  An unused index
and the index of a lone letter are blocks.  Rotate the run to the end
(tr(ab) = tr(ba)).  Each letter between two of the run's letters has an
index at least 2 away from i, so it commutes with T_i^(+-1) and with both
images of t_i (1 and T_i), and the run's letters gather at the end into
x, in the algebra of T_i.  Every other letter has an index below i, in
piece a, or above i, in piece b moved down by i; a and b commute, as their
indices differ by at least 2.  So the element is a sh^i(b) x =
sh^i(b) a x, whose trace is tr(a x sh^i(b)) by cyclicity, and the lemma
gives tr(a) tr(b) times x's factor alpha + beta z, written in r
(resolutions), q and z.  The letters of x commute, so x = T_i^m
(1 + r T_i)^c, with m the exponent sum of its crossings and c its double
points, each the deleted copy plus the copy resolved to T_i.  For every
integer n, T_i^n = (-1)^n + b_n (T_i + 1) with b_n = (q^n - (-1)^n) /
(q + 1), a Laurent polynomial: both sides agree at T_i = q and at
T_i = -1, the roots of T_i^2 = (q - 1) T_i + q, and alpha + beta T_i is
fixed by alpha + beta q and alpha - beta, as q + 1 is not a zero divisor.
So the block's factor (``_block_factor``) is sum_k C(c, k) r^k ((-1)^n +
b_n (z + 1)), n = m + k; for one letter it is

* no letter at i: 1 (the split union);
* s_i: z (the connected sum);
* S_i: T_i^-1 gives q^-1 (z + 1) - 1;
* t_i: 1 + r z.

Each desingularisation of the word is one of a's times one of b's times
one of x's, so the component generating functions, polynomials in r,
multiply too.  The rotation is in the proof only: a and b, read in the
word's own order, are rotations of the rotated word's a and b, with the
same traces.  ``_split`` cuts a word at all of its block indices at once,
found by two laps round its indices (``_blocks``); an unused index is cut
too, with no piece.  That is the same as cutting at them one after
another: dropping letters only merges runs, so a block index of the word
is still one of each side once the other blocks are dropped.  Dropping x
can free pairs at i +- 1 (in ``s1 s2 S1`` the two index-1 letters cancel
once s2 is gone), so each stretch between two cuts is reduced again and
cut again, until no piece has a block index, and compacted once it is a
piece, a block on 2 strands.  ``_fold`` traces a piece on at most 2
strands, one index's letters, by the block's factor (a and b empty), and
folds a piece on more strands with ``_trace`` on the strands it spans, in
its own orientation (below) and at its own B: c and n in B are the
piece's crossings and strands.  The product is taken on packed ints
(``packed._product``): each piece's components are packed with r in
R = d + 1 digits, then q over the product's q-range, then z, so no slot
spills into the next (the r-degrees sum to d).  Every
coefficient of the product is a sum of products of one coefficient of
each factor, so it is at most the product of the factors' L1 norms, and
``packed._width`` of that product, rounded up to whole bytes, reads it
exactly.  The ints are multiplied, and ``_folded`` returns the product
undecoded, for ``markov`` to re-lay out at its own width; a word that is
its own one piece is returned as its decoded components.  The product's
decode (``PackedProduct.decoded``) splits it at z and each z-row at that
width: a row holds R times the q-span such digits, so it too is read
exactly (the lemma in ``singskein.packed``).  The split is a function of
the reduced letters, so words with equal reductions still run the same
computation.

Each piece on 3 strands or more is folded in one of two orientations,
chosen per piece.  The map ``iota: T_i -> -q T_i^{-1} = q - 1 - T_i`` is an
involutive automorphism of the algebra, and ``tr_z o iota`` is the Markov
trace with parameter ``z' = q - 1 - z``, so ``tr_z(x) = tr_{z'}(iota(x))``
(Jones, Ann. Math. 126, 1987).  iota sends ``s_i`` and a resolved double
point to ``-q T_i^{-1}`` and ``S_i`` to ``-q^{-1} T_i``.  A positive letter branches only where w has a
descent at i, a negative one where it has an ascent, and ascents are the
common case while w is short; so a piece with more negative than positive
crossings (#S > #s) is folded as its mirror (a count rule, which need not
pick the cheaper fold when the signs are nearly balanced; as each piece is
judged on its own counts, it errs only per piece).  That fold swaps the rules of
s and S and resolves a double point by the negative rule
``q T_i^{-1} = T_i + (1 - q)``, one more factor q per resolution, so its
component k carries q^(#s + k) where the direct fold's carries q^#S.  As
component k of the word is (-1)^(c + k) q^(#s - #S + k) times the mirror's
at z', ``_trace``, which is told the orientation, maps the packed ints
that ``_peel`` leaves on the identity, P_u for each power z'^u, back
before the decode; the peel reads no orientation.  z^t takes
(-1)^t sum_{u >= t} C(u, t) (q - 1)^(u - t) P_u, by Horner's rule in
q - 1 a shift, a subtraction and an add per step, at most n(n + 1)/2
steps.  Each sum, taken without its (-1)^t, is the direct fold's packed
z^t with the digits of k resolutions signed by (-1)^(t + c + k): the map
negates the sum where t + c is odd, and after the decode, which both
orientations share (q-exponents shifted down by #S), the components of odd
k are negated.  The decoded values are the
direct fold's up to sign, which the bound above covers; the P_u and the
ints in between may hold digits above 2^(B-1), as evaluation at
q = 2^(R*B), r = 2^B is a ring homomorphism and packed shifts and adds are
exact.
"""

from __future__ import annotations

from math import comb

from .braid import SIGMA, SIGMA_INV, TAU, Generator, SingularBraidWord, _forward, _reduced
from .packed import _laurent, _product, _width

__all__ = []

# the oracle's Hecke algebra over Q(q, z)
__getattr__ = _forward(__name__, oracle={"HeckeElement", "multiply", "permutation_trace"})


# ---------------------------------------------------------------------------
# Kernel: packed permutations, packed integer coefficients.
# ---------------------------------------------------------------------------

_FIELD = 5  # bits per point of a packed permutation
_MASK = (1 << _FIELD) - 1  # also the largest strand count the kernel folds on
_TAU_NEG = 2  # a double point resolved to a negative crossing (mirror fold)
_MIRROR = {SIGMA: SIGMA_INV, SIGMA_INV: SIGMA, TAU: _TAU_NEG}
# a reduced word is cut into pieces only if it spans this many strands; on
# fewer, re-reducing the pieces, one fold each and the product cost more
# than the whole fold they save
_SPLIT_STRANDS = 7


def _pack_perm(image) -> int:
    """The permutation with images ``image`` = (w(1), ..., w(n)), packed:
    field k - 1 holds d_k = #{l < k : w(l) > w(k)}."""
    return sum(sum(x > v for x in image[:k]) << (_FIELD * k) for k, v in enumerate(image))


# the peel's base (module docstring): the elements of S_3 but 1, packed; their
# traces are z (s1, s2), z^2 (s1 s2, s2 s1) and (q - 1) z^2 + q z (s1 s2 s1)
_S1, _S2, _S1S2, _S2S1, _W0 = map(_pack_perm, ((2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1)))


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

    With (a, b) = (d_i, d_{i+1}), the fields at lo and hi, w has an ascent
    at i iff a >= b, and w s_i differs from w in those two fields only: it
    holds (b, a + 1) there after an ascent and (b - 1, a) after a descent,
    so with b - a = e it is w + e (2^lo - 2^hi) + 2^hi, or the same sum
    with - 2^lo in place of + 2^hi.  The state is walked in s_i-orbits
    {u, us}, u the ascent, and each orbit's new coefficients have a closed
    form in its old ones, p_u and p_us:

    * ``T_i``: ``T_u T_i = T_us`` and ``T_us T_i = (q - 1) T_us + q T_u``,
      so us gets p_u + (q - 1) p_us and u gets q p_us;
    * ``q T_i^{-1} = T_i + (1 - q)``: ``T_u -> T_us + (1 - q) T_u`` and
      ``T_us -> q T_u``, so us gets p_u and u gets (1 - q) p_u + q p_us;
    * a double point is the identity (the deleted copy) plus the crossing
      it resolves to, ``T_i`` (TAU) or ``q T_i^{-1}`` (_TAU_NEG), one
      resolution digit up: the crossing's step, each value shifted up by
      ``bits``, with the state merged in.

    An orbit is done where its ascent u is met, after one ``get`` of us; a
    descent is skipped when u is in the state, and otherwise taken with
    p_u = 0.  So a crossing stores each new coefficient once.  Its single
    term is not 0, as q = 2^q_shift is not 1; only a sum can vanish, and
    each is dropped where it is formed: in the orbit for a crossing, by
    ``_merge`` for a double point.  The double point's new L1 is at most
    L1 + 3 L1, the width lemma's factor 4."""
    lo = _FIELD * (i - 1)
    hi = lo + _FIELD
    swap = (1 << lo) - (1 << hi)
    up = 1 << hi
    down = 1 << lo
    new: dict[int, int] = {}
    get = state.get
    if kind == SIGMA:
        for w, p in state.items():
            e = ((w >> hi) & _MASK) - ((w >> lo) & _MASK)
            if e <= 0:  # w = u, v = us
                v = w + e * swap + up
                r = get(v)
                if r is None:
                    new[v] = p
                else:
                    rq = r << q_shift
                    s = p + rq - r
                    if s:
                        new[v] = s
                    new[w] = rq
            else:
                v = w + e * swap - down
                if v not in state:  # w = us, p_u = 0
                    pq = p << q_shift
                    new[w] = pq - p
                    new[v] = pq
    elif kind == SIGMA_INV:  # times q: T_i + (1 - q)
        for w, p in state.items():
            e = ((w >> hi) & _MASK) - ((w >> lo) & _MASK)
            if e <= 0:  # w = u, v = us
                v = w + e * swap + up
                new[v] = p
                r = get(v)
                s = p - (p << q_shift) if r is None else p + ((r - p) << q_shift)
                if s:
                    new[w] = s
            else:
                v = w + e * swap - down
                if v not in state:  # w = us, p_u = 0
                    new[v] = p << q_shift
    else:  # the state plus its crossing's step, one resolution digit up
        new = _step(state, i, SIGMA if kind == TAU else SIGMA_INV, q_shift, bits)
        for w in new:
            new[w] <<= bits
        _merge(new, state)
    return new


def _check_strands(strands: int) -> None:
    """Refuse a strand count the 5-bit fields cannot hold."""
    if strands > _MASK:
        raise ValueError(f"{strands} strands do not fit a {_FIELD}-bit field (at most {_MASK})")


def _peel_exponent(strands: int) -> int:
    """e(n): L1(tr T_w) <= 3^e(n) for every w in S_n (the width lemma in the
    module docstring).  The largest L1 is 3^(n - 2) up to S_8; above, each
    level m > 8 of the peel may triple L1 m - 2 times."""
    if strands <= 8:
        return max(strands - 2, 0)
    return 6 + sum(range(7, strands - 1))  # sum over m = 9..n of m - 2


def _trace(letters: tuple, strands: int, mirror: bool) -> list[dict[tuple[int, int], int]]:
    """Fold ``letters`` from the identity (packed permutations to packed
    ints), peel the result down to the identity and decode it: for each
    resolution count 0..d, d the letters' double points, an integer Laurent
    dict over (q-exponent, z-exponent).

    With ``mirror`` the word is folded as its mirror, and the ints left on
    the identity are mapped back by z' -> q - 1 - z before the one decode,
    so only the decoded values, the direct fold's up to sign, need the digit
    bound (module docstring).  A strand count the fields cannot hold is
    refused before the first step.
    """
    _check_strands(strands)
    degree = sum(1 for g in letters if g.kind == TAU)
    stride = degree + 1  # slots per power of q: resolution counts 0..degree
    crossings = len(letters) - degree
    # Digit width from the L1 bound in the module docstring.
    bits = _width(3 ** (crossings + _peel_exponent(strands)) * 4**degree)
    q_shift = stride * bits
    state = {0: 1}
    for g in letters:
        state = _step(state, g.index, _MIRROR[g.kind] if mirror else g.kind, q_shift, bits)
    negatives = sum(1 for g in letters if g.kind == SIGMA_INV)
    slices = [state]
    del state
    totals = _peel(slices, strands, stride, bits)
    if mirror:  # z' -> q - 1 - z, Horner in q - 1, with the mirror's sign (-1)^(t + c)
        mapped = []
        for t in range(len(totals)):
            acc = 0
            for u in range(len(totals) - 1, t - 1, -1):
                acc = (acc << q_shift) - acc + comb(u, t) * totals[u]
            mapped.append(-acc if (t + crossings) & 1 else acc)
        totals = mapped
    comps = _laurent(totals, bits, stride, -negatives)  # undo q^#S
    if mirror:  # and its sign (-1)^k
        comps[1::2] = [{key: -v for key, v in comp.items()} for comp in comps[1::2]]
    return comps


def _peel(slices: list, strands: int, stride: int, bits: int) -> list[int]:
    """Peel a folded state, passed as ``[state]``, down to S_3 and finish
    each z-slice from the traces of S_3 (module docstring): one int per
    power of z, undecoded, its digits laid out as the state's.  The list is
    emptied as it is read, so a state that only it holds is dropped slice by
    slice.  A strand count the fields cannot hold is refused."""
    _check_strands(strands)
    q_shift = stride * bits
    for m in range(strands, 3, -1):
        top = _FIELD * (m - 1)
        below = 1 << top  # w < below: largest moved point below m
        low = below - 1  # the fields below m: c's, by the split lemma
        out: list[dict[int, int]] = [{}]
        for k in range(len(slices)):
            part, slices[k] = slices[k], None
            rest: dict[int, int] = {}
            groups: dict[int, dict[int, int]] = {}  # groups[j] = {c: P_w}
            for w, p in part.items():
                if w < below:
                    rest[w] = p
                else:  # (j, c) determines w, so no c repeats within its j
                    j = m - (w >> top)
                    group = groups.get(j)
                    if group is None:
                        groups[j] = group = {}
                    group[w & low] = p
            del part
            if len(rest) > len(out[k]):  # the terms below m, carrying z^k
                out[k], rest = rest, out[k]
            _merge(out[k], rest)
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
    # only S_3 is left: z-slice k adds tr(T_w) z^k for each of its terms
    totals = [0] * (len(slices) + 2)
    for k, part in enumerate(slices):
        get = part.get
        w0 = get(_W0, 0)
        totals[k] += get(0, 0)
        totals[k + 1] += get(_S1, 0) + get(_S2, 0) + (w0 << q_shift)
        totals[k + 2] += get(_S1S2, 0) + get(_S2S1, 0) + (w0 << q_shift) - w0
    return totals


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


def _blocks(indices: list[int], low: int, high: int) -> list[int]:
    """The block indices of letters at ``indices``, all in low..high, lowest
    first (module docstring): each index i whose letters form at most one
    run, going round the word, among the letters at i - 1, i and i + 1.  A
    first lap leaves ``open_[i]`` true iff the last of those letters is at
    i; a second counts each run as the letter at i +- 1 that ends it is
    met."""
    open_ = [False] * (high + 2)
    for j in indices:
        open_[j - 1] = open_[j + 1] = False
        open_[j] = True
    runs = [0] * (high + 2)
    for j in indices:
        for k in (j - 1, j + 1):
            if open_[k]:
                open_[k] = False
                runs[k] += 1
        open_[j] = True
    return [i for i in range(low, high + 1) if runs[i] <= 1]


def _split(letters: tuple, strands: int) -> list[tuple[tuple, int]]:
    """The pieces of a cyclically reduced word compacted on ``strands``,
    each compacted with its strand count, whose traces multiply to the
    word's (module docstring); a block is the piece of the letters at its
    cut index, on 2 strands.  A word on fewer than ``_SPLIT_STRANDS``
    strands is its own one piece.  A word on more strands than the kernel
    folds on is refused, whatever its pieces span.  A word is cut at all
    of its block indices at once; the stretches between them keep their
    indices until they are pieces: cutting does not depend on a shift of
    every index."""
    _check_strands(strands)
    if strands < _SPLIT_STRANDS:
        return [(letters, strands)]
    pieces: list[tuple[tuple, int]] = []
    work = [letters]
    while work:
        letters = work.pop()
        indices = [g.index for g in letters]
        cuts = _blocks(indices, min(indices), max(indices))
        if not cuts:
            pieces.append(_compact(letters))
            continue
        bounds = [0, *cuts, strands]  # every index lies in 1..strands - 1
        for below, cut in zip(bounds, bounds[1:]):
            # dropping the blocks can free pairs next to them: reduce again
            side = _reduced(tuple(g for g in letters if below < g.index < cut))
            if side:
                work.append(side)
            block = tuple(g for g in letters if g.index == cut)  # none at an unused index
            if block:
                pieces.append(_compact(block))
    return pieces


def _block_factor(exponent: int, doubles: int) -> list[dict[tuple[int, int], int]]:
    """The factor of a block T_i^m (1 + r T_i)^c, m = ``exponent`` and c =
    ``doubles``, as components over (q, z): by T_i^2 = (q - 1) T_i + q,
    T_i^n = (-1)^n + b_n (T_i + 1) with b_n = (q^n - (-1)^n) / (q + 1), so
    r^k has C(c, k) ((-1)^n + b_n (z + 1)) with n = m + k (module
    docstring).  b_n is sum_{0 <= e < n} (-1)^(n-1-e) q^e for n > 0, 0 for
    n = 0, and -sum_{n <= e < 0} (-1)^(n-1-e) q^e for n < 0; for n > 0 its
    q^0 term cancels (-1)^n."""
    comps = []
    for k in range(doubles + 1):
        n, b = exponent + k, comb(doubles, k)
        comp = {} if n > 0 else {(0, 0): -b if n & 1 else b}
        sign = b if n > 0 else -b
        for e in range(min(n, 0), max(n, 0)):
            v = sign if (n - e) & 1 else -sign  # sign (-1)^(n-1-e)
            comp[(e, 1)] = v
            if e:
                comp[(e, 0)] = v
        comps.append(comp)
    return comps


def _fold(letters: tuple, strands: int) -> list[dict[tuple[int, int], int]]:
    """The trace components of compacted letters: on at most 2 strands,
    where they are one index's, by the closed form ``_block_factor`` of
    their exponent sum and double points, and otherwise by ``_trace``, as
    their mirror when they hold more negative than positive crossings."""
    if strands <= 2:
        return _block_factor(sum(g.kind for g in letters), sum(g.kind == TAU for g in letters))
    return _trace(letters, strands, sum(g.kind for g in letters) < 0)  # TAU is 0


def _folded(word: SingularBraidWord, reduced: tuple | None = None):
    """The word's trace value: its components, or, for a word cut into more
    than one piece, their product undecoded, the two formats that only
    ``singskein.packed`` tells apart.  The one fold entry.  The word's cyclic
    reduction (``reduced``, when the caller has it) is compacted and cut
    (``_split``), each piece is traced (``_fold``), and the traces of two
    or more pieces are multiplied as packed ints."""
    reduced = _reduced(word.letters) if reduced is None else reduced
    factors = [_fold(*piece) for piece in _split(*_compact(reduced))]
    return factors[0] if len(factors) == 1 else _product(factors, word.degree + 1)
