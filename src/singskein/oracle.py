"""The reference engines: slow, literal paths that the tests check the
production path against.  No CLI run imports this module.

``braid``, ``hecke``, ``markov`` and ``skein`` forward, with
``braid._forward``, only the names that the acceptance tests and the
benchmark import from them (``braid``: ``stack`` and ``with_strands``);
import the rest, its two exceptions among them, from here.

* The word helpers that only the tests and these engines use:
  ``underlying_permutation``, ``stack``, ``with_strands`` and
  ``shuffle_braid``.  The first returns a ``permutations.Permutation``;
  ``permutations``, like this module and ``linalg``, is reference code
  that no CLI run imports.
* The Hecke algebra with ``RationalFunction`` coefficients: ``HeckeElement``,
  ``mul_by_generator``, ``evaluate_word`` and ``multiply`` fold words one
  generator at a time, and ``ocneanu_trace`` takes the Markov trace one
  basis element at a time (``permutation_trace``, the packed kernel's peel
  ``hecke._peel`` of that element).  ``_unpack_perm`` reads a packed
  permutation of ``hecke`` back into its images, for the tests.
* The literal desingularisation: ``desing_delete``, ``desing_resolve`` and
  ``subset_expansion`` write out the words, and ``trace_functional`` sums
  their traces; ``trace_components`` decodes the fused fold
  (``hecke._folded``), and ``trace_vector`` reads all d + 1 functionals off it.
* The pairing matrix: ``pairing_matrix`` evaluates the expansion of
  ``markov`` on the explicit basis words (``basis_word``: ``t1 t3 ...
  t(2k-1)`` followed by ``(t s)`` blocks at the remaining odd indices),
  columns ordered by descending X-exponent; the degree-1 matrix reads
  [[1, z], [z, (q-1)z + q]] and has determinant D.  Its entries are
  products of linear forms expanded in ``MultivariatePolynomial``
  arithmetic (``_expand``), which also writes out the substitution table
  that the tests check ``markov``'s packed numerators against.
* The one-step deletion/resolution maps on coordinates,

      g0(X^k Y^{d-k}) = k X^{k-1} Y^{d-k} + z (d-k) X^k Y^{d-k-1}
      g1(X^k Y^{d-k}) = k z X^{k-1} Y^{d-k} + (d-k)((q-1)z + q) X^k Y^{d-k-1}

  which the test suite cross-checks against the word-level maps, and
  ``class_product``, the product in the stacking algebra.
* The general fraction engine: ``_canonical_pair`` reduces any numerator
  and denominator by the polynomial gcd of primitive pseudo-remainder
  sequences (``poly_gcd``, ``poly_divexact``).  ``RationalFunction``'s
  general constructor imports it when it is called.
* The dense embedding ``embed_qz_to_su`` of Q(q, z) into Q(s, u), on int
  lists, which shares no code with the packed kernel of ``skein``.
* ``disjoint_union_coefficient`` and ``closure_product``: the class of a
  stacked word from the classes of its factors.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from math import gcd as _int_gcd
from typing import Iterable, Mapping

from .braid import SIGMA, TAU, Generator, Record, SingularBraidWord, StrandIndexError
from .coeff import QZ, SU, MixedVariablesError, Monomial
from .coeff import MultivariatePolynomial, RationalFunction, _monomial_key, _summed, _terms_content
from .hecke import _FIELD, _MASK, _decoded, _folded, _pack_perm, _peel, _peel_exponent
from .markov import DegreeError, MarkovClass, markov_class
from .packed import _width
from .permutations import Permutation
from .skein import VAR_T, VAR_X, SkeinClass

__all__ = [
    "underlying_permutation",
    "stack",
    "with_strands",
    "shuffle_braid",
    "HeckeElement",
    "mul_by_generator",
    "evaluate_word",
    "multiply",
    "ocneanu_trace",
    "permutation_trace",
    "FormalWordSum",
    "desing_delete",
    "desing_resolve",
    "subset_expansion",
    "trace_functional",
    "trace_components",
    "TraceVector",
    "trace_vector",
    "basis_word",
    "pairing_matrix",
    "markov_class_of_sum",
    "g0_apply",
    "g1_apply",
    "class_product",
    "poly_gcd",
    "poly_divexact",
    "embed_qz_to_su",
    "disjoint_union_coefficient",
    "closure_product",
    "SingularLetterError",
    "ExactDivisionError",
]


class SingularLetterError(ValueError):
    """An ordinary-algebra operation met a singular crossing."""


class ExactDivisionError(ArithmeticError):
    """An exact polynomial division left a remainder."""


# ---------------------------------------------------------------------------
# Words: the strand permutation, stacking, free strands, the block shuffle
# ---------------------------------------------------------------------------


def underlying_permutation(word: SingularBraidWord):
    """Strand start -> strand end, a ``Permutation``; every letter (tau
    included) swaps strands."""
    position_of = list(range(word.strands + 1))  # strand k sits at position_of[k]
    strand_at = list(range(word.strands + 1))  # inverse table
    for g in word.letters:
        i = g.index
        a, b = strand_at[i], strand_at[i + 1]
        strand_at[i], strand_at[i + 1] = b, a
        position_of[a], position_of[b] = i + 1, i
    return Permutation(position_of[1:])


def stack(a: SingularBraidWord, b: SingularBraidWord) -> SingularBraidWord:
    """Disjoint side-by-side product: b's letters shifted past a's strands."""
    shifted = tuple(Generator(g.kind, g.index + a.strands) for g in b.letters)
    return SingularBraidWord(a.strands + b.strands, a.letters + shifted)


def with_strands(word: SingularBraidWord, strands: int) -> SingularBraidWord:
    """The same letters viewed on a larger strand count."""
    if strands < word.strands:
        raise StrandIndexError(
            f"cannot view a {word.strands}-strand word on {strands} strands"
        )
    return SingularBraidWord(strands, word.letters)


def shuffle_braid(n: int, m: int) -> SingularBraidWord:
    """Positive permutation braid on n+m strands moving the bottom n-strand
    block above the m-strand block; a reduced word of length n*m.

    Conjugating ``stack(b, a)`` by this word yields a word relation-equivalent
    to ``stack(a, b)`` when a has n strands and b has m.
    """
    if n < 1 or m < 1:
        raise ValueError("both block sizes must be >= 1")
    letters = tuple(
        Generator(SIGMA, j) for i in range(n, 0, -1) for j in range(i, i + m)
    )
    return SingularBraidWord(n + m, letters)


# ---------------------------------------------------------------------------
# The Hecke algebra over Q(q, z)
# ---------------------------------------------------------------------------


def _unpack_perm(w: int, n: int) -> tuple[int, ...]:
    """The images (w(1), ..., w(n)) of a packed permutation on n points
    (``hecke._pack_perm``): from k = n down, w(k) is the value with d_k
    larger ones among those not yet taken."""
    values = list(range(1, n + 1))
    image = [0] * n
    for k in range(n, 0, -1):
        image[k - 1] = values.pop(k - 1 - ((w >> (_FIELD * (k - 1))) & _MASK))
    return tuple(image)


def permutation_trace(perm: Permutation) -> RationalFunction:
    """Markov trace of the basis element indexed by ``perm`` (any strand count;
    ``ValueError`` if it moves a point above 31): the kernel's peel of that
    one element, at the width of the peel's L1 bound 3^e(n)."""
    n = perm.largest_moved_point()
    bits = _width(3 ** _peel_exponent(n))
    comps = _peel([{_pack_perm(perm.image): 1}], n, 1, False, bits, 0, 0)
    return RationalFunction.from_laurent_terms(QZ, comps[0])


_RF_ONE = RationalFunction.one(QZ)
_RF_Q = RationalFunction.coordinate(QZ, "q")
_RF_Q_MINUS_1 = _RF_Q - _RF_ONE
_RF_Q_INV = _RF_Q.inverse()
_RF_Q_INV_MINUS_1 = RationalFunction._raw(-_RF_Q_MINUS_1.numerator, _RF_Q.numerator)  # (1 - q)/q


class HeckeElement(Record):
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
        self._set(strands, clean)

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
        return HeckeElement(self.strands, _summed(self.terms, other.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

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


# ---------------------------------------------------------------------------
# Desingularisation, trace functionals and the pairing matrix
# ---------------------------------------------------------------------------

_P_ONE = MultivariatePolynomial.one(QZ)
_P_Z = MultivariatePolynomial.variable(QZ, "z")
_P_Q = MultivariatePolynomial.variable(QZ, "q")
_P_W = (_P_Q - _P_ONE) * _P_Z + _P_Q  # value of a resolved-and-closed double point
_Z = RationalFunction.coordinate(QZ, "z")
_Z_SLIDE = RationalFunction._raw(_P_W, _P_ONE)


class FormalWordSum(Record):
    """Nonnegative-integer combination of words of one strand count and degree."""

    __slots__ = ("terms",)

    @classmethod
    def from_terms(
        cls, items: Iterable[tuple[SingularBraidWord, int]]
    ) -> "FormalWordSum":
        merged: dict[SingularBraidWord, int] = {}
        for word, mult in items:
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            merged[word] = merged.get(word, 0) + mult
        words = list(merged)
        if words:
            strands = words[0].strands
            degree = words[0].degree
            for w in words[1:]:
                if w.strands != strands or w.degree != degree:
                    raise ValueError("summands must share strand count and degree")
        ordered = sorted(merged.items(), key=lambda kv: (kv[0].display(),))
        return cls(tuple(ordered))

    def items(self) -> tuple[tuple[SingularBraidWord, int], ...]:
        return self.terms


def _tau_positions(word: SingularBraidWord) -> list[int]:
    return [p for p, g in enumerate(word.letters) if g.kind == TAU]


def desing_delete(word: SingularBraidWord) -> FormalWordSum:
    """Delete each double point in turn and sum the results."""
    positions = _tau_positions(word)
    if not positions:
        raise DegreeError("deletion needs at least one double point")
    out = []
    for p in positions:
        letters = word.letters[:p] + word.letters[p + 1 :]
        out.append((SingularBraidWord(word.strands, letters), 1))
    return FormalWordSum.from_terms(out)


def desing_resolve(word: SingularBraidWord) -> FormalWordSum:
    """Resolve each double point to a positive crossing in turn."""
    positions = _tau_positions(word)
    if not positions:
        raise DegreeError("resolution needs at least one double point")
    out = []
    for p in positions:
        letters = list(word.letters)
        letters[p] = Generator(SIGMA, letters[p].index)
        out.append((SingularBraidWord(word.strands, tuple(letters)), 1))
    return FormalWordSum.from_terms(out)


def subset_expansion(word: SingularBraidWord, k: int) -> FormalWordSum:
    """All ways to resolve k double points and delete the rest, each with
    multiplicity k!(d-k)!: the fully expanded k-th desingularisation."""
    positions = _tau_positions(word)
    d = len(positions)
    if not 0 <= k <= d:
        raise DegreeError(f"k = {k} out of range for degree {d}")
    mult = factorial(k) * factorial(d - k)
    out = []
    for resolved in combinations(positions, k):
        keep = set(resolved)
        letters = []
        for p, g in enumerate(word.letters):
            if g.kind != TAU:
                letters.append(g)
            elif p in keep:
                letters.append(Generator(SIGMA, g.index))
        out.append((SingularBraidWord(word.strands, tuple(letters)), mult))
    return FormalWordSum.from_terms(out)


def trace_functional(word: SingularBraidWord, k: int) -> RationalFunction:
    """Value of the k-th degree-d functional, via the literal expansion."""
    total = RationalFunction.zero(QZ)
    for term, mult in subset_expansion(word, k).items():
        total = total + ocneanu_trace(evaluate_word(term)).scaled(mult)
    return total


class TraceVector(Record):
    __slots__ = ("degree", "values")

    def __init__(self, degree: int, values: tuple[RationalFunction, ...]):
        if len(values) != degree + 1:
            raise ValueError("a degree-d trace vector has d+1 entries")
        self._set(degree, values)


def trace_components(word: SingularBraidWord) -> list[dict[tuple[int, int], int]]:
    """For each k in 0..degree, the sum over k-subsets S of the singular
    letters of ``tr`` of the word with S resolved and the rest deleted, as an
    integer Laurent dict over (q-exponent, z-exponent): ``hecke._folded``'s
    result, decoded.  Each piece of the word's compacted cyclic reduction is
    folded on the strands it spans, as its mirror when it has more negative
    than positive crossings."""
    return _decoded(_folded(word))


def trace_vector(word: SingularBraidWord) -> TraceVector:
    """All d+1 functional values in one fused pass over the word."""
    d = word.degree
    comps = trace_components(word)
    values = []
    for k, comp in enumerate(comps):
        rf = RationalFunction.from_laurent_terms(QZ, comp)
        values.append(rf.scaled(factorial(k) * factorial(d - k)))
    return TraceVector(d, tuple(values))


def basis_word(d: int, k: int) -> SingularBraidWord:
    """Representative word for X^k Y^{d-k}: k lone double points then d-k
    (double point, crossing) blocks, all on disjoint strand pairs."""
    if not 0 <= k <= d:
        raise DegreeError(f"k = {k} out of range for degree {d}")
    letters: list[Generator] = []
    for block in range(k):
        letters.append(Generator(TAU, 2 * block + 1))
    for block in range(k, d):
        letters.append(Generator(TAU, 2 * block + 1))
        letters.append(Generator(SIGMA, 2 * block + 1))
    return SingularBraidWord(max(2 * d, 1), tuple(letters))


def _expand(
    forms: list[tuple[MultivariatePolynomial, MultivariatePolynomial]],
) -> list[MultivariatePolynomial]:
    """Coefficients of V^0, V^1, ... in the product of the linear forms
    u*U + v*V, each given as the pair (u, v)."""
    coeffs = [_P_ONE]
    for u, v in forms:
        out = [c * u for c in coeffs] + [MultivariatePolynomial.zero(QZ)]
        for j, c in enumerate(coeffs):
            out[j + 1] = out[j + 1] + c * v
        coeffs = out
    return coeffs


def pairing_matrix(d: int) -> list[list[RationalFunction]]:
    """Functional values on the basis words; rows by functional index, columns
    by descending X-exponent.  Entry [k][c] is k!(d-k)! times the coefficient
    of T1^k in (T0 + z T1)^(d-c) (z T0 + w T1)^c."""
    if d < 0:
        raise DegreeError("degree must be >= 0")
    columns = [_expand([(_P_ONE, _P_Z)] * (d - c) + [(_P_Z, _P_W)] * c) for c in range(d + 1)]
    weights = [factorial(k) * factorial(d - k) for k in range(d + 1)]
    return [
        [RationalFunction(col[k].scaled(weights[k])) for col in columns]
        for k in range(d + 1)
    ]


def markov_class_of_sum(words: FormalWordSum) -> MarkovClass:
    total = MarkovClass.zero()
    for word, mult in words.items():
        total = total.add(markov_class(word).scaled(RationalFunction.constant(QZ, mult)))
    return total


def g0_apply(cls: MarkovClass) -> MarkovClass:
    """Deletion operator on coordinates."""
    return _g_apply(cls, resolve=False)


def g1_apply(cls: MarkovClass) -> MarkovClass:
    """Resolution operator on coordinates."""
    return _g_apply(cls, resolve=True)


def _g_apply(cls: MarkovClass, resolve: bool) -> MarkovClass:
    d = cls.homogeneous_degree()
    if d < 1:
        raise DegreeError("operators act on degree >= 1 classes")
    out: dict[tuple[int, int], RationalFunction] = {}

    def push(expo, piece):
        if piece.is_zero:
            return
        acc = out.get(expo)
        out[expo] = piece if acc is None else acc + piece

    for (a, b), coeff in cls.coeffs.items():
        # a copies of X, b copies of Y, a + b = d
        if resolve:
            if a:
                push((a - 1, b), coeff.scaled(a) * _Z)
            if b:
                push((a, b - 1), coeff.scaled(b) * _Z_SLIDE)
        else:
            if a:
                push((a - 1, b), coeff.scaled(a))
            if b:
                push((a, b - 1), coeff.scaled(b) * _Z)
    return MarkovClass(out)


def class_product(a: MarkovClass, b: MarkovClass) -> MarkovClass:
    """Product in the commutative stacking algebra (plain polynomial product)."""
    return a.multiply(b)


# ---------------------------------------------------------------------------
# Skein classes of stacked words
# ---------------------------------------------------------------------------


def disjoint_union_coefficient() -> RationalFunction:
    """Effect of a split unknotted component: (t^{-1} - t)/x over (s, u)."""
    return (VAR_T.inverse() - VAR_T) / VAR_X


def closure_product(a: SkeinClass, b: SkeinClass) -> SkeinClass:
    """Class of the closure of a stacked word, given the factors' classes.

    Stacking braids side by side closes up to a split union, so the result
    is the polynomial product weighted once by the disjoint-union
    coefficient: ``skein_class(stack(wa, wb)) == closure_product(
    skein_class(wa), skein_class(wb))``.  The trivial one-strand word is
    absorbed into the coefficient, matching the free-strand rule.
    """
    return a.multiply(b).scaled(disjoint_union_coefficient())


# ---------------------------------------------------------------------------
# Integer-polynomial gcd via primitive pseudo-remainder sequences.
#
# Univariate polynomials are little-endian int lists; bivariate ones are
# lists over the main variable whose entries are univariate lists in the
# second variable.  Everything stays in Z throughout.
# ---------------------------------------------------------------------------


def _u_trim(f: list) -> list:
    """Drop trailing zeros, or trailing empty rows of a bivariate list."""
    while f and not f[-1]:
        f.pop()
    return f


def _u_content(f: list[int]) -> int:
    c = 0
    for a in f:
        c = _int_gcd(c, abs(a))
    return c


def _u_pp(f: list[int]) -> list[int]:
    c = _u_content(f)
    if c > 1:
        return [a // c for a in f]
    return f


def _u_mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _u_trim(out)


def _u_sub(f: list[int], g: list[int]) -> list[int]:
    out = list(f) + [0] * (len(g) - len(f))
    for j, b in enumerate(g):
        out[j] -= b
    return _u_trim(out)


def _u_prem(f: list[int], g: list[int]) -> list[int]:
    """A scalar multiple of f mod g; enough for a primitive PRS."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while f and len(f) - 1 >= dg:
        lf = f[-1]
        nf = [lg * a for a in f]
        off = len(f) - 1 - dg
        for k, b in enumerate(g):
            nf[off + k] -= lf * b
        nf.pop()
        f = _u_trim(nf)
    return f


def _u_gcd(f: list[int], g: list[int]) -> list[int]:
    f = _u_trim(list(f))
    g = _u_trim(list(g))
    if not f:
        f, g = g, f
    if not g:
        if f and f[-1] < 0:
            return [-a for a in f]
        return f
    cf, cg = _u_content(f), _u_content(g)
    f = [a // cf for a in f]
    g = [a // cg for a in g]
    while g:
        r = _u_prem(f, g)
        f, g = g, _u_pp(r)
    if f[-1] < 0:
        f = [-a for a in f]
    c = _int_gcd(cf, cg)
    return [a * c for a in f] if c != 1 else f


def _u_divexact(f: list[int], g: list[int]) -> list[int]:
    if not f:
        return []
    if not g:
        raise ExactDivisionError("division by zero polynomial")
    dg = len(g) - 1
    lg = g[-1]
    if len(f) - 1 < dg:
        raise ExactDivisionError("quotient is not a polynomial")
    out = [0] * (len(f) - dg)
    r = list(f)
    while r and len(r) - 1 >= dg:
        lr = r[-1]
        if lr % lg:
            raise ExactDivisionError("inexact coefficient division")
        qc = lr // lg
        off = len(r) - 1 - dg
        out[off] = qc
        for k, b in enumerate(g):
            r[off + k] -= qc * b
        _u_trim(r)
    if r:
        raise ExactDivisionError("nonzero remainder")
    return _u_trim(out)


def _b_content(F: list[list[int]]) -> list[int]:
    c: list[int] = []
    for row in F:
        if row:
            c = _u_gcd(c, row)
            if c == [1]:
                break
    return c


def _b_div_rows(F: list[list[int]], c: list[int]) -> list[list[int]]:
    if c == [1]:
        return F
    return [_u_divexact(row, c) if row else [] for row in F]


def _b_prem(F: list[list[int]], G: list[list[int]]) -> list[list[int]]:
    F = [list(row) for row in F]
    dG = len(G) - 1
    lG = G[-1]
    while F and len(F) - 1 >= dG:
        lF = F[-1]
        nF = [_u_mul(row, lG) for row in F]
        off = len(F) - 1 - dG
        for k, row in enumerate(G):
            if row:
                nF[off + k] = _u_sub(nF[off + k], _u_mul(row, lF))
        nF.pop()
        F = _u_trim(nF)
    return F


def _b_gcd(F: list[list[int]], G: list[list[int]]) -> list[list[int]]:
    F = _u_trim([list(r) for r in F])
    G = _u_trim([list(r) for r in G])
    if not F:
        F, G = G, F
    if not G:
        return F
    cF, cG = _b_content(F), _b_content(G)
    F = _b_div_rows(F, cF)
    G = _b_div_rows(G, cG)
    while G:
        R = _b_prem(F, G)
        cR = _b_content(R)
        F, G = G, _b_div_rows(R, cR)
    cc = _u_gcd(cF, cG)
    if cc != [1]:
        F = [_u_mul(row, cc) for row in F]
    return F


def _to_rec(terms: Mapping[Monomial, int]) -> list[list[int]]:
    d0 = max(e0 for e0, _ in terms)
    rows: list[dict[int, int]] = [dict() for _ in range(d0 + 1)]
    for (e0, e1), coeff in terms.items():
        rows[e0][e1] = coeff
    out: list[list[int]] = []
    for row in rows:
        if row:
            lst = [0] * (max(row) + 1)
            for e1, coeff in row.items():
                lst[e1] = coeff
            out.append(lst)
        else:
            out.append([])
    return _u_trim(out)


def _from_rec(F: list[list[int]]) -> dict[Monomial, int]:
    terms: dict[Monomial, int] = {}
    for e0, row in enumerate(F):
        for e1, coeff in enumerate(row):
            if coeff:
                terms[(e0, e1)] = coeff
    return terms




def _gcd_terms(a: Mapping[Monomial, int], b: Mapping[Monomial, int]) -> dict[Monomial, int]:
    """Gcd of integer-coefficient term dicts, positive leading coefficient."""
    if not a:
        g = dict(b)
    elif not b:
        g = dict(a)
    elif len(a) == 1 or len(b) == 1:
        mono_terms, other = (a, b) if len(a) == 1 else (b, a)
        (m0, m1), mc = next(iter(mono_terms.items()))
        g0 = min(m0, min(e0 for e0, _ in other))
        g1 = min(m1, min(e1 for _, e1 in other))
        g = {(g0, g1): _int_gcd(abs(mc), _terms_content(other))}
    else:
        g = _from_rec(_b_gcd(_to_rec(a), _to_rec(b)))
    if not g:
        return g
    lead = max(g, key=_monomial_key)
    if g[lead] < 0:
        g = {mono: -coeff for mono, coeff in g.items()}
    return g


def _divexact_terms(a: Mapping[Monomial, int], b: Mapping[Monomial, int]) -> dict[Monomial, int]:
    """Exact division of term dicts by long division on the dense form, one
    row at a time; raises if inexact.  An exact quotient is unique."""
    if not b:
        raise ExactDivisionError("division by zero polynomial")
    if not a:
        return {}
    F, G = _to_rec(a), _to_rec(b)
    dG = len(G) - 1
    out: list[list[int]] = [[] for _ in range(len(F) - dG)]
    while len(F) > dG:
        off = len(F) - 1 - dG
        row = out[off] = _u_divexact(F[-1], G[-1])
        for k, g_row in enumerate(G):
            if g_row:
                F[off + k] = _u_sub(F[off + k], _u_mul(g_row, row))
        _u_trim(F)
    if F:
        raise ExactDivisionError("nonzero remainder")
    return _from_rec(out)


def _strip_root(
    polys: list[list[list[int]]], root: int, shift: int, limit: int
) -> tuple[list[list[list[int]]], int]:
    """Divide every polynomial, given as dense rows over x of int lists over
    y, by x - root*y^shift as often as all of them allow, at most limit times;
    returns the quotients and the number of divisions made.

    Synthetic division (Horner's rule): walking down from the top row, each
    quotient row is the input row plus root*y^shift times the row above it,
    and the last such sum is the remainder.
    """
    times = 0
    while times < limit:
        quotients = []
        for rows in polys:
            carry: list[int] = []
            out = []
            for row in reversed(rows):
                acc = list(row) + [0] * (len(carry) + shift - len(row))
                for i, c in enumerate(carry):
                    acc[i + shift] += root * c
                carry = _u_trim(acc)
                out.append(carry)
            if carry:
                return polys, times
            # out holds the quotient rows top row first, then the remainder
            quotients.append(out[-2::-1])
        polys = quotients
        times += 1
    return polys, times


def poly_gcd(a: MultivariatePolynomial, b: MultivariatePolynomial) -> MultivariatePolynomial:
    """Gcd of two integer-coefficient polynomials (positive leading coeff)."""
    if a.variables != b.variables:
        raise MixedVariablesError(f"cannot mix {a.variables} and {b.variables}")
    return MultivariatePolynomial(a.variables, _gcd_terms(a.terms, b.terms))


def poly_divexact(a: MultivariatePolynomial, b: MultivariatePolynomial) -> MultivariatePolynomial:
    """Exact quotient a / b; raises ExactDivisionError when b does not divide a."""
    if a.variables != b.variables:
        raise MixedVariablesError(f"cannot mix {a.variables} and {b.variables}")
    return MultivariatePolynomial(a.variables, _divexact_terms(a.terms, b.terms))


def _canonical_pair(num: dict, den: dict) -> tuple[dict, dict]:
    """Reduce a numerator/denominator pair of int-coefficient term dicts."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, {(0, 0): 1}
    g = _gcd_terms(num, den)
    if g and g != {(0, 0): 1}:
        num = _divexact_terms(num, g)
        den = _divexact_terms(den, g)
    return _over(num, den)


def _over(num: dict, den: dict, g: int = 1) -> tuple[dict, dict]:
    """num and den divided by g, which divides both, and both negated if den's
    graded-lex leading coefficient is negative: the one sign rule."""
    if den[max(den, key=_monomial_key)] < 0:
        g = -g
    return {mono: c // g for mono, c in num.items()}, {mono: c // g for mono, c in den.items()}


# ---------------------------------------------------------------------------
# The field embedding
# ---------------------------------------------------------------------------

# The embedding kernel.  A polynomial N of z-degree at most L maps to
# Ntilde / (1 - s^2*u^2)^L with Ntilde = sum_b N_b(x) (x - 1)^b (1 - x*y)^(L - b),
# x = s^2, y = u^2 and N_b the coefficient of z^b; ``_embed_rows`` forms
# Ntilde by Horner's rule in 1 - x*y.  ``skein`` applies it to factored
# coordinates, whose denominators it knows in closed form; ``embed_qz_to_su``
# applies it to both sides of any fraction and is the oracle for that path.
#
# For coprime N and D the images can share only factors that the
# substitution collapses to a point: s, from (q, z) = (0, -1), and s - 1 and
# s + 1, both from (1, 0).  The images are polynomials in s^2, so s - 1 and
# s + 1 come with equal multiplicity and cancel together as s^2 - 1, and the
# common power of s cancels by an exponent shift.  The image of whichever of
# N, D has z-degree L carries no power of 1 - s^2*u^2, so s*u - 1 and
# s*u + 1 never cancel.  s^2 - 1 is stripped from the two images together by
# synthetic division.


def _embed_rows(by_z: list[list[int]], level: int) -> list[list[int]]:
    """Image of N times (1 - s^2*u^2)^level, N given as rows over z of int
    lists over q, as rows over x = s^2 of int lists over y = u^2:
    sum_b N_b(x) (x - 1)^b (1 - x*y)^(level - b), by Horner's rule in 1 - x*y."""
    rows: list[list[int]] = []
    a_pow = [1]
    for b in range(level + 1):
        if b:
            a_pow = _u_sub([0] + a_pow, a_pow)  # (x - 1)^b
            # rows * (1 - x*y): row i loses row i - 1 times y
            rows = [_u_sub(row, [0] + below) for row, below in zip(rows + [[]], [[]] + rows)]
        term = _u_mul(by_z[b], a_pow) if b < len(by_z) else []
        rows += [[] for _ in range(len(term) - len(rows))]
        for i, c in enumerate(term):
            rows[i] = _u_trim([(rows[i][0] if rows[i] else 0) + c] + rows[i][1:])
    return _u_trim(rows)


def _z_rows(poly: MultivariatePolynomial) -> list[list[int]]:
    """A (q, z) polynomial as rows over z of int lists over q."""
    return _to_rec({(ez, eq): c for (eq, ez), c in poly.terms.items()})


def embed_qz_to_su(a: RationalFunction) -> RationalFunction:
    """Ring embedding of Q(q, z) into Q(s, u): q -> s^2, z -> (s^2-1)/(1-s^2*u^2)."""
    if a.variables != QZ:
        raise MixedVariablesError(f"embedding expects variables {QZ}, got {a.variables}")
    if a.is_zero:
        return RationalFunction.zero(SU)
    level = max(a.numerator.degree_in(1), a.denominator.degree_in(1), 0)
    num = _embed_rows(_z_rows(a.numerator), level)
    den = _embed_rows(_z_rows(a.denominator), level)
    (num, den), _ = _strip_root([num, den], 1, 0, len(den))
    low = min(next(i for i, row in enumerate(rows) if row) for rows in (num, den))
    num = {(2 * i, 2 * j): c for i, row in enumerate(num[low:]) for j, c in enumerate(row) if c}
    den = {(2 * i, 2 * j): c for i, row in enumerate(den[low:]) for j, c in enumerate(row) if c}
    num, den = _over(num, den, _int_gcd(_terms_content(num), _terms_content(den)))
    return RationalFunction._raw(
        MultivariatePolynomial(SU, num), MultivariatePolynomial(SU, den)
    )
