"""Degree-d trace functionals and coordinates in the span of X^a Y^b.

A word with d double points pairs against d+1 functionals.  The k-th
functional resolves k of the double points to positive crossings and
deletes the other d-k, in all possible ways, weights each resulting
crossing-only word by k!(d-k)!, and takes the Markov trace of the sum.
Word classes in the commutative stacking algebra are then coordinates with
respect to the monomials X^a Y^b (a + b = d), where X is the class of a
single double point on two strands and Y that of a double point followed
by a crossing.

On two strands X deletes to the identity (trace 1) and resolves to a
crossing (trace z); Y deletes to a crossing (z) and resolves to its square
(w = (q-1)z + q).  The trace is multiplicative on words split over disjoint
strand pairs, so the unweighted k-th functional of X^a Y^b is the
coefficient of T0^(d-k) T1^k in (T0 + z T1)^a (z T0 + w T1)^b.  A word whose
unweighted functionals are C_k (``oracle.trace_components``) therefore has
the coordinates x_ab with

    sum_k C_k T0^(d-k) T1^k = sum_ab x_ab A^a B^b,  A = T0 + z T1, B = z T0 + w T1,

and the inverse change of variables T0 = (wA - zB)/D, T1 = (B - zA)/D with
D = w - z^2 = -(z - q)(z + 1) reads x_ab off as the coefficient of A^a B^b
in sum_k C_k (wA - zB)^(d-k) (B - zA)^k, divided by D^d.  The k!(d-k)!
weights scale whole functionals and cancel (``_numerators``).  The
only factors a coordinate's denominator can have are q (from the Laurent
trace), z - q and z + 1, so a shift of the q-exponents and synthetic
division by z - q and z + 1 put it in lowest terms as a
``FactoredCoordinate``, (-1)^d R / (q^p (z - q)^alpha (z + 1)^beta);
``factored_coordinates`` runs both steps.  ``skein`` maps these straight
into Q(s, u); ``markov_class`` writes each one down in canonical form,
(-1)^(d + alpha) R over q^p (q - z)^alpha (z + 1)^beta, whose coefficients
are products of binomials and leading coefficient 1.

All of it runs on packed ints (``singskein.packed``), from the trace
components to the factored coordinates, which are decoded only by
``FactoredCoordinate.in_qz`` and ``skein``.  At A = 1 numerator b is
the B^b coefficient of

    N(q, z, B) = sum_k C_k F0^(d-k) F1^k,  F0 = w - zB,  F1 = B - z,

and all of them are one int, laid out by (q0, W, Z, S) (``_layout``):
q -> 2^W is the inner digit, with the coefficient of q^(q0 + e) in digit
e (q0 the lowest q-exponent of the word's components or 0, whichever is
lower); z -> 2^Z with Z = W (q_top - q0 + 1); and B -> 2^S with
S = Z (z_top + 1), where q_top and z_top bound the numerators' q- and
z-degrees.  By Horner's rule
in k, acc = acc F0 + C_k F1^k, every step is a shift and an add
(``_numerators``): times F0 = (q - 1)z + q - zB is
``(a << W+Z) - (a << Z) + (a << W) - (a << Z+S)`` and times F1 is
``(c << S) - (c << Z)``.  The int is exact at any strides, as evaluation at
powers of two is a ring homomorphism.  Each C_k enters as one int, packed
at q -> 2^W and z -> 2^Z from one of two sources.  Components given as
Laurent dicts (a word folded whole) are packed term by term
(``packed._pack``).  A word cut into pieces hands over the pieces' product
undecoded (``hecke._folded``), and each C_k is re-laid out from it by byte
copies (``PackedProduct.relaid``, the re-layout lemma in
``singskein.packed``), so its terms are never read one by one.
``_factored`` splits the numerators' int once with ``packed._digits``, at
S into the numerators and each of those at Z into rows over z.  Both
splits are exact: a row has at most q_top - q0 + 1 balanced digits, each
below 2^(W-1), so |row| < 2^(Z-1), and a numerator has at most z_top + 1
such rows, so |N_b| < 2^(S-1).  A numerator's
q-shift p comes from the lowest nonzero digit of its rows, q -> 2^W makes
division by z - q ``Q_(t-1) = R_t + (Q_t << W)`` and division by z + 1
``Q_(t-1) = R_t - Q_t``, and each stops at the first nonzero remainder
(``_over_det_power``).  ``_layout`` gives ``packed._packed_width`` these
bounds for one word:

* l1 = sum_k 4^(d-k) 2^k L1(C_k), as F0 has L1 4 and F1 has L1 2, so
  C_k F0^(d-k) F1^k has L1 at most 4^(d-k) 2^k L1(C_k) over all b; for a
  product, L1(C_k) is bounded by the convolution of its factors' per-k L1
  norms, and its q-range by the sum of theirs.  Both are bounds, so W stays
  proved, and it is rounded up to whole bytes for the re-layout, which
  leaves it at least the product's width (``_layout``);
* L = z_top = n - 1 + d, as a trace on n strands has z-degree below n (each
  peeled strand takes one z) and F0, F1 have z-degree 1;
* D = q_top - q0, with q_top the components' top q-exponent (or 0) plus d,
  as F0 has q-degree 1;
* m = d - n + 1, the same for every coordinate (a + b = d).

The skein check's three words, w s_i, w S_i and w, are each folded once,
each from its own source (the CLI hands the check w's traces, which its
classes are built from), and packed at one layout
(``_joint_numerators``), with l1 doubled and q_top raised by one for its
sums num_P - q num_N and (q - 1) num_S, which are ``P - (N << W)`` and
``(S << W) - S`` on the packed ints.

The oracles live in ``singskein.oracle``, which no CLI run imports: the
literal expansion (``FormalWordSum``, ``desing_delete``,
``desing_resolve``, ``subset_expansion``, ``trace_functional``), the
functionals as ``RationalFunction``s (``TraceVector``, ``trace_vector``),
the pairing matrix on the basis words (``basis_word``, ``pairing_matrix``),
``markov_class_of_sum``, the g-operators (``g0_apply``, ``g1_apply``) and
``class_product``.  All but ``FormalWordSum``, ``subset_expansion``,
``TraceVector`` and ``basis_word`` are read from there by
``braid._forward``, as the acceptance tests and the benchmark import them
from here.

For a fixed degree and strand count, a word's coordinates are a function
of its trace components alone, and ``_factored_from`` is the one way from
components to factored coordinates: ``factored_coordinates``,
``markov_class``, the CLI's classes and the skein classes all go through
it, and it folds nothing.  A class holds its coefficients and nothing
else; the CLI takes the given word's traces once, factors them once and
builds both of its classes from that (``_class_of`` and
``skein._rendered``).

Every fold calls one seam, ``_folded`` (``hecke._folded``, looked up in
this module, where the fold is wrapped or replaced): the given word's, once
for its classes and the skein check alike, the skein check's legs w s_i
and w S_i, and each ``--verify`` move word's.  Caps are checked once, where
a word enters: ``check_caps`` refuses a word above the hard caps (degree
<= 8, strands <= 12) in ``factored_coordinates`` (behind ``markov_class``
and ``skein_class``) and ``skein_triple_check``, and the CLI checks its cap
flags and, against the caps they set, the given word right after parsing.
The legs and the move words keep the degree, and the strand count within
the cap, so they need no check.  Every word the CLI folds is reduced once:
the given word's cyclic reduction keys its ``--verify`` verdict and goes to
``_folded`` with it, as each move word's verdict key goes with its fold.
"""

from __future__ import annotations

from math import comb
from typing import Mapping

from .braid import Record, SingularBraidWord, _forward
from .coeff import MultivariatePolynomial, QZ, RationalFunction, _convolved, _monomial_text, _summed
from .hecke import _folded
from .packed import (
    PackedProduct,
    _dense,
    _digits,
    _divide_linear,
    _low_digit,
    _pack,
    _packed_width,
    _whole_bytes,
)

__all__ = [
    "HARD_MAX_DEGREE",
    "HARD_MAX_STRANDS",
    "CapExceededError",
    "DegreeError",
    "ClassPolynomial",
    "MarkovClass",
    "FactoredCoordinate",
    "check_caps",
    "factored_coordinates",
    "markov_class",
]

# the literal expansion, the pairing matrix and the g-operators
__getattr__ = _forward(__name__, oracle={
    "desing_delete", "desing_resolve", "trace_functional", "trace_vector", "pairing_matrix",
    "markov_class_of_sum", "g0_apply", "g1_apply", "class_product",
})


HARD_MAX_DEGREE = 8
HARD_MAX_STRANDS = 12

class CapExceededError(ValueError):
    """Input word exceeds the interactive-size caps."""


class DegreeError(ValueError):
    """Operation undefined at this singular degree."""


def check_caps(
    word: SingularBraidWord,
    max_degree: int | None = None,
    max_strands: int | None = None,
) -> int:
    """Raise unless ``word`` is within the caps (``None`` is the hard cap);
    return the strand cap it was checked against."""
    degree_cap = HARD_MAX_DEGREE if max_degree is None else max_degree
    strand_cap = HARD_MAX_STRANDS if max_strands is None else max_strands
    if not 1 <= degree_cap <= HARD_MAX_DEGREE:
        raise ValueError(f"degree cap must lie in 1..{HARD_MAX_DEGREE}")
    if not 1 <= strand_cap <= HARD_MAX_STRANDS:
        raise ValueError(f"strand cap must lie in 1..{HARD_MAX_STRANDS}")
    if word.degree > degree_cap:
        raise CapExceededError(
            f"word has {word.degree} double points, cap is {degree_cap}"
        )
    if word.strands > strand_cap:
        raise CapExceededError(f"word has {word.strands} strands, cap is {strand_cap}")
    return strand_cap


class ClassPolynomial(Record):
    """Polynomial in two formal monomial generators with field coefficients."""

    variable_names = ("X", "Y")
    field_variables = QZ

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], RationalFunction]):
        clean: dict[tuple[int, int], RationalFunction] = {}
        for expo, coeff in coeffs.items():
            if coeff.variables != self.field_variables:
                raise ValueError(
                    f"coefficients must live over {self.field_variables}"
                )
            if not coeff.is_zero:
                clean[tuple(expo)] = coeff
        self._set(clean)

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, coeff: RationalFunction):
        return cls({(0, 0): coeff})

    @classmethod
    def monomial(cls, a: int, b: int, coeff: RationalFunction | None = None):
        if coeff is None:
            coeff = RationalFunction.one(cls.field_variables)
        return cls({(a, b): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def homogeneous_degree(self) -> int:
        """Common total degree of all monomials; raises if mixed or zero."""
        degrees = {a + b for a, b in self.coeffs}
        if len(degrees) != 1:
            raise DegreeError("class is not homogeneous")
        return degrees.pop()

    def sorted_terms(self) -> list[tuple[tuple[int, int], RationalFunction]]:
        return sorted(self.coeffs.items(), key=lambda kv: kv[0], reverse=True)

    def add(self, other: "ClassPolynomial") -> "ClassPolynomial":
        return type(self)(_summed(self.coeffs, other.coeffs))

    def scaled(self, factor: RationalFunction) -> "ClassPolynomial":
        return type(self)({e: c * factor for e, c in self.coeffs.items()})

    def __sub__(self, other: "ClassPolynomial") -> "ClassPolynomial":
        minus_one = RationalFunction.constant(self.field_variables, -1)
        return self.add(other.scaled(minus_one))

    def multiply(self, other: "ClassPolynomial") -> "ClassPolynomial":
        return type(self)(_convolved(self.coeffs, other.coeffs))

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(self.sorted_terms())))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        na, nb = self.variable_names
        pieces = []
        for (a, b), coeff in self.sorted_terms():
            mono = _monomial_text(na, nb, a, b)
            text = str(coeff)
            if not mono:
                pieces.append(text if " " not in text else f"({text})")
            elif text == "1":
                pieces.append(mono)
            else:
                if " " in text or "/" in text or text.startswith("-"):
                    text = f"({text})"
                pieces.append(f"{text}*{mono}")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


class MarkovClass(ClassPolynomial):
    """Class of a braid in the commutative stacking algebra over (q, z): its
    coefficients alone, as for every class."""


class FactoredCoordinate(Record):
    """A nonzero coordinate sign * R / (q^p (z - q)^alpha (z + 1)^beta) in
    lowest terms, sign = (-1)^d.

    R is given as rows over z (``rows``), each an int whose balanced digit e
    at q -> 2^``width`` is R's coefficient of q^e (module docstring).  R is
    divisible by none of q (if p > 0), z - q (if alpha > 0) and z + 1 (if
    beta > 0).
    """

    __slots__ = ("rows", "p", "alpha", "beta", "sign", "width")

    def in_qz(self) -> RationalFunction:
        """Canonical form: sign * (-1)^alpha * R over q^p (q - z)^alpha
        (z + 1)^beta.  Every q-exponent p + alpha - i of the denominator comes
        from the single term of (q - z)^alpha with z^i, so its coefficients are
        products of binomials, and its graded-lex leading coefficient is 1."""
        sign = self.sign * (-1) ** self.alpha
        num = {
            (eq, ez): sign * v
            for ez, row in enumerate(self.rows)
            for eq, v in _digits(row, self.width)
        }
        den = {
            (self.p + self.alpha - i, i + j): (-1) ** i * comb(self.alpha, i) * comb(self.beta, j)
            for i in range(self.alpha + 1)
            for j in range(self.beta + 1)
        }
        return RationalFunction._raw(
            MultivariatePolynomial._raw(QZ, num), MultivariatePolynomial._raw(QZ, den)
        )


def _joint_numerators(
    comp_sets: list, word: SingularBraidWord
) -> tuple[tuple[int, int, int, int], list[int]]:
    """The layout and, for each of these sets of trace components (from
    ``_folded``), the coordinates as numerators over D^d, by the change of
    variables T0 = wA - zB, T1 = B - zA, of words with the degree and strand
    count of ``word``: the one numerator packer.  They are packed at one
    layout, which for more than one set also covers the sums num_i - q num_j
    and (q - 1) num_i (the skein check's); nothing is folded here."""
    layout = _layout(comp_sets, word)
    return layout, [_numerators(comps, layout) for comps in comp_sets]


def _layout(comp_sets: list, word: SingularBraidWord) -> tuple[int, int, int, int]:
    """(q0, W, Z, S) for the numerators of these sets of trace components,
    of words with the degree and strand count of ``word``: q0 the lowest
    q-exponent or 0, whichever is lower, W proved by
    ``packed._packed_width`` for rendering the words' coordinates, and the
    z- and B-strides that fit them (module docstring).  More than one set
    also covers the skein check's sums.  A set given as a product is
    bounded by the product's per-k L1 bounds and q-range, and W is then
    rounded up to whole bytes for the re-layout.  That W is at least the
    product's width, which is ``_width`` of the sum of those bounds rounded
    up alike: l1 is at least that sum, and ``_packed_width`` multiplies it
    by factors of at least 1 (``relaid`` refuses a narrower W)."""
    d = word.degree
    l1, low, high = 0, [0], [0]
    for comps in comp_sets:
        if isinstance(comps, PackedProduct):
            norms = comps.norms
            low.append(comps.low)
            high.append(comps.low + comps.span - 1)
        else:
            norms = [sum(map(abs, comp.values())) for comp in comps]
            low += [min(comp)[0] for comp in comps if comp]
            high += [max(comp)[0] for comp in comps if comp]
        l1 = max(l1, sum(norm << (2 * d - k) for k, norm in enumerate(norms)))
    q0, q_top = min(low), max(high) + d
    if len(comp_sets) > 1:  # a sum of two at most doubles L1, and q num raises the q-degree by one
        l1, q_top = 2 * l1, q_top + 1
    # the trace has z-degree below the strand count: one z per peeled strand
    z_top = word.strands - 1 + d
    width = _packed_width(l1, z_top, q_top - q0, d, d - word.strands + 1)
    if any(isinstance(comps, PackedProduct) for comps in comp_sets):
        width = _whole_bytes(width)
    z_stride = width * (q_top - q0 + 1)
    return q0, width, z_stride, z_stride * (z_top + 1)


def _numerators(comps: "list | PackedProduct", layout: tuple[int, int, int, int]) -> int:
    """sum_k C_k F0^(d-k) F1^k for these trace components, packed at this
    layout, by Horner's rule in k (module docstring): the coefficient of
    q^(q0 + e) z^t B^b, numerator b's, in its balanced digit at q -> 2^W,
    z -> 2^Z, B -> 2^S.  Each C_k is packed from its Laurent dict, or re-laid
    out from the product."""
    q0, q_bits, z_bits, b_bits = layout  # the shift of one power of q, of z and of B
    if isinstance(comps, PackedProduct):
        ints = comps.relaid(q0, q_bits, z_bits)
    else:
        ints = [
            sum(row << (z_bits * t) for t, row in enumerate(_pack(comp, q0, q_bits))) for comp in comps
        ]
    acc = 0
    for k, c in enumerate(ints):
        for _ in range(k):
            c = (c << b_bits) - (c << z_bits)  # times F1 = B - z
        # times F0 = (q - 1)z + q - zB, plus C_k F1^k
        acc = (
            (acc << (q_bits + z_bits)) - (acc << z_bits) + (acc << q_bits)
            - (acc << (z_bits + b_bits)) + c
        )
    return acc


def factored_coordinates(word: SingularBraidWord) -> dict[tuple[int, int], FactoredCoordinate]:
    """The word's nonzero coordinates in factored form; ``CapExceededError``
    if the word is above the hard caps."""
    check_caps(word)
    return _factored_from(_folded(word), word)


def _factored_from(
    comps: "list | PackedProduct", word: SingularBraidWord
) -> dict[tuple[int, int], FactoredCoordinate]:
    """The nonzero coordinates in factored form of a word with the degree and
    strand count of ``word`` whose trace components are ``comps``, Laurent
    dicts or their product: the one way from components to a class, which
    folds nothing."""
    layout, (value,) = _joint_numerators([comps], word)
    return _factored(value, layout, word.degree)


def _factored(
    value: int, layout: tuple[int, int, int, int], d: int
) -> dict[tuple[int, int], FactoredCoordinate]:
    """Each nonzero numerator over D^d of the packed int ``value`` at this
    layout in factored form (``_over_det_power``), split off the int at B
    and then at z."""
    q0, width, z_stride, b_stride = layout
    return {
        (d - b, b): _over_det_power(_dense(n_b, z_stride), q0, width, d)
        for b, n_b in _digits(value, b_stride)
    }


def markov_class(word: SingularBraidWord) -> MarkovClass:
    """Coordinates of the word's class over Q(q, z), from its factored
    coordinates."""
    return _class_of(factored_coordinates(word))


def _class_of(factored: dict[tuple[int, int], FactoredCoordinate]) -> MarkovClass:
    """The class over Q(q, z) whose factored coordinates are ``factored``."""
    return MarkovClass({ab: c.in_qz() for ab, c in factored.items()})


def _over_det_power(rows: list[int], q0: int, width: int, d: int) -> FactoredCoordinate:
    """Factor a nonzero numerator over D^d, where D = w - z^2 = -(z - q)(z + 1)
    is the determinant of the degree-1 pairing matrix; the numerator is given
    as z-rows whose digit e at q -> 2^width is the coefficient of q^(q0 + e).

    Every common factor must be q, z - q or z + 1: q by the shift p, read off
    the lowest nonzero digit, the others by synthetic division on the rows
    (``packed._divide_linear``), at most d times each.  After j and k
    divisions the value is (-1)^d R / (q^p (z - q)^(d - j) (z + 1)^(d - k)).
    """
    p = max(0, -(_low_digit(rows, width) + q0))
    shift = width * (q0 + p)  # R's digit e holds q^e
    rows = [v << shift for v in rows] if shift >= 0 else [v >> -shift for v in rows]
    rows, j = _divide_linear(rows, width, 1, d)  # z - q
    rows, k = _divide_linear(rows, 0, -1, d)  # z + 1
    return FactoredCoordinate(tuple(rows), p, d - j, d - k, (-1) ** d, width)
