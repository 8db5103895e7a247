"""Skein classes of closed singular braids over the extension field (s, u).

The class of a closure is the word's coordinate vector rescaled into the
basis monomials Xhat^a Yhat^b.  Writing n for the strand count, e for the
writhe and c_ab for the (q, z)-coordinates, the coefficient of
Xhat^a Yhat^b is

    embed(c_ab * z^m) * u^k,  m = a + b - n + 1,  k = a + e - n + 1,

where embed is the field embedding q -> s^2, z -> (s^2 - 1)/(1 - s^2 u^2).
The exponents come from inverting the normalised braid-to-class map on the
two generator words: a lone double point on two strands must map to Xhat,
a double point followed by a crossing to Yhat, and the empty word on one
strand to 1.  Both anchors, the skein relation t^{-1} L+ - t L- = x L0
(with t = s u, x = s - 1/s), and invariance under all closure-preserving
moves are enforced by the test suite rather than assumed.

Each coefficient is formed in closed form from the factored coordinate
c = sign * R / (q^p (z - q)^alpha (z + 1)^beta) (``markov.FactoredCoordinate``),
with no (q, z) fraction in between.  Write x = s^2, y = u^2.  Then
z - q -> (x^2 y - 1)/(1 - x y) and z + 1 -> x (1 - y)/(1 - x y), and with
L the z-degree of R and Rtilde = sum_b R_b(x) (x - 1)^b (1 - x y)^(L - b),
with j = 0 for classes and j = -1 for the check:

    embed(c z^m) u^k s^j = sign * Rtilde * (x - 1)^m * (1 - x y)^(alpha + beta - L - m) * u^k s^j
                           / (x^(p + beta) (x^2 y - 1)^alpha (1 - y)^beta).

Only three kinds of factor can cancel: the common power of s, which s^j
shifts; x - 1, at most max(-m, 0) times, by synthetic division; and the
common power of u, when k < 0.  No factor 1 - x y is left in the
denominator: L is at most n - 1 - d + alpha + beta, the numerators'
z-degree n - 1 + d (``markov``) less one for each of the 2d - alpha - beta
divisions by z - q and z + 1, so the power alpha + beta - L - m of 1 - x y
is never negative (the skein check's sums do not raise the z-degree).  R's
own lowest terms keep x^2 y - 1 and 1 - y from cancelling.  The denominator
is a product of primitive polynomials, so no integer content cancels
either, and its graded-lex leading coefficient has the sign (-1)^beta.

The numerator is formed on one int (``singskein.packed``): x -> 2^W,
the width R is packed at, so R's rows over z are the R_b(x) as they stand,
and y -> 2^S outer, S = W times the x-slots.  By Horner's rule
(``packed._embed_packed``), times 1 - x y is ``acc - (acc << (W + S))`` and
the next (x - 1)^b is ``(a << W) - a``.  The y-rows are split once, x - 1 is
stripped from each with ``divmod(row, 2^W - 1)`` (``packed._divide_x_minus_one``),
and each row is decoded once, straight into the canonical term dict.

The skein check: w s_i, w S_i and w have writhes e + 1, e - 1, e and
coordinate numerators num_P, num_N, num_S over D^d.  As t = s u,
x = s^-1 embed(q - 1) and embed(q) = s^2, on Xhat^a Yhat^b (m, k as for w)

    t^-1 P - t N = s^-1 u^k embed((num_P - q num_N) z^m / D^d),
    x S          = s^-1 u^k embed((q - 1) num_S z^m / D^d),

each rendered from one numerator with j = -1; the relation holds iff they
are equal.  w s_i and w S_i are each folded as a word of its own, just as
``skein_class`` folds it, and w is folded once: the CLI hands the check the
traces it builds w's classes from (``_check_numerators``), and
``skein_triple_check``, called alone, checks w's caps right after the
index and folds w itself; each fold calls the seam ``markov._folded``.
The three numerators are packed at one width, proved for the two sums as
well (``markov._joint_numerators``), and ``markov._skein_sums`` forms and
factors the sums: the layout is opaque here, passed from one ``markov``
function to the next and never read.  The CLI renders only the two sides
(``_sides``); ``skein_triple_check`` also renders each numerator alone, so
its legs are the classes of w s_i, w S_i and w.  This checks the fold,
three coordinate solves and the closed-form rendering of both sides, not
products of the printed classes.

Adding a free strand multiplies a class by (1 - s^2 u^2)/(u (s^2 - 1)),
the disjoint-union coefficient (t^{-1} - t)/x.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .braid import Generator, Record, SIGMA, SIGMA_INV, SingularBraidWord, _forward, exponent_sum
from .coeff import SU, MultivariatePolynomial, RationalFunction
from . import markov
from .markov import ClassPolynomial, FactoredCoordinate, _skein_sums
from .markov import _factored, _factored_from, _joint_numerators, check_caps, factored_coordinates
from .packed import _digits, _divide_x_minus_one, _embed_packed, _low_digit, _width

__all__ = [
    "SkeinClass",
    "SkeinTripleResult",
    "skein_class",
    "skein_triple_check",
    "VAR_T",
    "VAR_X",
]

# classes of stacked words from their factors'
__getattr__ = _forward(__name__, oracle={"disjoint_union_coefficient", "closure_product"})

# the skein-relation constants in canonical form: t = s*u and x = s - 1/s = (s^2 - 1)/s
VAR_T = RationalFunction._raw(
    MultivariatePolynomial._raw(SU, {(1, 1): 1}), MultivariatePolynomial._raw(SU, {(0, 0): 1})
)
VAR_X = RationalFunction._raw(
    MultivariatePolynomial._raw(SU, {(2, 0): 1, (0, 0): -1}),
    MultivariatePolynomial._raw(SU, {(1, 0): 1}),
)


class SkeinClass(ClassPolynomial):
    """Polynomial in the closure classes Xhat, Yhat with (s, u) coefficients."""

    variable_names = ("Xhat", "Yhat")
    field_variables = SU


class SkeinTripleResult(Record):
    """Outcome of one skein-relation check of a word w at a crossing site i:
    ``positive``, ``negative`` and ``smoothed`` are the classes
    (``skein_class``) of w s_i, w S_i and w, and ``lhs`` and ``rhs`` the two
    sides t^{-1} positive - t negative and x smoothed."""

    __slots__ = ("holds", "positive", "negative", "smoothed", "lhs", "rhs")


def skein_class(word: SingularBraidWord) -> SkeinClass:
    """Class of the word's closure in the basis {Xhat^a Yhat^b}."""
    return _rendered(factored_coordinates(word), word.strands, exponent_sum(word))


def _class_from_components(traces, word: SingularBraidWord) -> SkeinClass:
    """``skein_class`` of a word whose trace value is ``traces``, in either
    format, built from it with no fold and no cap check."""
    return _rendered(_factored_from(traces, word), word.strands, exponent_sum(word))


def _rendered(factored: dict, n: int, writhe: int, j: int = 0) -> SkeinClass:
    """The coefficients embed(c z^m) u^k s^j of a word's factored coordinates."""
    return SkeinClass(
        {
            (a, b): _closure_coefficient(c, a + b - n + 1, a + writhe - n + 1, j)
            for (a, b), c in factored.items()
        }
    )


# x^2 y - 1, y - 1 and x - 1 by the (x, y)-exponents of their monomials: each
# has graded-lex leading coefficient 1, so every product of their powers does
_DENOMINATOR_FACTORS = ((2, 1), (0, 1), (1, 0))


@lru_cache(maxsize=1024)
def _denominator(powers: tuple[int, int, int]) -> tuple:
    """Terms over (s, u) of (x^2 y - 1)^alpha (y - 1)^beta (x - 1)^r for
    powers (alpha, beta, r), x = s^2, y = u^2.  The caps give
    alpha, beta <= d <= 8 and r <= n - 1 <= 11; the key leaves out the powers
    of s and u, which vary with q-shifts and writhes.  The product is one
    packed int, x -> 2^W, y -> 2^S: every factor has L1 2, so W is
    ``_width(2^(alpha + beta + r))``, and S is W times the x-slots, the
    x-degree 2 alpha + r plus one."""
    width = _width(1 << sum(powers))
    stride = width * (2 * powers[0] + powers[2] + 1)
    value = prod(
        ((1 << (width * i + stride * h)) - 1) ** power
        for (i, h), power in zip(_DENOMINATOR_FACTORS, powers)
    )
    return tuple(
        ((2 * i, 2 * h), v) for h, row in _digits(value, stride) for i, v in _digits(row, width)
    )


def _closure_coefficient(c: FactoredCoordinate, m: int, k: int, j: int = 0) -> RationalFunction:
    """embed(c * z^m) * u^k * s^j in canonical form (see the module docstring)."""
    width = c.width
    r = max(-m, 0)  # z^m for m < 0 puts (x - 1)^r in the denominator
    level = c.alpha + c.beta + r  # z-degree of the denominator
    rows = (0,) * m + c.rows
    if len(rows) - 1 > level:  # _embed_packed would drop the rows above level
        raise RuntimeError(f"numerator z-degree {len(rows) - 1} above the denominator's {level}")
    value, stride = _embed_packed(rows, level, width)
    ys, num = zip(*_digits(value, stride))  # the nonzero rows over y
    num, stripped = _divide_x_minus_one(num, width, r)
    sign = c.sign * (-1) ** c.beta
    # common power of s: x^(p + beta) and s^j against the numerator's lowest x
    s_den = 2 * (c.p + c.beta) + max(-j, 0)
    s_cut = min(2 * _low_digit(num, width) + max(j, 0), s_den)
    # common power of u: u^(-k) against the numerator's lowest power of y
    cut = min(2 * ys[0], max(-k, 0))
    u_num, u_den = max(k, 0) - cut, max(-k, 0) - cut
    s_num = max(j, 0) - s_cut
    num_terms = {
        (2 * i + s_num, 2 * h + u_num): sign * v
        for h, row in zip(ys, num)
        for i, v in _digits(row, width)
    }
    den_terms = {
        (e0 + s_den - s_cut, e1 + u_den): v
        for (e0, e1), v in _denominator((c.alpha, c.beta, r - stripped))
    }
    return RationalFunction._raw(
        MultivariatePolynomial._raw(SU, num_terms), MultivariatePolynomial._raw(SU, den_terms)
    )


def skein_triple_check(word: SingularBraidWord, i: int) -> SkeinTripleResult:
    """Check t^{-1}[closure(w s_i)] - t[closure(w S_i)] = x[closure(w)] (module docstring)."""
    legs = _legs(word, i)
    check_caps(word)
    layout, numerators = _check_numerators(word, legs, markov._folded(word))
    lhs, rhs = _sides(word, layout, numerators)
    n, d, e = word.strands, word.degree, exponent_sum(word)
    # the classes of w s_i, w S_i and w, of writhes e + 1, e - 1 and e
    legs = (_rendered(_factored(v, layout, d), n, e + de) for v, de in zip(numerators, (1, -1, 0)))
    return SkeinTripleResult(lhs == rhs, *legs, lhs, rhs)


def _legs(word: SingularBraidWord, i: int) -> tuple[SingularBraidWord, SingularBraidWord]:
    """w s_i and w S_i, the skein check's crossing legs, with nothing folded;
    a ``ValueError`` unless 1 <= i <= n - 1."""
    n = word.strands
    if not 1 <= i <= n - 1:
        raise ValueError(f"crossing index {i} out of range for {n} strands")
    return tuple(
        SingularBraidWord(n, word.letters + (Generator(kind, i),)) for kind in (SIGMA, SIGMA_INV)
    )


def _check_numerators(word: SingularBraidWord, legs: tuple, traces) -> tuple:
    """The layout and the numerators of w s_i, w S_i and w, for ``word`` and
    its ``_legs``, given the word's traces (``markov._folded``): only the
    legs are folded here, with no cap check, as they keep w's."""
    return _joint_numerators([markov._folded(leg) for leg in legs] + [traces], word)


def _sides(word: SingularBraidWord, layout: tuple, numerators: list) -> tuple:
    """The skein check's two sides, t^-1 P - t N and x S, from the layout and
    numerators of ``_check_numerators``, rendered from the factored sums of
    ``markov._skein_sums``."""
    n, e = word.strands, exponent_sum(word)
    return tuple(_rendered(f, n, e, -1) for f in _skein_sums(numerators, layout, word.degree))
