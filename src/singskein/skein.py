"""Skein classes of closed singular braids over the extension field (s, u).

The class of a closure is the word's coordinate vector rescaled into the
basis monomials Xhat^a Yhat^b.  Writing n for the strand count, e for the
writhe and c_ab for the (q, z)-coordinates, the coefficient of
Xhat^a Yhat^b is

    embed(c_ab) * z^(a + b - n + 1) * u^(a + e - n + 1)

where embed is the field embedding q -> s^2, z -> (s^2 - 1)/(1 - s^2 u^2).
Because embed is a ring homomorphism, the power of z is applied in Q(q, z)
before embedding: both powers are then monomials, and a product with a
monomial is reduced in closed form.  The exponents come from inverting the
normalised braid-to-class map on the two generator words: a lone double
point on two strands must map to Xhat, a double point followed by a
crossing to Yhat, and the empty word on one strand to 1.  Both anchors,
the skein relation t^{-1} L+ - t L- = x L0 (with t = s u, x = s - 1/s),
and invariance under all closure-preserving moves are enforced by the test
suite rather than assumed.

Adding a free strand multiplies a class by (1 - s^2 u^2)/(u (s^2 - 1)),
the disjoint-union coefficient (t^{-1} - t)/x.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import Generator, SIGMA, SIGMA_INV, SingularBraidWord, exponent_sum
from .coeff import QZ, SU, RationalFunction, embed_qz_to_su
from .markov import ClassPolynomial, check_caps, markov_class

__all__ = [
    "SkeinClass",
    "SkeinTripleResult",
    "skein_class",
    "skein_triple_check",
    "disjoint_union_coefficient",
    "closure_product",
    "VAR_T",
    "VAR_X",
]

_S = RationalFunction.coordinate(SU, "s")
_U = RationalFunction.coordinate(SU, "u")
_Z = RationalFunction.coordinate(QZ, "z")

# the skein-relation constants: t = s*u and x = s - 1/s
VAR_T = _S * _U
VAR_X = _S - _S.inverse()


class SkeinClass(ClassPolynomial):
    """Polynomial in the closure classes Xhat, Yhat with (s, u) coefficients."""

    variable_names = ("Xhat", "Yhat")
    field_variables = SU


@dataclass(frozen=True)
class SkeinTripleResult:
    """Outcome of one skein-relation check at a chosen crossing site."""

    holds: bool
    positive: SkeinClass
    negative: SkeinClass
    smoothed: SkeinClass
    lhs: SkeinClass
    rhs: SkeinClass


def skein_class(
    word: SingularBraidWord,
    max_degree: int | None = None,
    max_strands: int | None = None,
    coords: "ClassPolynomial | None" = None,
) -> SkeinClass:
    """Class of the word's closure in the basis {Xhat^a Yhat^b}.

    ``coords`` may pass the word's precomputed coordinate class to avoid
    solving twice when the caller already has it.
    """
    check_caps(word, max_degree, max_strands)
    if coords is None:
        coords = markov_class(word)
    n = word.strands
    writhe = exponent_sum(word)
    out: dict[tuple[int, int], RationalFunction] = {}
    for (a, b), coeff in coords.coeffs.items():
        image = embed_qz_to_su(coeff * _Z ** (a + b - n + 1))
        out[(a, b)] = image * _U ** (a + writhe - n + 1)
    return SkeinClass(out)


def skein_triple_check(word: SingularBraidWord, i: int, **caps) -> SkeinTripleResult:
    """Check t^{-1}[closure(w s_i)] - t[closure(w S_i)] = x[closure(w)]."""
    if not 1 <= i <= word.strands - 1:
        raise ValueError(f"crossing index {i} out of range for {word.strands} strands")
    positive = skein_class(
        SingularBraidWord(word.strands, word.letters + (Generator(SIGMA, i),)), **caps
    )
    negative = skein_class(
        SingularBraidWord(word.strands, word.letters + (Generator(SIGMA_INV, i),)),
        **caps,
    )
    smoothed = skein_class(word, **caps)
    lhs = positive.scaled(VAR_T.inverse()) - negative.scaled(VAR_T)
    rhs = smoothed.scaled(VAR_X)
    return SkeinTripleResult(lhs == rhs, positive, negative, smoothed, lhs, rhs)


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
