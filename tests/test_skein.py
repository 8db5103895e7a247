"""Skein classes of closures: anchors, skein relation, algebra structure."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singskein import cli
from singskein.braid import (
    Generator,
    SIGMA,
    SIGMA_INV,
    SingularBraidWord,
    TAU,
    exponent_sum,
    parse,
)
from singskein.coeff import QZ, SU, MultivariatePolynomial, RationalFunction
from singskein.moves import random_move_sequence
from singskein.oracle import (
    _RF_Q_INV_MINUS_1,
    closure_product,
    disjoint_union_coefficient,
    embed_qz_to_su,
    stack,
    with_strands,
)
from singskein.markov import _over_det_power, markov_class
from singskein.skein import (
    VAR_T,
    VAR_X,
    SkeinClass,
    _closure_coefficient,
    _denominator,
    skein_class,
    skein_triple_check,
)
from test_markov import _packed, random_singular_word  # the shared test helpers

ONE = RationalFunction.one(SU)
S = RationalFunction.coordinate(SU, "s")
U = RationalFunction.coordinate(SU, "u")


# -- normalisation anchors ------------------------------------------------------


def test_unknot_is_one():
    assert skein_class(parse("", 1)) == SkeinClass.constant(ONE)


def test_single_double_point_is_xhat():
    assert skein_class(parse("t1", 2)) == SkeinClass.monomial(1, 0)


def test_double_point_with_crossing_is_yhat():
    assert skein_class(parse("t1 s1", 2)) == SkeinClass.monomial(0, 1)


def test_single_crossing_closure_is_unknot():
    assert skein_class(parse("s1", 2)) == SkeinClass.constant(ONE)
    assert skein_class(parse("S1", 2)) == SkeinClass.constant(ONE)


def test_split_double_point_picks_up_union_coefficient():
    # the same double point viewed on three strands: one extra split component
    expected = SkeinClass.monomial(1, 0, disjoint_union_coefficient())
    assert skein_class(with_strands(parse("t1", 2), 3)) == expected


# -- the disjoint-union coefficient ------------------------------------------------


def test_union_coefficient_closed_form():
    s2 = S * S
    expected = (ONE - s2 * U * U) / (U * (s2 - ONE))
    assert disjoint_union_coefficient() == expected


def test_union_coefficient_equals_inverse_z_u():
    z_image = embed_qz_to_su(RationalFunction.coordinate(QZ, "z"))
    assert disjoint_union_coefficient() == z_image.inverse() * U.inverse()


def test_union_coefficient_matches_pipeline():
    rng = random.Random(404)
    for _ in range(8):
        w = random_singular_word(rng, strands=rng.randint(2, 4), length=5, degree=rng.randint(0, 2))
        grown = with_strands(w, w.strands + 1)
        assert skein_class(grown) == skein_class(w).scaled(disjoint_union_coefficient())


# -- skein relation ------------------------------------------------------------------


def test_triple_check_unknots():
    result = skein_triple_check(parse("", 2), 1)
    assert result.holds


def test_triple_check_trefoil_family():
    assert skein_triple_check(parse("s1", 2), 1).holds


def test_triple_check_singular_instance():
    assert skein_triple_check(parse("t1", 2), 1).holds


def test_triple_check_randomized():
    rng = random.Random(60601)
    for _ in range(25):
        n = rng.randint(2, 5)
        w = random_singular_word(rng, n, rng.randint(0, 8), rng.randint(0, 2))
        i = rng.randrange(1, n)
        result = skein_triple_check(w, i)
        assert result.holds, f"skein relation failed for {w!r} at {i}"
        # the relation holds for any word, so the legs are pinned to w s_i,
        # w S_i and w themselves
        legs = [SingularBraidWord(n, w.letters + (Generator(kind, i),)) for kind in (SIGMA, SIGMA_INV)] + [w]
        assert [result.positive, result.negative, result.smoothed] == [skein_class(leg) for leg in legs], (w, i)


def test_triple_check_reports_witnesses():
    result = skein_triple_check(parse("s1 s1", 2), 1)
    assert result.holds
    assert result.lhs == result.rhs
    # the positive leg is the trefoil-shaped closure of s1^3
    assert result.positive == skein_class(parse("s1 s1 s1", 2))


def test_triple_check_sides_match_the_printed_legs():
    # the check renders both sides from coordinate numerators; here they are
    # rebuilt from the printed classes by the general fraction arithmetic
    rng = random.Random(120501)
    for _ in range(200):
        n = rng.randint(2, 5)
        w = random_singular_word(rng, n, rng.randint(0, 10), rng.randint(0, 2))
        i = rng.randrange(1, n)
        result = skein_triple_check(w, i)
        lhs = result.positive.scaled(VAR_T.inverse()) - result.negative.scaled(VAR_T)
        rhs = result.smoothed.scaled(VAR_X)
        assert result.lhs == lhs, (w, i)
        assert result.rhs == rhs, (w, i)
        assert result.holds == (lhs == rhs), (w, i)


def test_skein_triple_result_is_a_frozen_record():
    result = skein_triple_check(parse("t1", 2), 1)
    assert repr(result) == (
        "SkeinTripleResult(holds=True, positive=<SkeinClass Yhat>, "
        "negative=<SkeinClass ((-s^2 + 1)/(s^2*u))*Xhat + (1/(s^2*u^2))*Yhat>, "
        "smoothed=<SkeinClass Xhat>, lhs=<SkeinClass ((s^2 - 1)/s)*Xhat>, "
        "rhs=<SkeinClass ((s^2 - 1)/s)*Xhat>)"
    )
    again = skein_triple_check(parse("t1", 2), 1)
    assert result == again and hash(result) == hash(again)
    assert result != skein_triple_check(parse("s1 s1", 2), 1)
    with pytest.raises(AttributeError):
        result.holds = False


def test_skein_constants_are_canonical():
    assert VAR_T == S * U
    assert VAR_X == S - S.inverse()
    q = RationalFunction.coordinate(QZ, "q")
    assert _RF_Q_INV_MINUS_1 == q.inverse() - RationalFunction.one(QZ)


def test_packed_denominators_are_the_products_of_their_factors():
    # The key (alpha, beta, r) on a grid up to the caps' extremes.
    # alpha, beta <= d <= 8: each is d less the divisions by z - q or z + 1.
    # r = max(-m, 0) with m = d - n + 1, so r <= n - 1 <= 11.
    small = (0, 1, 2, 3, 5, 8)
    grid = itertools.product(small, small, (0, 1, 2, 5, 11))
    s2, u2 = MultivariatePolynomial(SU, {(2, 0): 1}), MultivariatePolynomial(SU, {(0, 2): 1})
    one = MultivariatePolynomial.one(SU)
    factors = (s2 * s2 * u2 - one, u2 - one, s2 - one)
    for powers in grid:
        expected = one
        for factor, power in zip(factors, powers):
            expected = expected * factor**power
        got = _denominator(powers)
        assert dict(got) == expected.terms, powers
        assert _denominator(powers) is got  # memoised


def test_triple_check_index_range():
    with pytest.raises(ValueError):
        skein_triple_check(parse("s1", 2), 2)


# -- stabilisation and move invariance --------------------------------------------------


def test_stabilisation_neutrality():
    rng = random.Random(7001)
    for _ in range(10):
        n = rng.randint(2, 4)
        w = random_singular_word(rng, n, rng.randint(0, 6), rng.randint(0, 2))
        for sign in (SIGMA, SIGMA_INV):
            up = SingularBraidWord(n + 1, w.letters + (Generator(sign, n),))
            assert skein_class(up) == skein_class(w)


def test_move_invariance_smoke():
    rng = random.Random(515)
    for _ in range(6):
        w = random_singular_word(rng, rng.randint(2, 4), rng.randint(1, 6), rng.randint(0, 2))
        base = skein_class(w)
        for _, step in random_move_sequence(w, 8, seed=rng.randint(0, 10**6), max_strands=6):
            assert skein_class(step) == base


def test_coefficients_match_products_in_the_image_field():
    # each coefficient against embed(c) * embed(z)^m * u^e, multiplied out
    # and reduced by the general constructor
    rng = random.Random(4099)
    z_image = embed_qz_to_su(RationalFunction.coordinate(QZ, "z"))
    for _ in range(20):
        d = rng.randint(0, 3)
        w = random_singular_word(rng, rng.randint(2, 5), rng.randint(d, d + 6), d)
        n, writhe = w.strands, exponent_sum(w)
        expected = {}
        for (a, b), c in markov_class(w).coeffs.items():
            factors = (
                embed_qz_to_su(c),
                z_image ** (a + b - n + 1),
                RationalFunction.from_laurent_terms(SU, {(0, a + writhe - n + 1): 1}),
            )
            num, den = factors[0].numerator, factors[0].denominator
            for f in factors[1:]:
                num, den = num * f.numerator, den * f.denominator
            expected[(a, b)] = RationalFunction(num, den)
        assert skein_class(w) == SkeinClass(expected)


def test_closed_form_matches_embedding_of_the_general_fraction():
    # factored coordinates of numerators carrying z^t, (q - 1)^v, (z - q)^i,
    # (z + 1)^j and (z - q + 1)^w over D^d, D = -(z - q)(z + 1), with a Laurent
    # q shift; every coefficient embed(c * z^m) * u^e * s^sj against the oracle
    # embedding of the fraction formed by the general constructor.  (q - 1)^v
    # with v > -m > 0 takes the s^2 - 1 strip to its limit, and (z - q + 1)^w
    # makes the numerator's image divisible by u^2, so e < 0 cancels powers of u.
    # A second pass takes cofactor coefficients near 2^70, so packed digits
    # span machine words.
    rng = random.Random(1009)

    def poly(terms):
        return MultivariatePolynomial(QZ, terms)

    z, q_minus_1 = poly({(0, 1): 1}), poly({(1, 0): 1, (0, 0): -1})
    z_minus_q, z_plus_1 = poly({(0, 1): 1, (1, 0): -1}), poly({(0, 1): 1, (0, 0): 1})
    z_minus_q_plus_1 = poly({(0, 1): 1, (1, 0): -1, (0, 0): 1})
    det = -(z_minus_q * z_plus_1)
    at_limit = u_cut = refused = 0
    for scale in (1, 2**70):
        for d in range(4):
            for _ in range(6):
                while True:  # a cofactor nonzero at z = q, z = -1, z = q - 1 and q = 1
                    f = poly({
                        (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4 * scale, 4 * scale)
                        for _ in range(3)
                    })
                    if all(f.evaluate(pt) for pt in ((3, 3), (3, -1), (3, 2), (1, 5))):
                        break
                t, v, w = rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 2)
                i, j = rng.randint(0, d + 2), rng.randint(0, d + 2)
                num = f * z**t * q_minus_1**v * z_minus_q**i * z_plus_1**j * z_minus_q_plus_1**w
                shift = rng.randint(-3, 2)
                p = max(0, -shift)
                laurent = {(e0 + shift, e1): c for (e0, e1), c in num.terms.items()}
                num = poly({(e0 + shift + p, e1): c for (e0, e1), c in num.terms.items()})
                den = det**d * MultivariatePolynomial.monomial(QZ, (p, 0))
                factored = _over_det_power(*_packed(laurent, d, range(-3, 3)), d)
                assert factored.in_qz() == RationalFunction(num, den)
                for m in range(-3, 3):
                    # a class's R z^m has z-degree at most alpha + beta + max(-m, 0)
                    # (skein docstring); above it the coefficient is refused
                    z_degree = len(factored.rows) - 1 + max(m, 0)
                    if z_degree > factored.alpha + factored.beta + max(-m, 0):
                        with pytest.raises(RuntimeError):
                            _closure_coefficient(factored, m, 0)
                        refused += 1
                        continue
                    num_m = num * z**m if m >= 0 else num
                    den_m = den if m >= 0 else den * z**-m
                    image = embed_qz_to_su(RationalFunction(num_m, den_m))
                    for e in range(-3, 3):
                        for sj in (-1, 0):  # s^-1 as in the skein check
                            expected = image * U**e * S**sj
                            got = _closure_coefficient(factored, m, e, sj)
                            assert got.numerator == expected.numerator, (d, t, v, i, j, w, m, e, sj)
                            assert got.denominator == expected.denominator, (d, t, v, i, j, w, m, e, sj)
                        at_limit += v > -m > 0
                        u_cut += w > 0 and e < 0
    assert at_limit and u_cut and refused, (at_limit, u_cut, refused)


@st.composite
def mixed_sign_words(draw):
    """1-7 strands, at most 10 letters, at most 4 double points, crossings
    positive or negative with equal odds."""
    n = draw(st.integers(1, 7))
    if n == 1:
        return SingularBraidWord(1, ())
    index = st.integers(1, n - 1)
    kind = st.sampled_from((SIGMA, SIGMA_INV))
    letters = draw(st.lists(st.builds(Generator, kind, index), max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        letters.insert(draw(st.integers(0, len(letters))), Generator(TAU, draw(index)))
    return SingularBraidWord(n, tuple(letters))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(mixed_sign_words())
def test_classes_are_canonical_and_match_the_cli(w):
    # every coefficient is a fixed point of the general constructor, and the
    # class solved from scratch is the one the command line renders
    markov, skein = markov_class(w), skein_class(w)
    for c in list(markov.coeffs.values()) + list(skein.coeffs.values()):
        rebuilt = RationalFunction(c.numerator, c.denominator)
        assert rebuilt.numerator == c.numerator
        assert rebuilt.denominator == c.denominator
    args = cli.build_parser().parse_args(["--word", w.display(), "--strands", str(w.strands)])
    report = cli.run(args)
    assert report.skein == skein
    assert report.markov == markov
    assert str(report.skein) == str(skein)


# -- algebra structure ---------------------------------------------------------------------


def test_multiplicativity_over_stack():
    # closing a stacked word gives a split union, so the product of closure
    # classes carries one disjoint-union coefficient
    rng = random.Random(606)
    for _ in range(8):
        a = random_singular_word(rng, rng.randint(2, 3), 4, rng.randint(0, 1))
        b = random_singular_word(rng, rng.randint(2, 3), 4, rng.randint(0, 2))
        assert skein_class(stack(a, b)) == closure_product(skein_class(a), skein_class(b))


def test_closure_product_absorbs_trivial_factor():
    rng = random.Random(607)
    w = random_singular_word(rng, 3, 5, 1)
    assert closure_product(skein_class(w), skein_class(parse("", 1))) == skein_class(
        with_strands(w, 4)
    )


def test_xhat_powers_from_stacked_double_points():
    # each extra split copy of the double-point closure multiplies by the
    # union coefficient: the D-fold stack is coeff^(D-1) * Xhat^D
    word = parse("t1", 2)
    for power in range(2, 4):
        word = stack(word, parse("t1", 2))
        expected = SkeinClass.monomial(power, 0, disjoint_union_coefficient() ** (power - 1))
        assert skein_class(word) == expected
