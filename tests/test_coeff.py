"""Exactness and canonical-form tests for the coefficient fields."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singskein.coeff import (
    QZ,
    SU,
    MixedVariablesError,
    MultivariatePolynomial,
    PoleError,
    RationalFunction,
)
from singskein.oracle import (
    ExactDivisionError,
    _strip_root,
    _to_rec,
    embed_qz_to_su,
    poly_divexact,
    poly_gcd,
)

Q = RationalFunction.coordinate(QZ, "q")
Z = RationalFunction.coordinate(QZ, "z")
S = RationalFunction.coordinate(SU, "s")
U = RationalFunction.coordinate(SU, "u")
ONE_QZ = RationalFunction.one(QZ)
ONE_SU = RationalFunction.one(SU)


def const(value, variables=QZ):
    return RationalFunction.constant(variables, value)


def random_rf(rng: random.Random, variables=QZ, max_terms=3) -> RationalFunction:
    def random_poly():
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = rng.randint(-4, 4)
        return MultivariatePolynomial(variables, terms)

    num = random_poly()
    den = random_poly()
    while den.is_zero:
        den = random_poly()
    return RationalFunction(num, den)


# -- polynomial layer -------------------------------------------------------


def test_poly_drops_zero_coefficients():
    p = MultivariatePolynomial(QZ, {(1, 0): 0, (0, 1): 2})
    assert p.terms == {(0, 1): 2}
    r = MultivariatePolynomial(QZ, {(0, 1): 5, (2, 0): -1})
    assert (p - p).terms == {}
    assert (p - r).terms == {(0, 1): -3, (2, 0): 1}
    assert (p - r) + r == p


def test_poly_rejects_negative_exponents():
    with pytest.raises(ValueError):
        MultivariatePolynomial(QZ, {(-1, 0): 1})


def test_poly_gcd_simple():
    # q^2 - 1 and q - 1 share the factor q - 1
    a = MultivariatePolynomial(QZ, {(2, 0): 1, (0, 0): -1})
    b = MultivariatePolynomial(QZ, {(1, 0): 1, (0, 0): -1})
    assert poly_gcd(a, b) == b
    # in z only, with content: 2z^2 - 2 and -4z - 4 share 2(z + 1)
    a = MultivariatePolynomial(QZ, {(0, 2): 2, (0, 0): -2})
    b = MultivariatePolynomial(QZ, {(0, 1): -4, (0, 0): -4})
    assert poly_gcd(a, b) == MultivariatePolynomial(QZ, {(0, 1): 2, (0, 0): 2})


def test_poly_gcd_bivariate():
    vars_ = QZ
    f = MultivariatePolynomial(vars_, {(1, 1): 1, (0, 0): 1})  # qz + 1
    g = MultivariatePolynomial(vars_, {(1, 0): 2, (0, 1): -3})  # 2q - 3z
    fg = f * g
    fh = f * MultivariatePolynomial(vars_, {(2, 0): 1, (0, 0): 5})
    assert poly_gcd(fg, fh) == f
    assert poly_divexact(fg, f) == g
    # equal operands, either sign
    assert poly_gcd(fg, fg) == fg
    assert poly_gcd(-fg, -fg) == fg


def test_strip_root_divides_known_linear_factors():
    # f * (x - root*y^shift)^k for the three factors the pipeline strips:
    # z - q (root 1, shift 1) and z + 1 (root -1, shift 0) on rows over z
    # with entries over q, s^2 - 1 (root 1, shift 0) on rows over s^2 with
    # entries over u^2; the variable names below are only placeholders
    rng = random.Random(1618)

    def cofactor(root, shift):
        # not divisible by x - root*y^shift: nonzero at x = root*3^shift, y = 3
        while True:
            f = MultivariatePolynomial(
                QZ, {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-5, 5) for _ in range(4)}
            )
            if f.evaluate((root * 3**shift, 3)):
                return f

    for root, shift in ((1, 1), (-1, 0), (1, 0)):
        linear = MultivariatePolynomial(QZ, {(1, 0): 1, (0, shift): -root})
        for k in range(5):
            f, g = cofactor(root, shift), cofactor(root, shift)
            rows = _to_rec((f * linear**k).terms)
            assert _strip_root([rows], root, shift, 4) == ([_to_rec(f.terms)], k)
            # the limit stops it early
            for limit in range(k):
                expected = _to_rec((f * linear ** (k - limit)).terms)
                assert _strip_root([rows], root, shift, limit) == ([expected], limit)
            # divided together, two polynomials lose the smaller multiplicity
            j = rng.randint(0, 4)
            both = [rows, _to_rec((g * linear**j).terms)]
            m = min(j, k)
            expected = [
                _to_rec((f * linear ** (k - m)).terms),
                _to_rec((g * linear ** (j - m)).terms),
            ]
            assert _strip_root(both, root, shift, 4) == (expected, m)


def test_exact_division_on_dense_rows():
    # factors with several rows in the first variable, some of them empty
    # as in s^2 - 1: exact quotients come back, remainders are refused
    rng = random.Random(8128)

    def row_poly(variables):
        terms = {}
        for e0 in rng.sample(range(5), rng.randint(2, 3)):
            for e1 in rng.sample(range(4), rng.randint(1, 2)):
                terms[(e0, e1)] = rng.choice([-3, -2, -1, 1, 2, 3])
        return MultivariatePolynomial(variables, terms)

    for variables in (QZ, SU):
        divisors = [MultivariatePolynomial(variables, {(2, 0): 1, (0, 0): -1})]
        divisors += [row_poly(variables) for _ in range(40)]
        for g in divisors:
            f = row_poly(variables)
            assert poly_divexact(f * g, g) == f
            top = g.total_degree()
            r = MultivariatePolynomial(
                variables,
                {(e0, rng.randint(0, top - 1 - e0)): rng.choice([-2, -1, 1, 2]) for e0 in range(top)},
            )
            with pytest.raises(ExactDivisionError):
                poly_divexact(f * g + r, g)


def test_poly_gcd_includes_content():
    a = MultivariatePolynomial(QZ, {(1, 0): 4})
    b = MultivariatePolynomial(QZ, {(0, 0): 6})
    assert poly_gcd(a, b) == MultivariatePolynomial(QZ, {(0, 0): 2})


def test_polynomial_coefficients_must_be_ints():
    with pytest.raises(TypeError):
        MultivariatePolynomial(QZ, {(0, 0): Fraction(1, 2)})


def test_poly_rendering_order():
    p = MultivariatePolynomial(SU, {(4, 0): 1, (2, 0): -1, (0, 0): 1})
    assert str(p) == "s^4 - s^2 + 1"


# -- canonical form ---------------------------------------------------------


def test_self_division_gives_one():
    f = (Q - ONE_QZ) / ONE_QZ
    assert f / f == ONE_QZ


def test_gcd_cancellation():
    # (q^2 - 1)/(q - 1) normalises to q + 1
    num = MultivariatePolynomial(QZ, {(2, 0): 1, (0, 0): -1})
    den = MultivariatePolynomial(QZ, {(1, 0): 1, (0, 0): -1})
    assert RationalFunction(num, den) == Q + ONE_QZ
    # monomial denominator: (4q^3 + 6q^2 z)/(-2q z^2) = (-2q^2 - 3qz)/z^2
    f = RationalFunction(
        MultivariatePolynomial(QZ, {(3, 0): 4, (2, 1): 6}),
        MultivariatePolynomial(QZ, {(1, 2): -2}),
    )
    assert f.numerator.terms == {(2, 0): -2, (1, 1): -3}
    assert f.denominator.terms == {(0, 2): 1}
    # monomial numerator with a common power, content and a negative
    # coefficient: -6q^2 z/(4q^3 + 2qz) = -3qz/(2q^2 + z)
    f = RationalFunction(
        MultivariatePolynomial(QZ, {(2, 1): -6}),
        MultivariatePolynomial(QZ, {(3, 0): 4, (1, 1): 2}),
    )
    assert f.numerator.terms == {(1, 1): -3}
    assert f.denominator.terms == {(2, 0): 2, (0, 1): 1}


def test_denominator_sign_normalised():
    num = MultivariatePolynomial(QZ, {(0, 0): 1})
    den = MultivariatePolynomial(QZ, {(1, 0): -1})
    f = RationalFunction(num, den)
    assert f.denominator.leading_coefficient() > 0
    assert f == -(Q.inverse())


def test_fraction_coefficients_cleared():
    f = const(Fraction(3, 4))
    assert f.numerator.terms == {(0, 0): 3}
    assert f.denominator.terms == {(0, 0): 4}


def test_canonicalisation_idempotent():
    rng = random.Random(7)
    monomial_parts = [
        (Q * Q.scaled(2) + Q * Z.scaled(3)) / (Z * Z),
        (Q * Z).scaled(-3) / (Q * Q.scaled(2) + Z),
    ]
    for f in [random_rf(rng) for _ in range(40)] + monomial_parts:
        again = RationalFunction(f.numerator, f.denominator)
        assert again.numerator == f.numerator
        assert again.denominator == f.denominator


def test_mixed_variables_rejected():
    with pytest.raises(MixedVariablesError):
        Q + S
    with pytest.raises(MixedVariablesError):
        Z * U


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Q / RationalFunction.zero(QZ)


# -- field axioms on randomized inputs ---------------------------------------


def test_field_axioms_random():
    rng = random.Random(20240311)
    for _ in range(60):
        a, b, c = (random_rf(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == RationalFunction.zero(QZ)
        if not a.is_zero:
            assert a * a.inverse() == ONE_QZ


def test_pow_negative_exponent():
    f = Q + ONE_QZ
    assert f**-2 == (f * f).inverse()
    assert f**0 == ONE_QZ


_small_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-4, 4), max_size=3)


@settings(max_examples=100)
@given(st.sampled_from([QZ, SU]), _small_terms, _small_terms.filter(lambda t: any(t.values())), st.integers(-3, 4))
def test_pow_is_the_canonical_power(variables, num, den, k):
    # f**k is N^k / D^k taken as canonical without a gcd; the oracle is the
    # same power built with * and inverse(), reduced by the general
    # constructor's gcd engine
    f = RationalFunction(MultivariatePolynomial(variables, num), MultivariatePolynomial(variables, den))
    if f.is_zero and k < 0:
        with pytest.raises(ZeroDivisionError):
            f**k
        return
    base = f if k >= 0 else f.inverse()
    n = d = MultivariatePolynomial.one(variables)
    for _ in range(abs(k)):
        n, d = n * base.numerator, d * base.denominator
    p, expected = f**k, RationalFunction(n, d)
    assert (p.numerator, p.denominator) == (expected.numerator, expected.denominator)


# -- evaluation --------------------------------------------------------------


def test_monomial_products_match_general_constructor():
    # a product with a monomial ratio is reduced in closed form; check it
    # against the general constructor on the unreduced product
    rng = random.Random(314159)
    for variables in (QZ, SU):
        for _ in range(150):
            f = random_rf(rng, variables)
            e0, e1 = rng.randint(-3, 3), rng.randint(-3, 3)
            a = rng.choice((-1, 1)) * rng.randint(1, 12)
            b = rng.randint(1, 12)
            m = RationalFunction(
                MultivariatePolynomial.monomial(variables, (max(e0, 0), max(e1, 0)), a),
                MultivariatePolynomial.monomial(variables, (max(-e0, 0), max(-e1, 0)), b),
            )
            for left, right in ((f, m), (m, f)):
                p = left * right
                assert p == RationalFunction(
                    left.numerator * right.numerator, left.denominator * right.denominator
                )
                rebuilt = RationalFunction(p.numerator, p.denominator)
                assert rebuilt.numerator == p.numerator
                assert rebuilt.denominator == p.denominator


def test_eval_simple():
    assert (Q + ONE_QZ).evaluate((2, 0)) == 3


def test_eval_coordinate_function():
    assert Z.evaluate((2, 5)) == 5


def test_eval_pole():
    f = ONE_QZ / (Q - ONE_QZ)
    with pytest.raises(PoleError):
        f.evaluate((1, 0))


def test_eval_commutes_with_arithmetic():
    rng = random.Random(99)
    for _ in range(40):
        a = random_rf(rng)
        b = random_rf(rng)
        point = (Fraction(rng.randint(2, 9), rng.randint(1, 3)), rng.randint(2, 9))
        try:
            va, vb = a.evaluate(point), b.evaluate(point)
            vsum = (a + b).evaluate(point)
            vprod = (a * b).evaluate(point)
        except PoleError:
            continue
        assert vsum == va + vb
        assert vprod == va * vb


# -- the embedding -----------------------------------------------------------


def test_embed_q():
    assert embed_qz_to_su(Q) == S * S


def test_embed_z():
    # z maps to (s^2 - 1)/(1 - s^2 u^2)
    expected = (S * S - ONE_SU) / (ONE_SU - S * S * U * U)
    assert embed_qz_to_su(Z) == expected


def test_embed_qz_plus_one():
    # q*z + 1 maps to (s^2 (s^2 - 1) + (1 - s^2 u^2)) / (1 - s^2 u^2)
    s2 = S * S
    expected = (s2 * (s2 - ONE_SU) + (ONE_SU - s2 * U * U)) / (ONE_SU - s2 * U * U)
    assert embed_qz_to_su(Q * Z + ONE_QZ) == expected


def test_embed_z_numeric_spot_check():
    # at (s, u) = (2, 3): (4 - 1)/(1 - 36) = -3/35
    value = embed_qz_to_su(Z).evaluate((2, 3))
    assert value == Fraction(-3, 35)


def test_embed_is_ring_homomorphism():
    rng = random.Random(5150)
    for _ in range(30):
        a = random_rf(rng, max_terms=2)
        b = random_rf(rng, max_terms=2)
        assert embed_qz_to_su(a + b) == embed_qz_to_su(a) + embed_qz_to_su(b)
        assert embed_qz_to_su(a * b) == embed_qz_to_su(a) * embed_qz_to_su(b)


def test_embed_rejects_su_input():
    with pytest.raises(MixedVariablesError):
        embed_qz_to_su(S)


def test_embed_fast_reduction_matches_full_gcd():
    # the embedding cancels only the factors the substitution can introduce
    # (s by an exponent shift, s^2 - 1 by exact division); check it against
    # the general constructor, z-heavy denominators included
    rng = random.Random(271828)
    special = [
        Z.inverse(),
        (Q - ONE_QZ) / Z,
        (Q - ONE_QZ) / (Z * Z),
        Z / (Q * Z + ONE_QZ),
        (Q * Z - Z) / (Z + ONE_QZ),
        # a common power of s
        Q / (Z + ONE_QZ),
        Q**2 / ((Z + ONE_QZ) * (Q + Z + ONE_QZ)),
        # s^2 - 1 divides the numerator more often than the denominator
        (Q - ONE_QZ) ** 2 / Z,
        # numerator and denominator at different z-levels
        Z**3 / (Q + ONE_QZ),
        (Q + ONE_QZ) / Z**3,
    ]
    cases = special + [random_rf(rng) for _ in range(40)]
    for f in cases:
        fast = embed_qz_to_su(f)
        sq = S * S
        z_img = (sq - ONE_SU) / (ONE_SU - sq * U * U)
        slow_num = RationalFunction.zero(SU)
        for (eq, ez), c in f.numerator.terms.items():
            slow_num = slow_num + (S ** (2 * eq)) * (z_img**ez) * const(c, SU)
        slow_den = RationalFunction.zero(SU)
        for (eq, ez), c in f.denominator.terms.items():
            slow_den = slow_den + (S ** (2 * eq)) * (z_img**ez) * const(c, SU)
        assert fast == slow_num / slow_den
        # structural canonicality: rebuilding from parts is a fixed point
        rebuilt = RationalFunction(fast.numerator, fast.denominator)
        assert rebuilt.numerator == fast.numerator
        assert rebuilt.denominator == fast.denominator


# -- rendering ---------------------------------------------------------------


def test_rendering_fraction():
    f = (S**4 - S**2 + ONE_SU) / (S**2 * U)
    assert str(f) == "(s^4 - s^2 + 1)/(s^2*u)"


def test_rendering_zero_and_plain():
    assert str(RationalFunction.zero(QZ)) == "0"
    assert str(Q + ONE_QZ) == "q + 1"
    assert str(Q - Z) == "q - z"


def test_rendering_laurent():
    f = RationalFunction.from_laurent_terms(QZ, {(-2, 0): 1, (0, 0): -1})
    assert str(f) == "(-q^2 + 1)/q^2"


def test_from_laurent_terms_matches_arithmetic():
    f = RationalFunction.from_laurent_terms(QZ, {(-1, 1): 3, (2, 0): 1})
    assert f == Z.scaled(3) / Q + Q**2


def _formatted(poly: MultivariatePolynomial) -> str:
    """The formatter ``MultivariatePolynomial.__str__`` replaced, kept as its
    oracle: terms sorted by a graded-lex key function, and each monomial's
    text built anew."""
    if not poly.terms:
        return "0"
    var0, var1 = poly.variables
    pieces = []
    for (e0, e1), coeff in sorted(poly.terms.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]), reverse=True):
        factors = []
        if e0:
            factors.append(var0 if e0 == 1 else f"{var0}^{e0}")
        if e1:
            factors.append(var1 if e1 == 1 else f"{var1}^{e1}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(pieces)


_exponents = st.tuples(st.integers(0, 12), st.integers(0, 12))
_coefficients = st.one_of(st.sampled_from([1, -1]), st.integers(-(10**6), 10**6)).filter(bool)


@settings(max_examples=300)
@given(
    st.sampled_from([QZ, SU]),
    st.dictionaries(_exponents, _coefficients, max_size=12),
    st.one_of(st.none(), _coefficients),
)
def test_rendering_matches_the_previous_formatter(variables, terms, constant):
    # exponents 0-12, coefficients +-1 and others, with and without a
    # constant term, and the zero polynomial
    if constant is not None:
        terms[(0, 0)] = constant
    poly = MultivariatePolynomial(variables, terms)
    assert str(poly) == _formatted(poly)
