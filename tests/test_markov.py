"""Desingularisation maps, trace functionals, pairing, and class coordinates."""

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from singskein.braid import (
    Generator,
    SIGMA,
    SIGMA_INV,
    SingularBraidWord,
    TAU,
    parse,
)
from singskein.coeff import QZ, MultivariatePolynomial, RationalFunction
from singskein.braid import exponent_sum
from singskein import markov
from singskein.oracle import (
    _P_ONE,
    _P_W,
    _P_Z,
    FormalWordSum,
    _expand,
    basis_word,
    class_product,
    desing_delete,
    desing_resolve,
    g0_apply,
    g1_apply,
    markov_class_of_sum,
    pairing_matrix,
    stack,
    subset_expansion,
    trace_components,
    trace_functional,
    trace_vector,
    with_strands,
)
from singskein.packed import PackedProduct, _digits, _pack, _packed_width
from singskein.linalg import determinant, solve
from singskein.skein import skein_class, skein_triple_check
from singskein.markov import (
    HARD_MAX_DEGREE,
    CapExceededError,
    DegreeError,
    MarkovClass,
    check_caps,
    markov_class,
    _joint_numerators,
    _over_det_power,
)

from forwarding import forwarding, frozen_imports
from words import crossing_words

ONE = RationalFunction.one(QZ)
Q = RationalFunction.coordinate(QZ, "q")
Z = RationalFunction.coordinate(QZ, "z")


def fws(mapping):
    return FormalWordSum.from_terms(
        [(parse(text, strands), mult) for (text, strands), mult in mapping.items()]
    )


def random_singular_word(rng, strands, length, degree):
    letters = [
        Generator(rng.choice((SIGMA, SIGMA, SIGMA_INV)), rng.randrange(1, strands))
        for _ in range(length - degree)
    ]
    for _ in range(degree):
        letters.insert(
            rng.randint(0, len(letters)), Generator(TAU, rng.randrange(1, strands))
        )
    return SingularBraidWord(strands, tuple(letters))


# -- desingularisation maps ----------------------------------------------------


def test_desing_delete_single():
    assert desing_delete(parse("t1 s1", 2)) == fws({("s1", 2): 1})


def test_desing_delete_merges_duplicates():
    assert desing_delete(parse("t1 t1", 2)) == fws({("t1", 2): 2})


def test_desing_delete_positional():
    assert desing_delete(parse("t1 s2 t1", 3)) == fws({("s2 t1", 3): 1, ("t1 s2", 3): 1})


def test_desing_resolve():
    assert desing_resolve(parse("t1", 2)) == fws({("s1", 2): 1})
    assert desing_resolve(parse("t1 t2", 3)) == fws({("s1 t2", 3): 1, ("t1 s2", 3): 1})
    assert desing_resolve(parse("t1 s1", 2)) == fws({("s1 s1", 2): 1})


def test_desing_degree_zero_errors():
    with pytest.raises(DegreeError):
        desing_delete(parse("s1", 2))
    with pytest.raises(DegreeError):
        desing_resolve(parse("", 1))


# -- subset expansion ------------------------------------------------------------


def test_subset_expansion_trivia():
    assert subset_expansion(parse("t1", 2), 0) == fws({("", 2): 1})
    assert subset_expansion(parse("t1", 2), 1) == fws({("s1", 2): 1})


def test_subset_expansion_choose_one_of_two():
    assert subset_expansion(parse("t1 t2", 3), 1) == fws({("s1", 3): 1, ("s2", 3): 1})


def test_subset_expansion_multiplicities():
    # d = 3, k = 1: each of the three singleton subsets carries 1! * 2! = 2
    out = subset_expansion(parse("t1 t1 t1", 2), 1)
    assert out == fws({("s1", 2): 6})


def test_subset_expansion_range_check():
    with pytest.raises(DegreeError):
        subset_expansion(parse("t1", 2), 2)


def test_subset_expansion_matches_iterated_one_step_maps():
    # composing delete after resolve in either order, then tracing, agrees
    # with the k = 1 expansion of a degree-2 word (times the multiplicities)
    rng = random.Random(77)
    for _ in range(10):
        w = random_singular_word(rng, strands=rng.randint(2, 4), length=6, degree=2)
        via_subsets = trace_functional(w, 1)
        total = RationalFunction.zero(QZ)
        for mid, m1 in desing_resolve(w).items():
            for final, m2 in desing_delete(mid).items():
                total = total + trace_functional(final, 0).scaled(m1 * m2)
        assert via_subsets == total
        total_other = RationalFunction.zero(QZ)
        for mid, m1 in desing_delete(w).items():
            for final, m2 in desing_resolve(mid).items():
                total_other = total_other + trace_functional(final, 0).scaled(m1 * m2)
        assert via_subsets == total_other


# -- trace functionals -----------------------------------------------------------


def test_trace_functional_degree_one_examples():
    t1 = parse("t1", 2)
    assert trace_functional(t1, 0) == ONE
    assert trace_functional(t1, 1) == Z
    assert trace_functional(parse("t1 s1", 2), 1) == (Q - ONE) * Z + Q


def test_trace_vector_matches_trace_functional():
    rng = random.Random(13)
    for _ in range(15):
        d = rng.randint(0, 3)
        w = random_singular_word(
            rng, strands=rng.randint(2, 4), length=rng.randint(d, d + 5), degree=d
        )
        tv = trace_vector(w)
        assert tv.degree == d
        for k in range(d + 1):
            assert tv.values[k] == trace_functional(w, k)


# -- basis words and pairing -------------------------------------------------------


def test_basis_word_examples():
    assert basis_word(0, 0) == parse("", 1)
    assert basis_word(1, 1) == parse("t1", 2)
    assert basis_word(1, 0) == parse("t1 s1", 2)
    assert basis_word(2, 1) == parse("t1 t3 s3", 4)


def test_pairing_matrix_degree_zero():
    assert pairing_matrix(0) == [[ONE]]


def test_pairing_matrix_degree_one():
    expected = [[ONE, Z], [Z, (Q - ONE) * Z + Q]]
    assert pairing_matrix(1) == expected


def test_pairing_matrix_degree_one_determinant():
    det = determinant(pairing_matrix(1))
    assert det == -(Z * Z - (Q - ONE) * Z - Q)


def test_pairing_matrix_degree_two_nonsingular():
    m = pairing_matrix(2)
    assert len(m) == 3
    assert not determinant(m).is_zero


def trace_built_pairing(d):
    columns = [trace_vector(basis_word(d, d - c)).values for c in range(d + 1)]
    return [[columns[c][k] for c in range(d + 1)] for k in range(d + 1)]


def test_pairing_matrix_matches_trace_built_columns():
    # the closed form against the traces of the explicit basis words
    for d in range(HARD_MAX_DEGREE + 1):
        assert pairing_matrix(d) == trace_built_pairing(d)


# -- class coordinates --------------------------------------------------------------


def test_markov_class_of_generators():
    x = MarkovClass.monomial(1, 0)
    y = MarkovClass.monomial(0, 1)
    assert markov_class(parse("t1", 2)) == x
    assert markov_class(parse("t1 s1", 2)) == y


def test_markov_class_stable_under_strand_extension():
    assert markov_class(with_strands(parse("t1", 2), 3)) == MarkovClass.monomial(1, 0)


def test_markov_class_degree_zero_is_trace():
    expected = ((Q - ONE) * (Q - ONE) + Q) * Z + Q * (Q - ONE)
    assert markov_class(parse("s1 s1 s1", 2)) == MarkovClass.constant(expected)


def test_markov_class_of_stacked_generators():
    # the 4-strand stack of t1 and t1 s1 has class X*Y
    w = stack(parse("t1", 2), parse("t1 s1", 2))
    assert markov_class(w) == MarkovClass.monomial(1, 1)


def test_markov_class_matches_pairing_solve():
    # the change of variables against solving the trace-built pairing system
    rng = random.Random(2043)
    for _ in range(20):
        d = rng.randint(0, 3)
        w = random_singular_word(
            rng, strands=rng.randint(2, 4), length=rng.randint(d, d + 5), degree=d
        )
        coords = solve(trace_built_pairing(d), trace_vector(w).values)
        expected = MarkovClass({(d - c, c): coords[c] for c in range(d + 1)})
        assert markov_class(w) == expected


def test_markov_class_caps():
    wide = SingularBraidWord(13, ())
    with pytest.raises(CapExceededError):
        markov_class(wide)
    deep = SingularBraidWord(2, tuple(Generator(TAU, 1) for _ in range(9)))
    with pytest.raises(CapExceededError):
        markov_class(deep)
    with pytest.raises(CapExceededError):
        check_caps(parse("t1 t1", 2), max_degree=1)


# -- operators ------------------------------------------------------------------------


def test_g0_examples():
    xy = MarkovClass.monomial(1, 1)
    y2 = MarkovClass.monomial(0, 2)
    assert g0_apply(xy) == MarkovClass({(0, 1): ONE, (1, 0): Z})
    assert g0_apply(y2) == MarkovClass({(0, 1): Z + Z})


def test_g1_example():
    x = MarkovClass.monomial(1, 0)
    assert g1_apply(x) == MarkovClass.constant(Z)


def test_g_operator_degree_errors():
    with pytest.raises(DegreeError):
        g0_apply(MarkovClass.constant(ONE))
    with pytest.raises(DegreeError):
        g1_apply(MarkovClass({(1, 0): ONE, (0, 0): ONE}))


def test_g_operators_match_word_level_maps():
    rng = random.Random(1009)
    for _ in range(12):
        d = rng.randint(1, 3)
        w = random_singular_word(
            rng, strands=rng.randint(2, 4), length=rng.randint(d, d + 4), degree=d
        )
        cls = markov_class(w)
        assert markov_class_of_sum(desing_delete(w)) == g0_apply(cls)
        assert markov_class_of_sum(desing_resolve(w)) == g1_apply(cls)


def test_g_operators_commute():
    rng = random.Random(1013)
    for _ in range(10):
        d = rng.randint(2, 3)
        w = random_singular_word(rng, strands=3, length=d + 3, degree=d)
        cls = markov_class(w)
        assert g0_apply(g1_apply(cls)) == g1_apply(g0_apply(cls))


# -- algebra structure ------------------------------------------------------------------


def test_class_product_basics():
    x = MarkovClass.monomial(1, 0)
    y = MarkovClass.monomial(0, 1)
    one = MarkovClass.constant(ONE)
    assert class_product(x, y) == MarkovClass.monomial(1, 1)
    assert class_product(x.scaled(Z), one) == x.scaled(Z)


def test_markov_class_multiplicative_over_stack():
    rng = random.Random(2027)
    for _ in range(8):
        a = random_singular_word(rng, strands=rng.randint(2, 3), length=4, degree=rng.randint(0, 1))
        b = random_singular_word(rng, strands=rng.randint(2, 3), length=4, degree=rng.randint(0, 2))
        assert markov_class(stack(a, b)) == class_product(markov_class(a), markov_class(b))


def test_markov_class_invariant_under_stack_commutation():
    rng = random.Random(2029)
    for _ in range(6):
        a = random_singular_word(rng, strands=2, length=3, degree=1)
        b = random_singular_word(rng, strands=rng.randint(2, 3), length=3, degree=rng.randint(0, 1))
        assert markov_class(stack(a, b)) == markov_class(stack(b, a))


def test_shuffle_braid_conjugation_swaps_stack_order():
    # conjugating stack(b, a) by the block-shuffle braid gives a word with
    # the same class as stack(a, b)
    from singskein.moves import Conjugate
    from singskein.oracle import shuffle_braid

    rng = random.Random(2031)
    for _ in range(5):
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        a = random_singular_word(rng, na, 3, 1) if na >= 2 else parse("", 1)
        b = random_singular_word(rng, nb, 2, 0) if nb >= 2 else parse("", 1)
        shuffled = Conjugate(shuffle_braid(na, nb)).apply(stack(b, a))
        assert markov_class(shuffled) == markov_class(stack(a, b))


def test_trace_functional_equals_iterated_one_step_maps():
    # resolving k times then deleting d-k times, over all orders, reproduces
    # the weighted subset expansion
    rng = random.Random(2037)
    for _ in range(8):
        d = rng.randint(1, 3)
        w = random_singular_word(rng, rng.randint(2, 4), d + 3, d)
        for k in range(d + 1):
            sums = FormalWordSum.from_terms([(w, 1)])
            for _ in range(k):
                sums = FormalWordSum.from_terms(
                    [
                        (out, m1 * m2)
                        for mid, m1 in sums.items()
                        for out, m2 in desing_resolve(mid).items()
                    ]
                )
            for _ in range(d - k):
                sums = FormalWordSum.from_terms(
                    [
                        (out, m1 * m2)
                        for mid, m1 in sums.items()
                        for out, m2 in desing_delete(mid).items()
                    ]
                )
            total = RationalFunction.zero(QZ)
            for term, mult in sums.items():
                total = total + trace_functional(term, 0).scaled(mult)
            assert total == trace_functional(w, k)


def test_trace_vector_invariant_under_strand_preserving_moves():
    from singskein.moves import CyclicShift, relation_move_candidates

    rng = random.Random(2041)
    for _ in range(10):
        d = rng.randint(0, 2)
        w = random_singular_word(rng, rng.randint(2, 4), rng.randint(2, 8), d)
        reference = trace_vector(w)
        for move in relation_move_candidates(w):
            assert trace_vector(move.apply(w)) == reference
        if w.letters:
            assert trace_vector(CyclicShift(1).apply(w)) == reference


def _packed(laurent, d, ms=(0,)):
    """A Laurent numerator over D^d as ``_over_det_power``'s (rows, q0, width),
    at the width proved for rendering it with z^m for each m in ms."""
    q0 = min(e0 for e0, _ in laurent)
    q_top = max(e0 for e0, _ in laurent)
    z_top = max(e1 for _, e1 in laurent)
    l1 = sum(map(abs, laurent.values()))
    width = max(_packed_width(l1, z_top, q_top - min(q0, 0), d, m) for m in ms)
    return _pack(laurent, q0, width), q0, width


def test_over_det_power_matches_general_constructor():
    # numerators carrying (z - q)^i (z + 1)^j with i, j up to d + 2, past the
    # limit of d divisions each, and a Laurent shift in q; a second pass takes
    # cofactor coefficients near 2^70, so packed digits span machine words
    rng = random.Random(4242)
    z_minus_q = MultivariatePolynomial(QZ, {(0, 1): 1, (1, 0): -1})
    z_plus_1 = MultivariatePolynomial(QZ, {(0, 1): 1, (0, 0): 1})
    det = -(z_minus_q * z_plus_1)
    for scale in (1, 2**70):
        for d in range(4):
            for i in range(d + 3):
                for j in range(d + 3):
                    while True:  # a cofactor nonzero at z = q and at z = -1
                        terms = {
                            (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4 * scale, 4 * scale)
                            for _ in range(3)
                        }
                        f = MultivariatePolynomial(QZ, terms)
                        if f.evaluate((3, 3)) and f.evaluate((3, -1)):
                            break
                    num = f * z_minus_q**i * z_plus_1**j
                    shift = rng.randint(-3, 2)
                    laurent = {(e0 + shift, e1): c for (e0, e1), c in num.terms.items()}
                    p = max(0, -shift)
                    shifted = {(e0 + shift + p, e1): c for (e0, e1), c in num.terms.items()}
                    expected = RationalFunction(
                        MultivariatePolynomial(QZ, shifted),
                        det**d * MultivariatePolynomial.monomial(QZ, (p, 0)),
                    )
                    got = _over_det_power(*_packed(laurent, d), d).in_qz()
                    assert got.numerator == expected.numerator
                    assert got.denominator == expected.denominator


def test_every_name_the_acceptance_tests_and_the_benchmark_import_resolves():
    # every name they import from a singskein module resolves; one that the
    # module does not define is its home's own object, read through the
    # module's __getattr__
    import importlib
    import sys

    frozen = frozen_imports()
    assert {("singskein.markov", "pairing_matrix"), ("singskein.braid", "RelationMove")} <= frozen
    for module_name, name in sorted(frozen):
        module = importlib.import_module(module_name)
        assert hasattr(module, name), (module_name, name)
        if name not in vars(module):
            value = getattr(module, name)
            assert value.__module__ != module_name
            assert vars(sys.modules[value.__module__])[name] is value, (module_name, name)


def test_oracle_names_still_resolve_from_their_old_modules():
    # the spec is read off the acceptance tests and the benchmark: no module
    # forwards a name defined anywhere in the package that they do not
    # import from it, nor a name defined nowhere
    import importlib

    spec = forwarding()
    assert {"HeckeElement", "multiply", "permutation_trace"} <= spec["singskein.hecke"][1]
    assert "pairing_matrix" in spec["singskein.markov"][1]
    for module_name, (forwarded, expected) in spec.items():
        assert forwarded == expected, module_name
        if forwarded:
            # a missing name is reported against the module it was read from
            with pytest.raises(AttributeError) as exc:
                getattr(importlib.import_module(module_name), "no_such_name")
            assert str(exc.value) == f"module {module_name!r} has no attribute 'no_such_name'"


def _table_numerators(comps, d, shift):
    """sum_k C_k T_kb for each coordinate (d - b, b), with T_kb the B^b
    coefficient of (w - zB)^(d-k) (B - z)^k, all in MultivariatePolynomial
    arithmetic, everything times q^shift so that no exponent is negative."""
    table = [_expand([(_P_W, -_P_Z)] * (d - k) + [(-_P_Z, _P_ONE)] * k) for k in range(d + 1)]
    polys = [
        MultivariatePolynomial(QZ, {(eq + shift, ez): v for (eq, ez), v in comp.items()})
        for comp in comps
    ]
    out = {}
    for b in range(d + 1):
        total = MultivariatePolynomial.zero(QZ)
        for k, poly in enumerate(polys):
            total = total + poly * table[k][b]
        out[(d - b, b)] = total
    return out


def _decoded(value, layout, d, shift):
    """A packed int of numerators at this layout, read digit by digit into
    one MultivariatePolynomial per nonzero coordinate, times q^shift."""
    q0, width, z_stride, b_stride = layout
    return {
        (d - b, b): MultivariatePolynomial(QZ, {
            (q0 + shift + eq, ez): v
            for ez, row in _digits(n_b, z_stride)
            for eq, v in _digits(row, width)
        })
        for b, n_b in _digits(value, b_stride)
    }


def _nonzero(polys):
    return {ab: poly for ab, poly in polys.items() if not poly.is_zero}


# a word with crossings positive or negative with equal odds, so that words
# are folded in both orientations (as given or as their mirror); and a
# crossing site, drawn after the word
WORD_AND_SITE = crossing_words(strands=(2, 6), crossings=6, double_points=4).flatmap(
    lambda w: st.tuples(st.just(w), st.integers(1, w.strands - 1))
)


# 12 strands: z-degree up to 11 + d; the first is folded as given, the second as its mirror
_TWELVE_STRANDS = ("t1 s2 s3 s4 s5 s6 s7 t8 s9 s10 s11 S6", "t1 S2 s3 S4 S5 S6 S7 t8 S9 S10 S11 S6")


@settings(max_examples=150)
@given(WORD_AND_SITE)
# degree 8, the hard cap: every F0^(8-k) F1^k of the Horner steps
@example((parse(" ".join(["t1"] * 8), 2), 1))
@example((parse(_TWELVE_STRANDS[0], 12), 11))
@example((parse(_TWELVE_STRANDS[1], 12), 6))
def test_packed_numerators_match_the_substitution_table(case):
    w, i = case
    d = w.degree
    # the skein check's three words w s_i, w S_i and w
    tails = ((Generator(SIGMA, i),), (Generator(SIGMA_INV, i),), ())
    words = tuple(SingularBraidWord(w.strands, w.letters + t) for t in tails)
    comp_sets = [trace_components(v) for v in words]
    shift = -min([0] + [eq for comps in comp_sets for comp in comps for eq, _ in comp])
    p_t, n_t, s_t = (_table_numerators(comps, d, shift) for comps in comp_sets)
    folds = [markov._folded(v) for v in words]  # products for words that split
    layout, (num,) = _joint_numerators(folds[2:], w)
    assert _decoded(num, layout, d, shift) == _nonzero(s_t)
    # the sums num_P - q num_N and (q - 1) num_S at the one layout of the
    # check's three numerators
    layout, (pos, neg, smo) = _joint_numerators(folds, w)
    for packed, table in ((pos, p_t), (neg, n_t), (smo, s_t)):
        assert _decoded(packed, layout, d, shift) == _nonzero(table)
    q = MultivariatePolynomial.variable(QZ, "q")
    width = layout[1]
    sums = [
        (pos - (neg << width), {ab: p_t[ab] - q * n_t[ab] for ab in p_t}),
        ((smo << width) - smo, {ab: q * s_t[ab] - s_t[ab] for ab in s_t}),
    ]
    for value, expected in sums:
        assert _decoded(value, layout, d, shift) == _nonzero(expected)


@settings(max_examples=150)
@given(WORD_AND_SITE)
@example((parse(_TWELVE_STRANDS[0], 12), 11))
@example((parse(_TWELVE_STRANDS[1], 12), 6))
def test_skein_check_legs_are_the_classes_of_its_three_words(case):
    # the relation holds at any site, so only the legs tell whether the check
    # was built at i, with s_i on the positive leg and S_i on the negative
    w, i = case
    result = skein_triple_check(w, i)
    assert result.holds
    positive, negative = (
        SingularBraidWord(w.strands, w.letters + (Generator(kind, i),)) for kind in (SIGMA, SIGMA_INV)
    )
    assert result.positive == skein_class(positive)
    assert result.negative == skein_class(negative)
    assert result.smoothed == skein_class(w)


@settings(max_examples=100)
@given(crossing_words(strands=(7, 12), crossings=lambda n: (n - 1, 2 * n), double_points=3))
def test_the_numerators_width_holds_a_split_words_product(w):
    # the width lemma in _layout: l1 is at least the sum of the product's
    # per-k L1 bounds, and _packed_width only multiplies it by factors of at
    # least 1, so W is never narrower than the product's width, and the
    # product is re-laid out at W
    product = markov._folded(w)
    assume(isinstance(product, PackedProduct))
    q0, width, z_stride, _ = markov._layout([product], w)
    assert width >= product.width
    assert len(product.relaid(q0, width, z_stride)) == w.degree + 1


def test_numerator_examples_cover_both_orientations():
    assert [exponent_sum(parse(text, 12)) < 0 for text in _TWELVE_STRANDS] == [False, True]
