"""Generator multiplication, word evaluation, and the Markov trace."""

import hashlib
import random
import time
from collections import Counter
from itertools import combinations_with_replacement, permutations
from math import factorial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from singskein import cli, hecke
from singskein.braid import SIGMA, SIGMA_INV, TAU, Generator, SingularBraidWord, _reduced, parse
from singskein.coeff import QZ, RationalFunction
from singskein.moves import R_INSERT, Conjugate, RelationMove
from singskein.oracle import (
    HeckeElement,
    SingularLetterError,
    _unpack_perm,
    evaluate_word,
    mul_by_generator,
    multiply,
    ocneanu_trace,
    permutation_trace,
    trace_components,
    trace_functional,
)
from singskein.packed import _digits, _width
from singskein.permutations import Permutation
from singskein.skein import skein_class, skein_triple_check

ONE = RationalFunction.one(QZ)
Q = RationalFunction.coordinate(QZ, "q")
Z = RationalFunction.coordinate(QZ, "z")


def element(strands, mapping):
    return HeckeElement(strands, mapping)


def s1(n=2):
    return Permutation.adjacent_transposition(n, 1)


# -- permutations -------------------------------------------------------------


def test_permutation_basics():
    p = Permutation((2, 3, 1))
    assert p.inverse() == Permutation((3, 1, 2))
    assert p.compose(p.inverse()).is_identity
    assert p.inversions() == 2
    assert p.largest_moved_point() == 3


def test_reduced_word_reconstructs():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 7)
        image = list(range(1, n + 1))
        rng.shuffle(image)
        p = Permutation(image)
        word = p.reduced_word()
        assert len(word) == p.inversions()
        rebuilt = Permutation.identity(n)
        for i in reversed(word):
            rebuilt = Permutation.adjacent_transposition(n, i).compose(rebuilt)
        assert rebuilt == p


def test_cycles():
    assert Permutation((2, 1, 3)).cycle_count() == 2
    assert Permutation((2, 3, 1)).cycle_count() == 1


# -- generator multiplication --------------------------------------------------


def test_identity_times_generator():
    h = mul_by_generator(HeckeElement.identity(2), 1)
    assert h == element(2, {s1(): ONE})


def test_quadratic_relation():
    # T_{s1} * T_1 = (q - 1) T_{s1} + q * 1
    h = mul_by_generator(element(2, {s1(): ONE}), 1)
    assert h == element(2, {s1(): Q - ONE, Permutation.identity(2): Q})


def test_inverse_generator_on_identity():
    # 1 * T_1^{-1} = q^{-1} T_{s1} + (q^{-1} - 1) * 1
    h = mul_by_generator(HeckeElement.identity(2), 1, sign=-1)
    qi = Q.inverse()
    assert h == element(2, {s1(): qi, Permutation.identity(2): qi - ONE})


def test_generator_index_out_of_range():
    with pytest.raises(ValueError):
        mul_by_generator(HeckeElement.identity(2), 2)


# -- word evaluation -------------------------------------------------------------


def test_evaluate_square():
    h = evaluate_word(parse("s1 s1", 2))
    assert h == element(2, {s1(): Q - ONE, Permutation.identity(2): Q})


def test_evaluate_inverse_pair():
    assert evaluate_word(parse("s1 S1", 2)) == HeckeElement.identity(2)
    assert evaluate_word(parse("S1 s1", 2)) == HeckeElement.identity(2)


def test_evaluate_braid_relation():
    assert evaluate_word(parse("s1 s2 s1", 3)) == evaluate_word(parse("s2 s1 s2", 3))


def test_evaluate_rejects_tau():
    with pytest.raises(SingularLetterError):
        evaluate_word(parse("t1", 2))


def test_multiply_matches_evaluation():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 4)
        la = [Generator(rng.choice((SIGMA, SIGMA_INV)), rng.randrange(1, n)) for _ in range(rng.randint(0, 5))]
        lb = [Generator(rng.choice((SIGMA, SIGMA_INV)), rng.randrange(1, n)) for _ in range(rng.randint(0, 5))]
        wa = SingularBraidWord(n, tuple(la))
        wb = SingularBraidWord(n, tuple(lb))
        ab = SingularBraidWord(n, tuple(la) + tuple(lb))
        assert multiply(evaluate_word(wa), evaluate_word(wb)) == evaluate_word(ab)


# -- the trace --------------------------------------------------------------------


def test_trace_identity():
    assert ocneanu_trace(HeckeElement.identity(3)) == ONE


def test_trace_single_transposition():
    assert permutation_trace(s1()) == Z


def test_trace_sigma_squared():
    # derived by hand from the quadratic relation: (q - 1) z + q
    value = ocneanu_trace(evaluate_word(parse("s1 s1", 2)))
    assert value == (Q - ONE) * Z + Q


def test_trace_sigma_inverse():
    # derived by hand: q^{-1} z + q^{-1} - 1
    value = ocneanu_trace(evaluate_word(parse("S1", 2)))
    assert value == Q.inverse() * Z + Q.inverse() - ONE


def test_trace_is_strand_count_independent():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 4)
        letters = tuple(
            Generator(rng.choice((SIGMA, SIGMA_INV)), rng.randrange(1, n))
            for _ in range(rng.randint(0, 8))
        )
        small = SingularBraidWord(n, letters)
        big = SingularBraidWord(n + 2, letters)
        assert ocneanu_trace(evaluate_word(small)) == ocneanu_trace(evaluate_word(big))


def test_trace_cyclicity():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 6)
        la = [Generator(rng.choice((SIGMA, SIGMA_INV)), rng.randrange(1, n)) for _ in range(rng.randint(0, 6))]
        lb = [Generator(rng.choice((SIGMA, SIGMA_INV)), rng.randrange(1, n)) for _ in range(rng.randint(0, 6))]
        ab = SingularBraidWord(n, tuple(la + lb))
        ba = SingularBraidWord(n, tuple(lb + la))
        assert ocneanu_trace(evaluate_word(ab)) == ocneanu_trace(evaluate_word(ba))


def test_markov_property():
    # appending a crossing on a fresh strand multiplies the trace by z,
    # its inverse by q^{-1} z + q^{-1} - 1
    rng = random.Random(41)
    z_minus = Q.inverse() * Z + Q.inverse() - ONE
    for _ in range(25):
        n = rng.randint(2, 5)
        letters = tuple(
            Generator(rng.choice((SIGMA, SIGMA_INV)), rng.randrange(1, n))
            for _ in range(rng.randint(0, 8))
        )
        base = ocneanu_trace(evaluate_word(SingularBraidWord(n, letters)))
        up = SingularBraidWord(n + 1, letters + (Generator(SIGMA, n),))
        down = SingularBraidWord(n + 1, letters + (Generator(SIGMA_INV, n),))
        assert ocneanu_trace(evaluate_word(up)) == Z * base
        assert ocneanu_trace(evaluate_word(down)) == z_minus * base


def test_trace_components_match_manual_expansion():
    # t1 s1 on 2 strands: deleting gives s1, resolving gives s1 s1
    comps = trace_components(parse("t1 s1", 2))
    assert RationalFunction.from_laurent_terms(QZ, comps[0]) == Z
    assert RationalFunction.from_laurent_terms(QZ, comps[1]) == (Q - ONE) * Z + Q


def test_trace_components_subset_semantics():
    # For t1 t1 the k = 0 component is tr(empty) = 1 (both letters deleted,
    # a single subset), k = 1 has two singleton subsets each giving s1,
    # k = 2 resolves both: s1 s1.
    comps = trace_components(parse("t1 t1", 2))
    assert RationalFunction.from_laurent_terms(QZ, comps[0]) == ONE
    assert RationalFunction.from_laurent_terms(QZ, comps[1]) == Z + Z
    assert RationalFunction.from_laurent_terms(QZ, comps[2]) == (Q - ONE) * Z + Q


def test_evaluate_word_respects_relation_moves():
    from singskein.moves import relation_move_candidates

    rng = random.Random(67)
    checked = 0
    while checked < 30:
        n = rng.randint(2, 5)
        letters = tuple(
            Generator(rng.choice((SIGMA, SIGMA_INV)), rng.randrange(1, n))
            for _ in range(rng.randint(2, 10))
        )
        w = SingularBraidWord(n, letters)
        moves = relation_move_candidates(w)
        if not moves:
            continue
        reference = evaluate_word(w)
        for move in moves:
            assert evaluate_word(move.apply(w)) == reference
            checked += 1


def test_evaluate_word_agrees_with_kernel():
    rng = random.Random(59)
    words = []
    for _ in range(30):
        n = rng.randint(2, 5)
        letters = tuple(
            Generator(rng.choice((SIGMA, SIGMA_INV)), rng.randrange(1, n))
            for _ in range(rng.randint(0, 10))
        )
        words.append(SingularBraidWord(n, letters))
    # 12-31 strands on the top indices n-3..n-1: the kernel's packed
    # permutations then use their highest fields, up to the 31-strand limit.
    # The trace is invariant under shifting every index, so the same word on
    # strands 1..4 gives a value that uses only the lowest fields.
    for n in (12, 16, 31, *rng.sample(range(13, 31), 5)):
        indices = [n - 3, n - 2, n - 1] + [rng.randrange(n - 3, n) for _ in range(rng.randint(0, 5))]
        rng.shuffle(indices)
        letters = tuple(Generator(rng.choice((SIGMA, SIGMA_INV)), i) for i in indices)
        words.append(SingularBraidWord(n, letters))
    for w in words:
        via_public = ocneanu_trace(evaluate_word(w))
        comps = trace_components(w)
        assert len(comps) == 1
        assert RationalFunction.from_laurent_terms(QZ, comps[0]) == via_public
        if w.strands >= 12:
            shift = w.strands - 4
            low = tuple(Generator(g.kind, g.index - shift) for g in w.letters)
            assert ocneanu_trace(evaluate_word(SingularBraidWord(4, low))) == via_public


def test_kernel_refuses_more_than_31_strands():
    # the kernel folds on at most 31 strands, the largest value of a 5-bit
    # field.  A field holds d_k <= k - 1, so 32 strands would still fit, but
    # not 33: the transposition (1 33) has d_33 = 32, which carries into the
    # field above; the refusal keeps one documented limit, far above the
    # CLI's 12-strand cap.  The kernel folds only the strands a word spans,
    # so s31 alone folds as s1 on 2 strands; s1 s31 spans all 32.
    assert permutation_trace(Permutation.adjacent_transposition(31, 30)) == Z
    with pytest.raises(ValueError):
        trace_components(SingularBraidWord(32, (Generator(SIGMA, 1), Generator(SIGMA, 31))))
    with pytest.raises(ValueError):
        permutation_trace(Permutation.adjacent_transposition(32, 31))


# -- exactness of the packed fold ---------------------------------------------------


@st.composite
def singular_words(draw):
    """2-5 strands, at most 10 letters, at most 3 double points, crossings
    three-to-one negative."""
    n = draw(st.integers(2, 5))
    index = st.integers(1, n - 1)
    kind = st.sampled_from((SIGMA_INV, SIGMA_INV, SIGMA_INV, SIGMA))
    letters = draw(st.lists(st.builds(Generator, kind, index), max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        letters.insert(draw(st.integers(0, len(letters))), Generator(TAU, draw(index)))
    return SingularBraidWord(n, tuple(letters))


def forced(w, mirror):
    """``trace_components`` with the orientation forced: as given or mirrored."""
    return hecke._trace(w.letters, w.strands, mirror)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(singular_words())
def test_packed_components_match_literal_expansion(w):
    d = w.degree
    expected = [trace_functional(w, k) for k in range(d + 1)]
    for comps in (trace_components(w), forced(w, False), forced(w, True)):
        assert len(comps) == d + 1
        for k, comp in enumerate(comps):
            value = RationalFunction.from_laurent_terms(QZ, comp)
            assert value.scaled(factorial(k) * factorial(d - k)) == expected[k]


@st.composite
def mixed_sign_words(draw):
    """2-6 strands, at most 14 letters, at most 3 double points, crossings
    positive or negative with equal odds."""
    n = draw(st.integers(2, 6))
    index = st.integers(1, n - 1)
    kind = st.sampled_from((SIGMA, SIGMA_INV))
    letters = draw(st.lists(st.builds(Generator, kind, index), max_size=11))
    for _ in range(draw(st.integers(0, 3))):
        letters.insert(draw(st.integers(0, len(letters))), Generator(TAU, draw(index)))
    return SingularBraidWord(n, tuple(letters))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mixed_sign_words())
# 12 strands: traces up to z^11, so mapping the mirror back takes binomials
# up to C(11, 5) = 462, beyond the strategy's 6 strands and z^5
@example(parse(" ".join(f"s{i}" for i in range(1, 12)), 12))
@example(parse(" ".join(f"S{i}" for i in range(1, 12)), 12))
@example(parse("t1 S2 s3 S4 S5 S6 S7 t8 S9 S10 S11 S6", 12))
def test_both_orientations_give_equal_components(w):
    assert forced(w, False) == forced(w, True)


# -- the step kernel against the oracle ------------------------------------------------

STEP_BITS = 12  # digit width of the step tests' packed coefficients
STEP_STRIDE = 4  # slots per power of q: resolution digits 0..3
STEP_Q = STEP_STRIDE * STEP_BITS


pack = hecke._pack_perm


def packed_poly(terms):
    """{(q-exponent, resolutions): coefficient} at q = 2^STEP_Q, r = 2^STEP_BITS."""
    return sum(c << (STEP_Q * e + STEP_BITS * r) for (e, r), c in terms.items())


def as_element(state, n):
    """A packed state as an oracle element, the resolution count r read as z."""
    terms = {}
    for w, p in state.items():
        image = _unpack_perm(w, n)
        digits = {divmod(slot, STEP_STRIDE): d for slot, d in _digits(p, STEP_BITS)}
        terms[Permutation(image)] = RationalFunction.from_laurent_terms(QZ, digits)
    return HeckeElement(n, terms)


def oracle_step(h, i, kind):
    """``_step``'s product by the oracle: T_i, q T_i^-1, or a double point,
    the identity plus r times that crossing."""
    crossing = mul_by_generator(h, i) if kind in (SIGMA, TAU) else mul_by_generator(h, i, -1).scaled(Q)
    return crossing if kind in (SIGMA, SIGMA_INV) else h + crossing.scaled(Z)


# (p_u, p_us) for an ascent u at i whose orbit gets a new coefficient that is
# a vanishing sum, each a multiple of a packed x:
CANCELLING = {
    SIGMA: lambda x: (x - (x << STEP_Q), x),  # us: p_u + (q - 1) p_us
    SIGMA_INV: lambda x: (x << STEP_Q, (x << STEP_Q) - x),  # u: (1 - q) p_u + q p_us
    TAU: lambda x: (-(x << (STEP_Q + STEP_BITS)), x),  # u: p_u + r q p_us
    hecke._TAU_NEG: lambda x: (x, -(x << STEP_BITS)),  # us: p_us + r p_u
}


@st.composite
def packed_steps(draw):
    """(strands, i, kind, state): up to 12 random terms on 2-5 strands, and
    up to 3 orbits {u, us} set to cancel in the product by the kind drawn."""
    n = draw(st.integers(2, 5))
    i = draw(st.integers(1, n - 1))
    kind = draw(st.sampled_from(tuple(CANCELLING)))
    coefficient = st.builds(
        packed_poly,
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 1)),
            st.integers(-3, 3).filter(bool),
            min_size=1,
            max_size=3,
        ),
    )
    perm = st.permutations(range(1, n + 1))
    state = {pack(image): draw(coefficient) for image in draw(st.lists(perm, max_size=12))}
    for image in draw(st.lists(perm, max_size=3)):
        image = list(image)
        if image[i - 1] > image[i]:
            image[i - 1], image[i] = image[i], image[i - 1]
        swapped = image[:]
        swapped[i - 1], swapped[i] = image[i], image[i - 1]
        state[pack(image)], state[pack(swapped)] = CANCELLING[kind](draw(coefficient))
    return n, i, kind, state


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(packed_steps())
def test_step_matches_the_oracle_and_stores_no_zero(case):
    n, i, kind, state = case
    new = hecke._step(dict(state), i, kind, STEP_Q, STEP_BITS)
    assert 0 not in new.values()
    assert as_element(new, n) == oracle_step(as_element(state, n), i, kind)


@pytest.mark.parametrize("kind", list(CANCELLING), ids=["sigma", "sigma_inv", "tau", "tau_neg"])
def test_step_drops_the_vanishing_orbit_sum(kind):
    # the orbit {1, s_1} on 2 strands, set to cancel: one term is left
    pu, pus = CANCELLING[kind](1)
    new = hecke._step({0: pu, pack((2, 1)): pus}, 1, kind, STEP_Q, STEP_BITS)
    assert len(new) == 1 and 0 not in new.values()
    assert as_element(new, 2) == oracle_step(as_element({0: pu, pack((2, 1)): pus}, 2), 1, kind)


@pytest.mark.parametrize("kind", list(CANCELLING), ids=["sigma", "sigma_inv", "tau", "tau_neg"])
def test_step_matches_the_oracle_on_all_of_s5(kind):
    # every index and every permutation of S_5: each alone, so that its
    # orbit partner is absent, and all 120 at once, so that every orbit is full
    images = permutations(range(1, 6))
    full = {pack(image): packed_poly({(0, 0): t + 1, (1, 1): t % 7 - 3}) for t, image in enumerate(images)}
    for i in range(1, 5):
        for state in [{w: p} for w, p in full.items()] + [full]:
            new = hecke._step(dict(state), i, kind, STEP_Q, STEP_BITS)
            assert 0 not in new.values()
            assert as_element(new, 5) == oracle_step(as_element(state, 5), i, kind)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mixed_sign_words())
# two of the rare words whose peel sums a term below the top strand to 0
# where a slice's terms merge with those peeled from the slice before it,
# at a permutation a later level peels again
@example(parse("s3 t1 s2 s4 s4 S3", 5))
@example(parse("S2 s3 s4 t1 S2 s3 s2 s4 s3 s4", 5))
def test_no_state_of_the_fold_or_the_peel_stores_a_zero(w):
    # every state _step takes or returns, the peel's Horner states included,
    # which the peel's merges build
    seen = []
    real = hecke._step

    def spy(state, i, kind, q_shift, bits):
        new = real(state, i, kind, q_shift, bits)
        seen.append(0 in state.values() or 0 in new.values())
        return new

    hecke._step = spy
    try:
        for mirror in (False, True):
            forced(w, mirror)
    finally:
        hecke._step = real
    assert not any(seen)


# -- the cyclic reduction before the fold ---------------------------------------------


@st.composite
def conjugated_words(draw):
    """A mixed-sign word conjugated by up to 3 crossings, with up to 3
    inverse pairs s_i^e s_i^-e inserted anywhere: letters the reduction can
    cancel, across the wrap or not."""
    w = draw(mixed_sign_words())
    n = w.strands
    index = st.integers(1, n - 1)
    sign = st.sampled_from((SIGMA, SIGMA_INV))
    by = draw(st.lists(st.builds(Generator, sign, index), max_size=3))
    w = Conjugate(SingularBraidWord(n, tuple(by))).apply(w)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(w.letters)))
        w = RelationMove(R_INSERT, at, index=draw(index), sign=draw(sign)).apply(w)
    return w


def spy_on_folds(monkeypatch):
    """The letters (as text) and the strand count of every ``_trace`` call."""
    seen = []
    real = hecke._trace

    def spy(letters, strands, mirror=False):
        seen.append((" ".join(g.token for g in letters), strands))
        return real(letters, strands, mirror)

    monkeypatch.setattr(hecke, "_trace", spy)
    return seen


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(mixed_sign_words(), conjugated_words()))
def test_reduced_fold_matches_the_unreduced_fold(w):
    # forced folds exactly the letters it is given, on all the word's strands
    assert trace_components(w) == forced(w, False)


@pytest.mark.parametrize(
    "text, kept",
    [
        ("s1 s3 S1", "s3"),  # across a far letter
        ("s2 t2 S2", "t2"),  # across a double point at the same index
        ("S1 s2 s1", "s2"),  # across the wrap
        ("s1 s2 S1", "s2"),  # across the wrap
        ("s1 s2 S1 s2 s1 S2", "s1 s2 S1 s2 s1 S2"),
        ("t1 s2 t1 S2", "t1 s2 t1 S2"),  # t1 does not commute with s2
        ("s1 s1 S1 s3 S1", "s3"),  # the nearest partner, then across s3
        ("s2 s1 S1 S2 t1", "t1"),  # a cancellation frees the next pair
        ("s1 s1 s2", "s1 s1 s2"),
    ],
)
def test_reduction_examples(text, kept):
    assert " ".join(g.token for g in _reduced(parse(text).letters)) == kept


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(mixed_sign_words(), conjugated_words()))
def test_components_are_the_same_for_every_rotation(w):
    # a rotation conjugates the closure, and it carries cancelling pairs
    # across the wrap, where only the reduction's second pass finds them
    expected = trace_components(w)
    for k in range(1, len(w.letters)):
        rotated = SingularBraidWord(w.strands, w.letters[k:] + w.letters[:k])
        assert trace_components(rotated) == expected, k


def test_fold_takes_the_reduction_on_the_strands_it_spans(monkeypatch):
    seen = spy_on_folds(monkeypatch)
    cases = {
        "s3 s5 S3": ("s1", 2),  # s5 alone, moved down to index 1
        "S4 s5 s4 t6": ("s1 t2", 3),
        "s2 s4 s3": ("s1 s3 s2", 4),
        "s1 S1": ("", 1),
        "": ("", 1),
    }
    for text, fold in cases.items():
        trace_components(parse(text, 8))
        assert seen.pop() == fold, text


def test_skein_check_legs_are_the_classes_when_w_reduces_across_the_wrap():
    # across the wrap s1 s2 S1 reduces to s2, but s1 s2 S1 s2 is not a
    # conjugate of s2 s2: each leg is the class of the whole word
    w = parse("s1 s2 S1", 3)
    tails = ((Generator(SIGMA, 2),), (Generator(SIGMA_INV, 2),), ())
    unreduced = [SingularBraidWord(3, w.letters + tail) for tail in tails]
    result = skein_triple_check(w, 2)
    assert result.holds
    assert (result.positive, result.negative, result.smoothed) == tuple(map(skein_class, unreduced))


def test_long_cancelling_words_reduce_quickly():
    # (s1 s3)^5000 (S3 S1)^5000 cancels to nothing, and s1^5000 s3^5000
    # S1^5000 to s3^5000, each S1 passing 5000 letters s3: every letter looks
    # only at its own index and the two next to it, so neither is quadratic
    start = time.perf_counter()
    w = parse(" ".join(["s1 s3"] * 5000 + ["S3 S1"] * 5000), 4)
    assert _reduced(w.letters) == ()
    assert trace_components(w) == [{(0, 0): 1}]
    ladder = parse(" ".join(["s1"] * 5000 + ["s3"] * 5000 + ["S1"] * 5000), 4)
    assert _reduced(ladder.letters) == parse(" ".join(["s3"] * 5000)).letters
    assert time.perf_counter() - start < 2.0


def test_packed_components_on_long_generator_runs():
    # Long runs of one block reach high q-powers, negative digits and, for
    # S1 and S2, a large q^#S shift; the mixed-sign s1 S2 grows coefficients
    # to about 2^52 at k = 40.
    # Each word is also folded in both forced orientations.
    rng = random.Random(71)
    for block, n in (("s1", 2), ("S1", 2), ("S1 S2", 3), ("s1 S2", 3)):
        for k in sorted({1, 2, 40, *rng.sample(range(3, 40), 4)}):
            w = parse(" ".join([block] * k), n)
            expected = ocneanu_trace(evaluate_word(w))
            for comps in (trace_components(w), forced(w, False), forced(w, True)):
                assert len(comps) == 1
                value = RationalFunction.from_laurent_terms(QZ, comps[0])
                assert value == expected, (block, k)


def seed4_word():
    """30 negative crossings and 6 double points on 10 strands: folded as
    given its state peaks at 188,784 permutations, as its mirror at 3,584."""
    rng = random.Random(4)
    letters = ["S" + str(rng.randrange(1, 10)) for _ in range(30)]
    for _ in range(6):
        letters.insert(rng.randint(0, len(letters)), f"t{rng.randrange(1, 10)}")
    return " ".join(letters)


def spy_on_orientation(monkeypatch):
    """The orientation of every word ``trace_components`` folds, in order."""
    seen = []
    real = hecke._trace

    def spy(letters, strands, mirror=False):
        seen.append(mirror)
        return real(letters, strands, mirror)

    monkeypatch.setattr(hecke, "_trace", spy)
    return seen


def test_orientation_rule_mirrors_only_mostly_negative_words(monkeypatch):
    seen = spy_on_orientation(monkeypatch)
    cases = {
        "": False,
        "t1 t2": False,
        "s1 S2": False,  # #S = #s keeps the word as given
        "s1 S2 t1 S1 s2": False,
        "s1 s2 s1 S2 t2": False,
        "S1 s2 S1": True,
        "S1 t1": True,
        seed4_word(): True,
    }
    for text, mirror in cases.items():
        trace_components(parse(text, 10))
        assert seen.pop() is mirror, text


def test_seed4_word_renders_pinned_digest_through_the_mirror(monkeypatch):
    # The digest was rendered with each orientation forced; as given the word
    # takes about 25 times the time and memory it takes mirrored.
    seen = spy_on_orientation(monkeypatch)
    args = cli.build_parser().parse_args(["--word", seed4_word(), "--format", "json"])
    text = cli.render_json(cli.run(args))
    assert seen == [True]
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "23bfaf2fb9f1d1c1ea7425764637efdb7ce5d3298a9d8a76e1eb521ba07266d5"


@pytest.mark.parametrize(
    "image, trace",
    [
        ((1, 2, 3), {(0, 0): 1}),
        ((2, 1, 3), {(0, 1): 1}),
        ((1, 3, 2), {(0, 1): 1}),
        ((2, 3, 1), {(0, 2): 1}),
        ((3, 1, 2), {(0, 2): 1}),
        ((3, 2, 1), {(1, 2): 1, (0, 2): -1, (1, 1): 1}),  # z tr(T_1^2)
    ],
)
def test_peel_base_is_the_trace_of_each_element_of_s3(image, trace):
    # the peel finishes every z-slice from these closed forms, over
    # (q-exponent, z-exponent); each against the coset recursion, and the
    # kernel's peel on 3 strands, where it is its base alone
    assert _reference_trace(Permutation(image), {}) == RationalFunction.from_laurent_terms(QZ, trace)
    bits = _width(3 ** hecke._peel_exponent(3))
    assert hecke._peel([{pack(image): 1}], 3, 1, False, bits, 0, 0) == [trace]


# -- the split at block indices -------------------------------------------------------


# the block (exponent sum, double points) that ``hecke._split`` cuts out for
# one lone letter of each kind
LONE = {SIGMA: (1, 0), SIGMA_INV: (-1, 0), TAU: (0, 1)}


@st.composite
def thin_words(draw):
    """(word, kinds): 7-8 strands with a lone s, a lone S and a lone t
    planted at three distinct indices, sometimes an unused inner index, and
    2-4 crossings of either sign at every other index, in a random order;
    ``kinds`` are the planted lone letters' kinds."""
    n = draw(st.integers(7, 8))
    indices = draw(st.permutations(range(1, n)))
    planted = dict(zip(indices, (SIGMA, SIGMA_INV, TAU)))
    unused = indices[3] if 1 < indices[3] < n - 1 and draw(st.booleans()) else None
    letters = [Generator(kind, i) for i, kind in planted.items()]
    sign = st.sampled_from((SIGMA, SIGMA_INV))
    for i in indices[3:]:
        if i != unused:
            letters += [Generator(draw(sign), i) for _ in range(draw(st.integers(2, 4)))]
    order = draw(st.permutations(range(len(letters))))
    return SingularBraidWord(n, tuple(letters[k] for k in order)), sorted(planted.values())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(thin_words())
def test_split_fold_matches_the_whole_fold_in_both_orientations(case):
    w, kinds = case
    letters, strands = hecke._compact(_reduced(w.letters))
    assume(strands >= hecke._SPLIT_STRANDS)  # no pair at an end index cancelled
    pieces, blocks = hecke._split(letters, strands)
    assert not Counter(LONE[k] for k in kinds) - Counter(blocks)  # each planted lone letter is cut out
    # no piece keeps a block index: each side is cut again until none is left
    assert not any(hecke._blocks([g.index for g in piece], 1, n - 1) for piece, n in pieces)
    comps = trace_components(w)
    for mirror in (False, True):
        assert comps == hecke._trace(letters, strands, mirror)


def test_a_piece_is_reduced_again_once_its_lone_letter_is_cut_out():
    # s3 is the lone letter; cut out, it leaves s2 s1 s2 S2 s1 s2 s1 below
    # it, whose s2 S2 now sit together and cancel, which s3 blocks in the
    # whole word: the piece is s2 s1 s1 s2 s1, 5 letters, not 7
    w = parse("s2 s1 s2 s3 S2 s1 s2 s1 s4 s5 s6 s4 s5 s6")
    letters, strands = hecke._compact(_reduced(w.letters))
    assert (letters, strands) == (w.letters, 7)
    pieces = [(parse("s1 s2 s3 s1 s2 s3").letters, 4), (parse("s2 s1 s1 s2 s1").letters, 3)]
    assert hecke._split(letters, strands) == (pieces, [LONE[SIGMA]])
    assert trace_components(w) == forced(w, False) == forced(w, True)


@pytest.mark.parametrize("strands, pieces", [(6, 1), (7, 2)])
def test_only_words_on_at_least_seven_strands_are_split(monkeypatch, strands, pieces):
    # one shape on each side of the gate: a lone S3 between two blocks
    top = " ".join(f"s{i}" for i in range(4, strands))
    w = parse(f"s1 s2 s1 s2 S3 {top} {top}")
    assert w.strands == strands
    expected = forced(w, False)
    seen = spy_on_folds(monkeypatch)
    assert trace_components(w) == expected
    assert len(seen) == pieces
    assert hecke._split(w.letters, strands)[1] == ([LONE[SIGMA_INV]] if pieces > 1 else [])


def test_lone_letters_alone_multiply_their_factors():
    # every index used once: no piece is folded, and the trace is the
    # product z^3 (q^-1 (z + 1) - 1)^2 (1 + r z)^2, here checked against the
    # whole fold
    w = parse("s1 S2 t3 s4 t5 S6 s7")
    pieces, blocks = hecke._split(*hecke._compact(_reduced(w.letters)))
    kinds = [SIGMA_INV, SIGMA_INV, TAU, TAU, SIGMA, SIGMA, SIGMA]
    assert pieces == [] and sorted(blocks) == sorted(LONE[k] for k in kinds)
    assert trace_components(w) == forced(w, False) == forced(w, True)


# every multiset of at most 4 letters from s_1, S_1 and t_1
BLOCK_LETTERS = [kinds for size in range(5) for kinds in combinations_with_replacement((SIGMA, SIGMA_INV, TAU), size)]


@pytest.mark.parametrize("kinds", BLOCK_LETTERS, ids=lambda kinds: "".join(g.token for g in (Generator(k, 1) for k in kinds)) or "empty")
def test_block_factor_is_the_whole_fold_of_its_letters(kinds):
    # the closed form alpha + beta z against the kernel's fold of the
    # block's letters on 2 strands, in both orientations
    letters = tuple(Generator(kind, 1) for kind in kinds)
    factor = hecke._block_factor(sum(kinds), kinds.count(TAU))
    for mirror in (False, True):
        assert factor == hecke._trace(letters, 2, mirror)


@st.composite
def block_words(draw):
    """(word, shapes): 7-8 strands, two rounds of one crossing of either
    sign at each index but two, and a block planted at each of those two:
    one of 2-3 letters at i_a, a crossing sign and perhaps a t, wrapping
    round the word's end, and one of s_i and t_i at i_b, 2-4 letters with
    both kinds, with letters at other indices at least 2 away from i_b
    between them.
    ``shapes`` are the planted blocks' (exponent sum, double points)."""
    n = draw(st.integers(7, 8))
    i_a, i_b = draw(st.permutations(range(1, n)))[:2]
    sign = st.sampled_from((SIGMA, SIGMA_INV))
    base = [Generator(draw(sign), i) for _ in range(2) for i in range(1, n) if i not in (i_a, i_b)]
    wrap = [draw(sign)] * draw(st.integers(1, 2)) + draw(st.sampled_from(([], [TAU])))
    wrap = draw(st.permutations(wrap + [wrap[0]]))
    mixed = draw(st.permutations([SIGMA, TAU] + draw(st.lists(st.sampled_from((SIGMA, TAU)), max_size=2))))
    far = [i for i in range(1, n) if abs(i - i_b) >= 2 and i != i_a]
    run = []
    for kind in mixed:
        if run and draw(st.booleans()):
            run.append(Generator(draw(sign), draw(st.sampled_from(far))))
        run.append(Generator(kind, i_b))
    at = draw(st.integers(0, len(base)))
    letters = [Generator(kind, i_a) for kind in wrap] + base[:at] + run + base[at:]
    cut = draw(st.integers(1, len(wrap) - 1))  # the wrapping block straddles the end
    letters = letters[cut:] + letters[:cut]
    shapes = [(sum(wrap), wrap.count(TAU)), (sum(mixed), mixed.count(TAU))]
    return SingularBraidWord(n, tuple(letters)), shapes


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(block_words())
def test_planted_blocks_are_cut_and_the_fold_matches_the_whole_fold(case):
    w, shapes = case
    letters, strands = hecke._compact(_reduced(w.letters))
    assume(strands >= hecke._SPLIT_STRANDS)
    blocks = hecke._split(letters, strands)[1]
    assert not Counter(shapes) - Counter(blocks)  # each planted block is cut out
    comps = trace_components(w)
    for mirror in (False, True):
        assert comps == hecke._trace(letters, strands, mirror)


def test_a_word_with_no_thin_index_is_cut_at_its_block():
    # every index is used at least twice, so no index is thin; the letters
    # at 1 and 2 are each in two runs, but s3 t3 s3 sit together between s2
    # and s4: the block T_3^2 (1 + r T_3) is cut out, and the letters below
    # and above it are folded as pieces of 3 and 4 strands
    w = parse("s1 s2 s3 t3 s3 s4 s5 s6 s1 s2 s4 s5 s6")
    letters, strands = hecke._compact(_reduced(w.letters))
    assert (letters, strands) == (w.letters, 7)
    assert min(Counter(g.index for g in letters).values()) == 2
    pieces = [(parse("s1 s2 s3 s1 s2 s3").letters, 4), (parse("s1 s2 s1 s2").letters, 3)]
    assert hecke._split(letters, strands) == (pieces, [(2, 1)])
    assert trace_components(w) == forced(w, False) == forced(w, True)


def test_a_word_is_cut_at_every_block_index_in_one_lap():
    # t1 s1 is a two-letter block at index 1, and S4 the only lone letter:
    # both are cut out in one lap, lowest first, and the stretches between
    # are s2 s3 s2 s3 and s5 s6 s5 s6, each a piece on 3 strands
    w = parse("t1 s1 s2 s3 s2 s3 S4 s5 s6 s5 s6")
    letters, strands = hecke._compact(_reduced(w.letters))
    assert (letters, strands) == (w.letters, 7)
    piece = (parse("s1 s2 s1 s2").letters, 3)
    assert hecke._split(letters, strands) == ([piece, piece], [(1, 1), (-1, 0)])
    assert trace_components(w) == forced(w, False) == forced(w, True)


def test_an_unused_index_is_cut_without_a_block():
    # index 3 is unused: the word is the split union of its two sides, and
    # the cut there adds no factor
    w = parse("s1 s2 s1 s2 s4 s5 s6 s4 s5 s6")
    letters, strands = hecke._compact(_reduced(w.letters))
    assert (letters, strands) == (w.letters, 7)
    pieces = [(parse("s1 s2 s3 s1 s2 s3").letters, 4), (parse("s1 s2 s1 s2").letters, 3)]
    assert hecke._split(letters, strands) == (pieces, [])
    assert trace_components(w) == forced(w, False) == forced(w, True)


# -- the peel against an independent coset recursion ---------------------------------


def _reference_trace(w, memo):
    """tr(T_w) from public operations only: with m the largest moved point and
    j = w(m), T_w = T_{s_j ... s_{m-1}} T_c for c fixing m, and
    tr(T_w) = z * tr(T_{s_j ... s_{m-2}} T_c) by the Markov property."""
    hit = memo.get(w)
    if hit is not None:
        return hit
    n, m = w.size, w.largest_moved_point()
    if m == 0:
        return ONE
    j = w(m)
    left = Permutation.identity(n)
    for i in range(j, m):
        left = left.right_multiplied(i)
    c = left.inverse().compose(w)
    assert c(m) == m
    t_c = HeckeElement(n, {c: ONE})
    full = SingularBraidWord(n, tuple(Generator(SIGMA, i) for i in range(j, m)))
    assert multiply(evaluate_word(full), t_c) == HeckeElement(n, {w: ONE})
    v = SingularBraidWord(n, full.letters[:-1])
    total = RationalFunction.zero(QZ)
    for u, coeff in multiply(evaluate_word(v), t_c).terms.items():
        total = total + coeff * _reference_trace(u, memo)
    memo[w] = value = Z * total
    return value


def test_permutation_trace_matches_coset_recursion():
    memo = {}
    for n in range(1, 6):
        for p in permutations(range(1, n + 1)):
            w = Permutation(p)
            assert permutation_trace(w) == _reference_trace(w, memo), p
    rng = random.Random(83)
    for _ in range(40):
        image = list(range(1, 8))
        rng.shuffle(image)
        w = Permutation(image)
        assert permutation_trace(w) == _reference_trace(w, memo), image


def test_split_lemma_reads_the_coset_off_the_fields():
    # the peel's split of w with largest moved point m and j = w(m):
    # w = L_j c with L_j = s_j ... s_{m-1} and c = L_j^-1 w fixing m.  The
    # top field is m - j and the fields below it are c's, as L_j^-1 keeps
    # the order of w(1..m-1); the fields sum to w's length.  Every w on
    # 2-7 points, and for every m up to the kernel's 31 strands j = 1,
    # j = m - 1, the reversal and random permutations moving m.
    def check(image):
        m, w = len(image), pack(image)
        j = image[-1]
        c = [v - 1 if v > j else v for v in image[:-1]]
        assert (w.bit_length() + 4) // 5 == m
        assert w >> (5 * (m - 1)) == m - j
        assert w & ((1 << (5 * (m - 1))) - 1) == pack(c)
        assert sum((w >> (5 * k)) & 31 for k in range(m)) == Permutation(image).inversions()
        assert _unpack_perm(w, m) == tuple(image)

    checked = 0
    for n in range(2, 8):
        for image in permutations(range(1, n + 1)):
            if image[-1] != n:
                check(image)
                checked += 1
    assert checked == 5039
    rng = random.Random(31)
    for m in range(2, 32):
        cases = [[*range(2, m + 1), 1], [*range(1, m - 1), m, m - 1], list(range(m, 0, -1))]
        while len(cases) < 12:
            image = list(range(1, m + 1))
            rng.shuffle(image)
            if image[-1] != m:
                cases.append(image)
        for image in cases:
            check(image)
