"""The trace components and both classes against tests/modp.py's
independent fold over GF(2^61 - 1), at points that hypothesis draws."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import modp  # tests/ is on sys.path under pytest's default import mode
from singskein import markov_class, parse, skein_class
from singskein.braid import exponent_sum
from singskein.oracle import trace_components


@st.composite
def word_texts(draw):
    """(text, strands): 2-12 strands, at most 12 crossings of either sign
    and at most 3 double points, so words on 7 strands or more are cut."""
    n = draw(st.integers(2, 12))
    letter = st.tuples(st.sampled_from("sS"), st.integers(1, n - 1))
    letters = draw(st.lists(letter, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        letters.insert(draw(st.integers(0, len(letters))), ("t", draw(st.integers(1, n - 1))))
    return " ".join(f"{kind}{i}" for kind, i in letters), n


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(word_texts(), st.integers(1, modp.P - 1), st.integers(0, modp.P - 1), st.integers(0, modp.P - 1))
def test_components_agree_with_the_fold_mod_p(word, q, z, rho):
    text, strands = word
    comps = trace_components(parse(text, strands))
    assert modp.components_at(comps, q, z, rho) == modp.value(text, strands, q, z, rho)


def test_the_check_refuses_a_wrong_component():
    # t1 s1 on 2 strands: C_0 = z and C_1 = (q - 1) z + q; either one
    # negated, or the two swapped, differs at a random point
    comps = trace_components(parse("t1 s1", 2))
    assert comps == [{(0, 1): 1}, {(1, 1): 1, (0, 1): -1, (1, 0): 1}]
    assert modp.check("t1 s1", 2, comps, random.Random(1))
    for wrong in ([{k: -v for k, v in comps[0].items()}, comps[1]], [comps[0], {k: -v for k, v in comps[1].items()}], comps[::-1]):
        assert not modp.check("t1 s1", 2, wrong, random.Random(1))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(word_texts(), st.integers(0, 2**32))
def test_classes_agree_with_the_fold_mod_p(word, seed):
    # check 2, the class over Q(q, z) against the fold, and the skein class
    # against the class over Q(q, z), each at a point drawn from the seed
    text, strands = word
    w = parse(text, strands)
    rng = random.Random(seed)
    coeffs = modp.class_terms(markov_class(w))
    assert modp.check(text, strands, trace_components(w), rng, coeffs)
    assert modp.skein_check(coeffs, modp.class_terms(skein_class(w)), strands, exponent_sum(w), rng)


def test_the_checks_refuse_two_coordinates_exchanged():
    # t1 t1 on 2 strands has X^2, XY and Y^2 coordinates; with those of X^2
    # and Y^2 exchanged (A and B swapped) in either class, check 2 or the
    # skein check differs at a random point
    w = parse("t1 t1", 2)
    comps = trace_components(w)
    coeffs, skein_coeffs = modp.class_terms(markov_class(w)), modp.class_terms(skein_class(w))
    assert set(coeffs) == set(skein_coeffs) == {(2, 0), (1, 1), (0, 2)}
    assert modp.check("t1 t1", 2, comps, random.Random(1), coeffs)
    assert modp.skein_check(coeffs, skein_coeffs, 2, 0, random.Random(1))
    swapped = [{**c, (2, 0): c[0, 2], (0, 2): c[2, 0]} for c in (coeffs, skein_coeffs)]
    assert not modp.check("t1 t1", 2, comps, random.Random(1), swapped[0])
    assert not modp.skein_check(swapped[0], skein_coeffs, 2, 0, random.Random(1))
    assert not modp.skein_check(coeffs, swapped[1], 2, 0, random.Random(1))
