"""The one decoder of the packed format: balanced digits back out of an int."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singskein.packed import _digits, _low_digit, _product, _width


@st.composite
def digit_vectors(draw):
    """(width, digits): balanced digits with |d| <= 2^(width-1) - 1, the two
    extremes drawn often."""
    width = draw(st.integers(min_value=2, max_value=70))
    top = (1 << (width - 1)) - 1
    digit = st.one_of(st.sampled_from([top, -top, 0]), st.integers(-top, top))
    return width, draw(st.lists(digit, max_size=12))


def _packed(digits, width):
    return sum(d << (width * i) for i, d in enumerate(digits))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(digit_vectors())
def test_digits_returns_exactly_the_nonzero_digits(case):
    width, digits = case
    value = _packed(digits, width)
    expected = [(i, d) for i, d in enumerate(digits) if d]
    assert list(_digits(value, width)) == expected
    if expected:
        assert _low_digit([value], width) == expected[0][0]


def test_digit_bound_is_strict():
    # a digit of 2^(W-1) reads as -2^(W-1) with a carry into the next digit
    width = 4
    value = _packed([1 << (width - 1)], width)
    assert list(_digits(value, width)) == [(0, -8), (1, 1)]


def test_a_width_below_two_is_refused_not_looped():
    # at width 1 the balanced digits are 0 and -1, so v = (v - digit) >> 1
    # maps 1 to 1 and the generator would yield -1 forever; next() keeps the
    # test finite either way.  Zero has no digits at any width.
    with pytest.raises(ValueError):
        next(_digits(1, 1))
    with pytest.raises(ValueError):
        next(_digits(-5, 0))
    assert list(_digits(0, 1)) == []


def test_width_covers_its_bound():
    for bound in (0, 1, 7, 8, 2**64 - 1):
        half = 1 << (_width(bound) - 1)
        assert bound < half and 2 * bound >= half - 1


def test_product_reads_coefficients_at_its_width_bound():
    # monomials far from 0: the product's one coefficient is the product of
    # the factors' L1 norms, the bound the width comes from, with no slack;
    # a width one bit short reads -315 as a digit of 197 and a carry
    factors = [[{(1, 1): 7}], [{(-3, 0): -9}], [{}, {(0, 2): 5}]]
    assert _product(factors, 3) == [{}, {(-2, 3): -315}, {}]
    # the three lone-letter factors of the split: z (q^-1 (z + 1) - 1) (1 + r z)
    lone = [[{(0, 1): 1}], [{(-1, 1): 1, (-1, 0): 1, (0, 0): -1}], [{(0, 0): 1}, {(0, 1): 1}]]
    assert _product(lone, 2) == [
        {(-1, 2): 1, (-1, 1): 1, (0, 1): -1},
        {(-1, 3): 1, (-1, 2): 1, (0, 2): -1},
    ]


def test_product_splits_rows_that_end_in_a_negative_digit():
    # M q^-2 (1 + z) (1 - r q): two z-rows, each of r-slots 0, 1 over q^-2
    # and q^-1, and each ending in its top digit -M, so each row is negative
    # and the split at z must borrow from the row above.  Every digit is +-M,
    # a quarter of the L1 bound 4M the width is taken from.  A split one
    # digit short of z reads each row's top digit as the next row's first
    big = (1 << 61) - 1
    factors = [[{(0, 0): 1, (0, 1): 1}], [{(0, 0): 1}, {(1, 0): -1}], [{(-2, 0): big}]]
    assert _product(factors, 2) == [
        {(-2, 0): big, (-2, 1): big},
        {(-1, 0): -big, (-1, 1): -big},
    ]


@st.composite
def laurent_factors(draw):
    """(slots, factors): 1-3 polynomials in r, q^(+-1) and z as components,
    their r-degrees summing to less than ``slots``, nonzero coefficients up
    to 2^40 in absolute value, as components store no 0."""
    slots = draw(st.integers(1, 4))
    coefficient = st.integers(-(2**40), 2**40).filter(bool)
    term = st.tuples(st.tuples(st.integers(-4, 4), st.integers(0, 3)), coefficient)
    factors = []
    room = slots
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(0, room - 1))
        room -= degree
        factors.append([dict(draw(st.lists(term, max_size=4))) for _ in range(degree + 1)])
    return slots, factors


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(laurent_factors())
def test_product_matches_the_convolution_of_the_components(case):
    slots, factors = case
    expected = [{(0, 0): 1}] + [{} for _ in range(slots - 1)]
    for factor in factors:
        out = [{} for _ in range(slots)]
        for r, comp in enumerate(expected):
            for s, other in enumerate(factor):
                for (qa, za), a in comp.items():
                    for (qb, zb), b in other.items():
                        key = (qa + qb, za + zb)
                        out[r + s][key] = out[r + s].get(key, 0) + a * b
        expected = out
    expected = [{k: v for k, v in comp.items() if v} for comp in expected]
    assert _product(factors, slots) == expected
