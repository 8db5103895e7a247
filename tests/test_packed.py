"""The one decoder of the packed format: balanced digits back out of an int."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singskein.packed import PackedProduct, _digits, _low_digit, _pack, _packed_width, _product, _width


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


@settings(max_examples=300)
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


def test_packed_width_is_the_least_width_that_holds_the_lemmas_bound():
    # the module docstring's bound on every digit read, factor by factor:
    # l1 L^(2d) from the divisions by z - q and z + 1, 2^level from the
    # embedding, (D + level + 1)^r from the divisions by x - 1; a numerator
    # constant in z counts as z-degree 1.  W is the least width whose
    # balanced digits hold it: bound < 2^(W-1) <= 2 bound.
    for l1, z_degree, q_degree, d, m in itertools.product(
        (1, 6, 1000), (0, 1, 4), (0, 5), (0, 1, 3), (-3, -1, 0, 2)
    ):
        r = max(-m, 0)
        level = max(z_degree + max(m, 0), 2 * d + r)
        bound = l1 * max(z_degree, 1) ** (2 * d) * 2**level * (q_degree + level + 1) ** r
        width = _packed_width(l1, z_degree, q_degree, d, m)
        assert bound < 1 << (width - 1) <= 2 * bound, (l1, z_degree, q_degree, d, m)


def test_product_reads_coefficients_at_its_width_bound():
    # monomials far from 0: the product's one coefficient is the product of
    # the factors' L1 norms, the bound the width comes from, with no slack
    # but the rounding up to whole bytes; at _width(315) = 10 bits less one,
    # -315 would read as a digit of 197 and a carry.  The per-r L1 bounds
    # are the convolution of the factors', here 315 at r^1 alone
    factors = [[{(1, 1): 7}], [{(-3, 0): -9}], [{}, {(0, 2): 5}]]
    product = _product(factors, 3)
    assert product.decoded() == [{}, {(-2, 3): -315}, {}]
    assert (product.width, product.norms) == (16, (0, 315, 0))
    # the three lone-letter factors of the split: z (q^-1 (z + 1) - 1) (1 + r z)
    lone = [[{(0, 1): 1}], [{(-1, 1): 1, (-1, 0): 1, (0, 0): -1}], [{(0, 0): 1}, {(0, 1): 1}]]
    assert _product(lone, 2).decoded() == [
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
    assert _product(factors, 2).decoded() == [
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


@settings(max_examples=200)
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
    assert _product(factors, slots).decoded() == expected


@st.composite
def packed_products(draw):
    """(product, digits, q0, width, q_slots): a PackedProduct of balanced
    digits at 8, 16 or 24 bits, each in [-2^(w-1), 2^(w-1) - 1], the
    extremes drawn often, with some components and some z-rows left empty;
    digits[k][t][i] is the coefficient of r^k q^(low + i) z^t.  The target
    layout puts q^q0, q0 <= low, in digit 0, at a whole-byte width no
    narrower than the product's, with room above the q-range in each z-row."""
    width = draw(st.sampled_from([8, 16, 24]))
    slots, span, rows = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    half = 1 << (width - 1)
    digit = st.one_of(st.sampled_from([half - 1, 1 - half, -half, -1, 0]), st.integers(-half, half - 1))
    empty_comps = draw(st.sets(st.integers(0, slots - 1)))
    empty_rows = draw(st.sets(st.integers(0, rows - 1)))
    digits = [
        [[0 if k in empty_comps or t in empty_rows else draw(digit) for _ in range(span)] for t in range(rows)]
        for k in range(slots)
    ]
    value = sum(
        d << (width * (k + slots * (i + span * t)))
        for k in range(slots)
        for t in range(rows)
        for i, d in enumerate(digits[k][t])
    )
    low = draw(st.integers(-3, 3))
    norms = tuple(sum(abs(d) for row in comp for d in row) for comp in digits)
    product = PackedProduct(value, width, slots, span, rows, low, norms)
    q0 = low - draw(st.integers(0, 3))
    target = draw(st.sampled_from([w for w in (8, 16, 24) if w >= width]))
    q_slots = low - q0 + span + draw(st.integers(0, 2))
    return product, digits, q0, target, q_slots


@settings(max_examples=300)
@given(packed_products())
def test_relaid_product_matches_its_decode_packed_at_the_target_layout(case):
    # the byte re-layout of every r-slot against a decode followed by _pack
    # at the target layout, which reads each digit on its own.  The decode
    # reads the lanes one by one, which is exact down to -2^(w-1); the
    # product's own decode splits at z first, which needs every digit above
    # -2^(w-1) (the exactness lemma), so it is checked only then
    product, digits, q0, width, q_slots = case
    expected = [
        {(product.low + i, t): d for t, row in enumerate(comp) for i, d in enumerate(row) if d}
        for comp in digits
    ]
    comps = [{} for _ in range(product.slots)]
    for lane, d in _digits(product.value, product.width):
        slot, k = divmod(lane, product.slots)
        t, i = divmod(slot, product.span)
        comps[k][(product.low + i, t)] = d
    assert comps == expected
    if all(d > -(1 << (product.width - 1)) for comp in digits for row in comp for d in row):
        assert product.decoded() == expected
    z_stride = width * q_slots
    packed = [sum(row << (z_stride * t) for t, row in enumerate(_pack(comp, q0, width))) for comp in comps]
    assert product.relaid(q0, width, z_stride) == packed


def test_relaid_refuses_a_layout_that_cannot_hold_the_lanes():
    product = _product([[{(0, 0): 3, (2, 1): -1}]], 1)
    assert product.width == 8
    with pytest.raises(ValueError):
        product.relaid(0, 12, 12 * 3)  # not whole bytes
    with pytest.raises(ValueError):
        product.relaid(1, 8, 8 * 3)  # q0 above the product's lowest q-exponent
    with pytest.raises(ValueError):
        product.relaid(0, 8, 8 * 2)  # a z-row of three q-slots in two
    assert product.relaid(0, 8, 8 * 3) == [3 - (1 << (8 * 2 + 8 * 3))]
