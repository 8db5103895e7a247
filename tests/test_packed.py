"""The one decoder of the packed format: balanced digits back out of an int."""

from hypothesis import given, settings
from hypothesis import strategies as st

from singskein.packed import _digits, _low_digit, _width


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


def test_width_covers_its_bound():
    for bound in (0, 1, 7, 8, 2**64 - 1):
        half = 1 << (_width(bound) - 1)
        assert bound < half and 2 * bound >= half - 1
