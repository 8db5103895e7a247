"""The two Hypothesis recipes that the property tests draw singular braid
words from.  Each call site names its strand range and its caps."""

from hypothesis import strategies as st

from singskein.braid import SIGMA, SIGMA_INV, TAU, Generator, SingularBraidWord


@st.composite
def crossing_words(draw, strands, crossings, double_points, kinds=(SIGMA, SIGMA_INV)):
    """A word on ``strands`` = (fewest, most) strands: at most ``crossings``
    crossings, or between the (fewest, most) that ``crossings(n)`` gives on
    n strands, each kind drawn from ``kinds`` (repeat a kind to skew the
    odds), then at most ``double_points`` double points, each inserted at a
    position drawn with it.  A word on 1 strand is empty."""
    n = draw(st.integers(*strands))
    if n == 1:
        return SingularBraidWord(1, ())
    fewest, most = crossings(n) if callable(crossings) else (0, crossings)
    index = st.integers(1, n - 1)
    letters = draw(st.lists(st.builds(Generator, st.sampled_from(kinds), index), min_size=fewest, max_size=most))
    for _ in range(draw(st.integers(0, double_points))):
        letters.insert(draw(st.integers(0, len(letters))), Generator(TAU, draw(index)))
    return SingularBraidWord(n, tuple(letters))


@st.composite
def lettered_words(draw, strands, letters):
    """A word on ``strands`` = (fewest, most) strands with at most
    ``letters`` letters, crossings of both signs and double points drawn
    alike in one list.  A word on 1 strand is empty."""
    n = draw(st.integers(*strands))
    if n == 1:
        return SingularBraidWord(1, ())
    letter = st.builds(Generator, st.sampled_from((SIGMA, SIGMA_INV, TAU)), st.integers(1, n - 1))
    return SingularBraidWord(n, tuple(draw(st.lists(letter, max_size=letters))))
