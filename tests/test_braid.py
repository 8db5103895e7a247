"""Word model, parsing, homomorphisms, and move generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singskein.braid import (
    Generator,
    InapplicableMoveError,
    Record,
    SIGMA,
    SIGMA_INV,
    SingularBraidWord,
    BraidSyntaxError,
    StrandIndexError,
    TAU,
    component_count,
    exponent_sum,
    parse,
)
from singskein.moves import (
    Conjugate,
    CyclicShift,
    R_BRAID,
    R_CANCEL,
    R_FAR_SIGMA_SIGMA,
    R_FAR_SIGMA_TAU,
    R_FAR_TAU_TAU,
    R_INSERT,
    R_SIGMA_SIGMA_TAU,
    R_SIGMA_TAU_SAME,
    RelationMove,
    StabilizeDown,
    StabilizeUp,
    random_move_sequence,
    relation_move_candidates,
)
from singskein.coeff import QZ, SU, MultivariatePolynomial, RationalFunction
from singskein.markov import FactoredCoordinate, MarkovClass
from singskein.oracle import (
    FormalWordSum,
    HeckeElement,
    TraceVector,
    shuffle_braid,
    stack,
    underlying_permutation,
    with_strands,
)
from singskein.packed import PackedProduct, _product
from singskein.permutations import Permutation
from singskein.skein import SkeinClass, SkeinTripleResult

from forwarding import forwarding


def word(text: str, strands=None) -> SingularBraidWord:
    return parse(text, strands)


# -- parsing -----------------------------------------------------------------


def test_parse_basic():
    w = word("s1 s1 s1", 2)
    assert w.strands == 2
    assert [g.kind for g in w.letters] == [SIGMA] * 3
    assert w.degree == 0


def test_parse_tau():
    w = word("t1", 2)
    assert w.letters == (Generator(TAU, 1),)
    assert w.degree == 1


def test_parse_index_out_of_range():
    with pytest.raises(StrandIndexError):
        word("s3", 2)


def test_parse_syntax_error_carries_position():
    with pytest.raises(BraidSyntaxError) as exc:
        parse("s1 x2")
    assert exc.value.position == 3


def test_parse_infers_strands():
    assert parse("s1 S2 t1").strands == 3
    assert parse("").strands == 1


def test_parse_normalises_whitespace():
    assert parse("  s1   t2 ").display() == "s1 t2"


# -- homomorphisms ------------------------------------------------------------


def test_exponent_sum():
    assert exponent_sum(word("s1 s1 s1", 2)) == 3
    assert exponent_sum(word("t1 s1", 2)) == 1
    assert exponent_sum(word("s1 S2", 3)) == 0


def test_underlying_permutation():
    assert underlying_permutation(word("s1", 2)) == Permutation((2, 1))
    assert underlying_permutation(word("t1 s1", 2)) == Permutation((1, 2))
    assert underlying_permutation(word("", 2)) == Permutation((1, 2))


@st.composite
def mixed_words(draw):
    """1-8 strands, at most 12 letters of every kind."""
    n = draw(st.integers(1, 8))
    kind, index = st.sampled_from((SIGMA, SIGMA_INV, TAU)), st.integers(1, max(n - 1, 1))
    letters = draw(st.lists(st.builds(Generator, kind, index), max_size=12 if n > 1 else 0))
    return SingularBraidWord(n, tuple(letters))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mixed_words())
def test_component_count_is_the_cycle_count(w):
    assert component_count(w) == underlying_permutation(w).cycle_count()


def test_underlying_permutation_of_stack_is_block_sum():
    rng = random.Random(3)
    for _ in range(20):
        a = _random_word(rng, strands=rng.randint(1, 4), length=rng.randint(0, 6))
        b = _random_word(rng, strands=rng.randint(1, 4), length=rng.randint(0, 6))
        assert underlying_permutation(stack(a, b)) == underlying_permutation(
            a
        ).block_sum(underlying_permutation(b))


# -- stacking ------------------------------------------------------------------


def test_stack_shifts_indices():
    left = word("t1", 2)
    right = word("t1", 2)
    assert stack(left, right).display() == "t1 t3"
    assert stack(left, right).strands == 4


def test_stack_with_trivial_strand_is_embedding():
    w = word("s1 t1", 2)
    assert stack(w, parse("", 1)) == with_strands(w, 3)


def test_stack_mixed():
    assert stack(word("s1", 2), word("t1", 2)).display() == "s1 t3"


# -- moves ---------------------------------------------------------------------


def test_cyclic_shift():
    w = word("s1 t1", 2)
    assert CyclicShift(1).apply(w).display() == "t1 s1"


def test_stabilize_up():
    w = word("t1", 2)
    up = StabilizeUp(1).apply(w)
    assert up.strands == 3
    assert up.display() == "t1 s2"


def test_stabilize_down():
    w = word("t1 s2", 3)
    down = StabilizeDown().apply(w)
    assert down == word("t1", 2)


def test_stabilize_down_requires_single_use():
    with pytest.raises(InapplicableMoveError):
        StabilizeDown().apply(word("s2 t1 s2", 3))
    with pytest.raises(InapplicableMoveError):
        StabilizeDown().apply(word("t1 t2", 3))


def test_cancel_move():
    w = word("s1 S1 t1", 2)
    assert RelationMove(R_CANCEL, 0).apply(w) == word("t1", 2)
    with pytest.raises(InapplicableMoveError):
        RelationMove(R_CANCEL, 1).apply(w)


def test_insert_move():
    w = word("t1", 2)
    inserted = RelationMove(R_INSERT, 1, index=1, sign=-1).apply(w)
    assert inserted.display() == "t1 S1 s1"
    for sign in (0, 5):
        with pytest.raises(InapplicableMoveError):
            RelationMove(R_INSERT, 1, index=1, sign=sign).apply(w)


def test_sigma_tau_commute_move():
    w = word("s1 t1", 2)
    assert RelationMove(R_SIGMA_TAU_SAME, 0).apply(w).display() == "t1 s1"


def test_braid_relation_move():
    w = word("s1 s2 s1", 3)
    assert RelationMove(R_BRAID, 0).apply(w).display() == "s2 s1 s2"


def test_singular_braid_relation_move_both_directions():
    lhs = word("s1 s2 t1", 3)
    rhs = word("t2 s1 s2", 3)
    assert RelationMove(R_SIGMA_SIGMA_TAU, 0).apply(lhs) == rhs
    assert RelationMove(R_SIGMA_SIGMA_TAU, 0).apply(rhs) == lhs


def test_conjugate_requires_invertible():
    with pytest.raises(InapplicableMoveError):
        Conjugate(word("t1", 2)).apply(word("s1", 2))


def test_conjugate():
    w = word("t1", 2)
    out = Conjugate(word("s1 S1", 2)).apply(w)
    assert out.display() == "s1 S1 t1 s1 S1"


def test_inverse_word():
    # the conjugator's inverse, which Conjugate builds: letters reversed,
    # signs flipped; a double point has none
    assert Conjugate(word("s1 S2", 3)).apply(word("", 3)).display() == "s1 S2 s2 S1"
    with pytest.raises(ValueError):
        Conjugate(word("s1 t1", 2)).apply(word("", 2))


def test_records_keep_their_value_semantics():
    # the move reprs are the text of --verify failure lines
    moves = {
        "CyclicShift(amount=2)": CyclicShift(2),
        "Conjugate(by=<word s1 S2 on 3>)": Conjugate(word("s1 S2", 3)),
        "StabilizeUp(sign=-1)": StabilizeUp(-1),
        "StabilizeDown()": StabilizeDown(),
        "RelationMove(rule='insert_inverse_pair', position=1, index=1, sign=-1)": RelationMove(
            R_INSERT, 1, index=1, sign=-1
        ),
        "RelationMove(rule='braid_relation', position=0, index=0, sign=1)": RelationMove(R_BRAID, 0),
    }
    for text, move in moves.items():
        assert repr(move) == text
    assert repr(Generator(TAU, 2)) == "t2"
    assert repr(word("s1 S2 t1", 3)) == "<word s1 S2 t1 on 3>"
    assert repr(SingularBraidWord(2, ())) == "<word empty on 2>"
    q = RationalFunction.coordinate(QZ, "q")
    one = SkeinClass({(0, 1): RationalFunction.one(SU)})
    twins = [  # two equal values and one of their fields
        (Generator(SIGMA, 2), Generator(SIGMA, 2), "kind"),
        (word("s1 S2 t1", 3), parse("s1  S2 t1", 3), "letters"),
        (CyclicShift(2), CyclicShift(2), "amount"),
        (Conjugate(word("s1", 2)), Conjugate(word("s1", 2)), "by"),
        (StabilizeUp(1), StabilizeUp(1), "sign"),
        (StabilizeDown(), StabilizeDown(), None),
        (RelationMove(R_CANCEL, 3), RelationMove(R_CANCEL, 3, 0, 1), "position"),
        (
            MultivariatePolynomial(QZ, {(1, 0): 2, (0, 1): 0}),
            MultivariatePolynomial._raw(QZ, {(1, 0): 2}),
            "terms",
        ),
        (q.inverse(), RationalFunction(MultivariatePolynomial.one(QZ), q.numerator), "numerator"),
        (MarkovClass({(1, 0): q}), MarkovClass({(1, 0): q, (0, 1): q - q}), "coeffs"),
        (SkeinClass({(0, 1): RationalFunction.one(SU)}), SkeinClass({(0, 1): RationalFunction.one(SU)}), "coeffs"),
        (Permutation((2, 1, 3)), Permutation.adjacent_transposition(3, 1), "image"),
        (HeckeElement.identity(2), HeckeElement(2, {Permutation.identity(2): q / q}), "terms"),
        (FormalWordSum.from_terms([(word("t1", 2), 1)] * 2), FormalWordSum(((word("t1", 2), 2),)), "terms"),
        (TraceVector(1, (q, q)), TraceVector(1, (q, q)), "values"),
        (PackedProduct(3, 8, 1, 1, 1, 0, (3,)), _product([[{(0, 0): 3}]], 1), "value"),
        (FactoredCoordinate((1, 2), 0, 1, 0, -1, 8), FactoredCoordinate((1, 2), 0, 1, 0, -1, 8), "rows"),
        (SkeinTripleResult(True, *[one] * 5), SkeinTripleResult(True, *[one] * 5), "holds"),
    ]
    for a, b, field in twins:
        assert a == b and not a != b and hash(a) == hash(b)
        if type(a).__init__ is Record.__init__:
            # a record without its own __init__ takes exactly its fields
            values = [getattr(a, name) for name in a.__slots__]
            assert type(a)(*values) == a
            for wrong in ([values[:-1]] if values else []) + [values + [0]]:
                with pytest.raises(TypeError, match=type(a).__name__):
                    type(a)(*wrong)
        for name in (field, "extra"):
            if name is not None:
                with pytest.raises(AttributeError):
                    setattr(a, name, 0)
                with pytest.raises(AttributeError):
                    delattr(a, name)
    assert Generator(SIGMA, 2) != (SIGMA, 2)
    assert Generator(SIGMA, 2) != Generator(SIGMA_INV, 2)
    assert word("s1", 2) != word("s1", 3)
    assert CyclicShift(1) != StabilizeUp(1)
    assert StabilizeDown() != CyclicShift(0)
    assert RelationMove(R_INSERT, 0, 1, 1) != RelationMove(R_INSERT, 0, 1, -1)
    assert MarkovClass({(1, 0): q}) != MarkovClass({(1, 0): q + q})
    with pytest.raises(ValueError):
        Generator(5, 1)
    with pytest.raises(ValueError):
        Generator(SIGMA, 0)
    with pytest.raises(ValueError):
        SingularBraidWord(0, ())
    with pytest.raises(StrandIndexError):
        SingularBraidWord(2, (Generator(SIGMA, 2),))


# -- move invariants -----------------------------------------------------------


def _random_word(rng: random.Random, strands: int, length: int, degree=None):
    letters = []
    for _ in range(length):
        if strands < 2:
            break
        kind = rng.choice((SIGMA, SIGMA, SIGMA_INV, TAU))
        letters.append(Generator(kind, rng.randrange(1, strands)))
    if degree is not None:
        letters = [g for g in letters if g.kind != TAU]
        positions = sorted(rng.sample(range(len(letters) + degree), degree))
        for offset, p in enumerate(positions):
            letters.insert(p, Generator(TAU, rng.randrange(1, strands)))
    return SingularBraidWord(strands, tuple(letters))


def test_relation_moves_preserve_counted_invariants():
    rng = random.Random(11)
    for _ in range(120):
        w = _random_word(rng, strands=rng.randint(2, 5), length=rng.randint(2, 10))
        for move in relation_move_candidates(w):
            out = move.apply(w)
            assert exponent_sum(out) == exponent_sum(w)
            assert out.degree == w.degree
            assert underlying_permutation(out) == underlying_permutation(w)


@st.composite
def _words(draw):
    """2-6 strands, at most 12 letters of every kind."""
    n = draw(st.integers(2, 6))
    letter = st.builds(Generator, st.sampled_from((SIGMA, SIGMA_INV, TAU)), st.integers(1, n - 1))
    return SingularBraidWord(n, tuple(draw(st.lists(letter, max_size=12))))


def _applies(w, move):
    try:
        move.apply(w)
    except InapplicableMoveError:
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_words())
def test_relation_move_candidates_are_exactly_the_applicable_moves(w):
    # pair rules position by position in rule order, then the triple rules
    pair_rules = (R_CANCEL, R_SIGMA_TAU_SAME, R_FAR_SIGMA_SIGMA, R_FAR_SIGMA_TAU, R_FAR_TAU_TAU)
    expected = []
    for rules in (pair_rules, (R_BRAID, R_SIGMA_SIGMA_TAU)):
        for p in range(len(w.letters)):
            expected.extend(
                (rule, p) for rule in rules if _applies(w, RelationMove(rule, p))
            )
    assert [(m.rule, m.position) for m in relation_move_candidates(w)] == expected


def test_relation_move_rejects_negative_position():
    # a negative position must not wrap around to the end of the word
    w = word("S2 s1 s2 s3 s1 s3", 4)
    for rule in (R_CANCEL, R_FAR_SIGMA_SIGMA, R_BRAID, R_SIGMA_SIGMA_TAU):
        for p in (-1, -2, -3):
            with pytest.raises(InapplicableMoveError):
                RelationMove(rule, p).apply(w)


def test_random_move_sequence_deterministic():
    w = word("t1 s1 S2", 3)
    a = list(random_move_sequence(w, 30, seed=42))
    b = list(random_move_sequence(w, 30, seed=42))
    assert a == b
    assert len(a) == 30


def test_random_move_sequence_respects_caps():
    w = word("t1", 2)
    for _, step in random_move_sequence(w, 60, seed=1, max_strands=4, max_length=20):
        assert step.strands <= 4
        assert len(step.letters) <= 20
        assert step.degree == 1


def test_random_move_sequence_empty():
    assert list(random_move_sequence(word("t1", 2), 0, seed=0)) == []


def test_random_move_sequence_checks_its_length_when_called():
    # no move is drawn, so no iteration is needed to see the refusal
    with pytest.raises(ValueError):
        random_move_sequence(parse("t1 s1", 2), -1, seed=0)


def test_a_sampled_destabilisation_is_applied_once(monkeypatch):
    # _sample_move applies a StabilizeDown to see whether it applies, and the
    # stream hands on that word instead of applying the move again
    start = word("s1 S2 t1 s2")
    applied = []
    true_apply = StabilizeDown.apply

    def counted(self, w):
        out = true_apply(self, w)
        applied.append(w)
        return out

    monkeypatch.setattr(StabilizeDown, "apply", counted)
    steps = list(random_move_sequence(start, 100, seed=0))
    monkeypatch.undo()
    downs = [before for (move, _), before in zip(steps, [start] + [w for _, w in steps]) if isinstance(move, StabilizeDown)]
    assert len(downs) == 5
    assert applied == downs
    # every entry is its move applied to the word before it
    for (move, after), before in zip(steps, [start] + [w for _, w in steps]):
        assert move.apply(before) == after


def test_move_names_still_resolve_from_braid():
    # braid forwards exactly the names that the acceptance tests and the
    # benchmark import from it: the moves' RelationMove and
    # random_move_sequence, and word helpers of the oracle's; each one is its
    # home's own object
    import singskein.braid as braid
    import singskein.moves as moves
    import singskein.oracle as oracle

    forwarded, expected = forwarding()["singskein.braid"]
    assert forwarded == expected
    assert {"RelationMove", "random_move_sequence"} <= forwarded
    for name in forwarded:
        assert name not in vars(braid), name
        homes = [home for home in (moves, oracle) if getattr(braid, name) is vars(home).get(name)]
        assert len(homes) == 1, name
    with pytest.raises(AttributeError, match="module 'singskein.braid' has no attribute 'no_such_helper'"):
        braid.no_such_helper


# -- shuffle braid ---------------------------------------------------------------


def test_shuffle_braid_single_crossing():
    assert shuffle_braid(1, 1).display() == "s1"


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 4)])
def test_shuffle_braid_length_and_permutation(n, m):
    w = shuffle_braid(n, m)
    assert len(w.letters) == n * m
    perm = underlying_permutation(w)
    for k in range(1, n + 1):
        assert perm(k) == k + m
    for k in range(n + 1, n + m + 1):
        assert perm(k) == k - n
    # reduced: the word length equals the inversion count
    assert perm.inversions() == n * m
