"""The moves that preserve a singular braid's closure, the seeded fuzzer,
and ``--verify``, which checks a class against the fuzzer's moves.

Every move rewrites a word of ``singskein.braid`` without changing its
closure:

* the defining monoid relations (inverse cancellation, braid relations,
  singular braid relations, far commutations);
* cyclic shifts and conjugation by invertible (crossing-only) words;
* stabilisation by a crossing on a fresh top strand, and its inverse.

``random_move_sequence`` checks its arguments when it is called and then
yields a seeded fuzzer's moves one at a time, and ``verify_moves`` checks
the class of each move's word against the given word's, holding only the
current word.  Only ``--verify`` needs them, so the CLI loads this module
on first use, and hands ``verify_moves`` the given word's cyclic
reduction, traces and class, which it has already built.  ``--moves`` is
at most ``cli.HARD_MAX_MOVES`` (10,000), which bounds the run's time,
linear in the move count, and the verdict memo, which keeps one cyclic
reduction for each distinct word folded.  A run folds each distinct
(strand count, cyclic reduction) of those words once, the given word's
included, and builds a full class only for the first word of each new
(strand count, writhe) shape; every other word is decided on its trace
components.  A fold of a word on 7 strands or more may go in pieces, cut at
strand indices whose letters sit together; the pieces are a function of
the cyclic reduction, so that key still fixes the computation.
``braid._forward`` reads ``RelationMove`` and ``random_move_sequence``
from here for ``singskein.braid``, as the acceptance tests and the
benchmark import them from there.
"""

from __future__ import annotations

import random
from typing import Iterator

from . import markov, skein
from .braid import (
    SIGMA,
    SIGMA_INV,
    TAU,
    Generator,
    InapplicableMoveError,
    Record,
    SingularBraidWord,
    _reduced,
    exponent_sum,
)
from .packed import _decoded

__all__ = [
    "MarkovMove",
    "CyclicShift",
    "Conjugate",
    "StabilizeUp",
    "StabilizeDown",
    "RelationMove",
    "relation_move_candidates",
    "random_move_sequence",
    "verify_moves",
]


class MarkovMove(Record):
    """Base class; every move rewrites a word without changing its closure.

    Moves are immutable values: equal when of one class with equal fields,
    and their reprs (``RelationMove(rule='cancel_inverse_pair', position=0,
    index=0, sign=1)``) are the text of ``--verify`` failure lines."""

    __slots__ = ()


class CyclicShift(MarkovMove):
    __slots__ = ("amount",)

    def apply(self, word: SingularBraidWord) -> SingularBraidWord:
        n = len(word.letters)
        if n == 0:
            return word
        k = self.amount % n
        return SingularBraidWord(word.strands, word.letters[k:] + word.letters[:k])


class Conjugate(MarkovMove):
    __slots__ = ("by",)

    def apply(self, word: SingularBraidWord) -> SingularBraidWord:
        if self.by.strands != word.strands:
            raise InapplicableMoveError("conjugator must share the strand count")
        if any(g.kind == TAU for g in self.by.letters):
            raise InapplicableMoveError("conjugator must be invertible (no double points)")
        inverse = tuple(Generator(-g.kind, g.index) for g in reversed(self.by.letters))
        return SingularBraidWord(word.strands, self.by.letters + word.letters + inverse)


class StabilizeUp(MarkovMove):
    __slots__ = ("sign",)  # +1 or -1

    def apply(self, word: SingularBraidWord) -> SingularBraidWord:
        if self.sign not in (1, -1):
            raise InapplicableMoveError("stabilisation sign must be +1 or -1")
        n = word.strands
        return SingularBraidWord(
            n + 1, word.letters + (Generator(SIGMA if self.sign > 0 else SIGMA_INV, n),)
        )


class StabilizeDown(MarkovMove):
    __slots__ = ()

    def apply(self, word: SingularBraidWord) -> SingularBraidWord:
        n = word.strands
        if n < 2 or not word.letters:
            raise InapplicableMoveError("nothing to destabilise")
        last = word.letters[-1]
        if last.index != n - 1 or last.kind == TAU:
            raise InapplicableMoveError("word must end with a crossing on the top strand")
        if sum(1 for g in word.letters if g.index == n - 1) != 1:
            raise InapplicableMoveError("top index must occur exactly once")
        return SingularBraidWord(n - 1, word.letters[:-1])


R_CANCEL = "cancel_inverse_pair"
R_INSERT = "insert_inverse_pair"
R_SIGMA_TAU_SAME = "commute_sigma_tau_same_index"
R_BRAID = "braid_relation"
R_SIGMA_SIGMA_TAU = "singular_braid_relation"
R_FAR_SIGMA_SIGMA = "commute_far_sigma_sigma"
R_FAR_SIGMA_TAU = "commute_far_sigma_tau"
R_FAR_TAU_TAU = "commute_far_tau_tau"


class RelationMove(MarkovMove):
    """One application of a defining monoid relation at a fixed position.

    ``index``/``sign`` are only read by the insert rule, which has no
    pattern to match in the word itself.
    """

    __slots__ = ("rule", "position", "index", "sign")

    def __init__(self, rule: str, position: int, index: int = 0, sign: int = 1):
        self._set(rule, position, index, sign)

    def apply(self, word: SingularBraidWord) -> SingularBraidWord:
        letters = word.letters
        p = self.position
        rule = self.rule

        if rule == R_INSERT:
            if not 0 <= p <= len(letters):
                raise InapplicableMoveError("insert position out of range")
            if not 1 <= self.index <= word.strands - 1:
                raise InapplicableMoveError("insert index out of range")
            if self.sign not in (1, -1):
                raise InapplicableMoveError("insert sign must be +1 or -1")
            kind = SIGMA if self.sign > 0 else SIGMA_INV
            pair = (Generator(kind, self.index), Generator(-kind, self.index))
            return SingularBraidWord(word.strands, letters[:p] + pair + letters[p:])

        if rule in _PAIR_RULES:
            if not 0 <= p <= len(letters) - 2:
                raise InapplicableMoveError(f"{rule} position out of range")
            a, b = letters[p], letters[p + 1]
            gap = abs(a.index - b.index)
            if gap == 1 or (_FAR_INDEX if gap else _SAME_INDEX).get((a.kind, b.kind)) != rule:
                raise InapplicableMoveError(f"{rule} does not match at position {p}")
            replaced = () if rule == R_CANCEL else (b, a)
            return SingularBraidWord(
                word.strands, letters[:p] + replaced + letters[p + 2 :]
            )

        if rule in _TRIPLE_RULES:
            if not 0 <= p <= len(letters) - 3:
                raise InapplicableMoveError(f"{rule} position out of range")
            a, b, c = letters[p], letters[p + 1], letters[p + 2]
            kinds = (a.kind, b.kind, c.kind)
            if a.index != c.index or abs(a.index - b.index) != 1 or _TRIPLE.get(kinds) != rule:
                raise InapplicableMoveError(f"{rule} does not match at position {p}")
            if rule == R_BRAID:
                replaced = (b, a, b)
            elif a.kind == SIGMA:  # sigma_k sigma_l tau_k -> tau_l sigma_k sigma_l
                replaced = (Generator(TAU, b.index), a, b)
            else:  # tau_k sigma_l sigma_k -> sigma_l sigma_k tau_l
                replaced = (b, c, Generator(TAU, b.index))
            return SingularBraidWord(
                word.strands, letters[:p] + replaced + letters[p + 3 :]
            )

        raise InapplicableMoveError(f"unknown relation rule {rule!r}")


# The rule two adjacent letters match, keyed by their kinds, at one index
# (_SAME_INDEX) and at indices at least 2 apart (_FAR_INDEX); the rule three
# letters at indices k l k with |k - l| = 1 match (_TRIPLE)
_SAME_INDEX = {
    (SIGMA, SIGMA_INV): R_CANCEL,
    (SIGMA_INV, SIGMA): R_CANCEL,
    (SIGMA, TAU): R_SIGMA_TAU_SAME,
    (TAU, SIGMA): R_SIGMA_TAU_SAME,
}
_FAR_INDEX = {
    (SIGMA, SIGMA): R_FAR_SIGMA_SIGMA,
    (SIGMA, TAU): R_FAR_SIGMA_TAU,
    (TAU, SIGMA): R_FAR_SIGMA_TAU,
    (TAU, TAU): R_FAR_TAU_TAU,
}
_TRIPLE = {
    (SIGMA, SIGMA, SIGMA): R_BRAID,
    (SIGMA, SIGMA, TAU): R_SIGMA_SIGMA_TAU,
    (TAU, SIGMA, SIGMA): R_SIGMA_SIGMA_TAU,
}
# the rules matched on two and on three adjacent letters
_PAIR_RULES = {*_SAME_INDEX.values(), *_FAR_INDEX.values()}
_TRIPLE_RULES = set(_TRIPLE.values())


def relation_move_candidates(word: SingularBraidWord) -> list[RelationMove]:
    """All in-place relation instances (everything except inserts): the pair
    rules position by position, then the triple rules.  One pass reads each
    letter once; at most one pair rule and one triple rule match at a
    position, and ``RelationMove.apply``, which reads the same tables,
    accepts exactly the moves listed here."""
    pairs: list[RelationMove] = []
    triples: list[RelationMove] = []
    # the two letters before position p; the sentinels match no rule
    ka = kb = None
    ia = ib = -2
    for p, g in enumerate(word.letters):
        kc, ic = g.kind, g.index
        gap = abs(ic - ib)
        if gap != 1:
            rule = (_FAR_INDEX if gap else _SAME_INDEX).get((kb, kc))
            if rule:
                pairs.append(RelationMove(rule, p - 1))
        elif ic == ia:
            rule = _TRIPLE.get((ka, kb, kc))
            if rule:
                triples.append(RelationMove(rule, p - 2))
        ka, ia, kb, ib = kb, ib, kc, ic
    return pairs + triples


def random_move_sequence(
    word: SingularBraidWord,
    length: int,
    seed: int,
    max_strands: int | None = None,
    max_length: int | None = None,
) -> Iterator[tuple[MarkovMove, SingularBraidWord]]:
    """Seeded applicable moves, each yielded as (move, resulting word), so a
    caller holds one word, not ``length``; ``list()`` it to keep them.  The
    arguments are checked here, at the call, and the moves drawn lazily."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if max_strands is None:
        max_strands = word.strands + 2
    if max_length is None:
        max_length = len(word.letters) + 16
    rng = random.Random(seed)

    def steps(current):
        for _ in range(length):
            move, current = _sample_move(rng, current, max_strands, max_length)
            yield move, current

    return steps(word)


def _sample_move(
    rng: random.Random,
    word: SingularBraidWord,
    max_strands: int,
    max_length: int,
) -> tuple[MarkovMove, SingularBraidWord]:
    """A seeded applicable move of ``word`` and the word it makes, each move
    applied once: a destabilisation is applied to find out whether it
    applies, and that word is the one returned."""
    n = word.strands
    length = len(word.letters)
    for _ in range(32):
        roll = rng.random()
        if roll < 0.35:
            candidates = relation_move_candidates(word)
            if candidates:
                move = rng.choice(candidates)
                break
        elif roll < 0.50:
            if length >= 2:
                move = CyclicShift(rng.randrange(1, length))
                break
        elif roll < 0.62:
            if n >= 2 and length + 2 <= max_length:
                move = RelationMove(
                    R_INSERT,
                    rng.randrange(length + 1),
                    index=rng.randrange(1, n),
                    sign=rng.choice((1, -1)),
                )
                break
        elif roll < 0.76:
            if n >= 2 and length + 4 <= max_length:
                size = rng.randint(1, 2)
                letters = tuple(
                    Generator(rng.choice((SIGMA, SIGMA_INV)), rng.randrange(1, n))
                    for _ in range(size)
                )
                move = Conjugate(SingularBraidWord(n, letters))
                break
        elif roll < 0.88:
            if n + 1 <= max_strands and length + 1 <= max_length:
                move = StabilizeUp(rng.choice((1, -1)))
                break
        else:
            move = StabilizeDown()
            try:
                return move, move.apply(word)
            except InapplicableMoveError:
                pass
    else:
        move = CyclicShift(1 if length >= 2 else 0)
    return move, move.apply(word)


def verify_moves(
    word: SingularBraidWord,
    reduced: tuple,
    traces,
    reference: skein.SkeinClass,
    strand_cap: int,
    moves: int,
    seed: int,
) -> dict:
    """``--verify``'s report: ``moves`` seeded moves of ``word``, whose
    cyclic reduction (``braid._reduced``) is ``reduced`` and whose traces
    (from ``markov._folded``) are ``traces``, each checked against
    ``reference``, its ``skein_class``; no move takes a word past
    ``strand_cap`` strands, the cap ``check_caps`` checked it against."""
    # The move words need no cap check of their own: every move keeps the
    # degree, and random_move_sequence keeps the strand count within the cap.
    # It yields the moves one at a time, so only the current word is held.
    passed = 0
    failures: list[str] = []
    steps = random_move_sequence(word, moves, seed=seed, max_strands=strand_cap)
    # A class reads the word's strands, degree and exponent sum, and its
    # traces, which hecke._folded folds from _compact(_reduced(letters)),
    # whole or in the pieces hecke._split cuts it into, a block among them,
    # a function of those letters alone; the reduction keeps the degree and
    # the exponent sum.
    # So words with equal (strands, reduction) run the same computation on
    # the same input, and each key's verdict is computed once.  The key is
    # not made rotation-canonical: a rotation folds other letters, and its
    # class is equal only by the theory this run checks.
    verdicts = {(word.strands, reduced): True}
    # A new key is folded once and decided on its components where it can
    # be.  Moves keep the degree d, and for fixed (n, e, d) the class is
    # components -> numerators -> factored coordinates -> embed(c z^m) u^k,
    # each step injective: the change of variables T0 = wA - zB,
    # T1 = B - zA is invertible, as D = -(z - q)(z + 1) != 0; lowest terms
    # are canonical; the embedding is a field embedding, and z^m and u^k
    # are nonzero.  So within a shape (n, e), equal components (Laurent
    # dicts without zero entries) <=> equal classes, and good maps a shape
    # to the components of a word of it whose class is the reference.  The
    # first word of each new shape, and the next word of a shape whose known
    # word failed, takes the full class, straight from its traces (a product
    # stays undecoded): that keeps the normalisation by n and e under check,
    # which no scaling of components derived here would.  Traces are
    # decoded only to be compared or kept in good.
    good = {(word.strands, exponent_sum(word)): _decoded(traces)}
    for step_number, (move, step_word) in enumerate(steps, start=1):
        key = (step_word.strands, _reduced(step_word.letters))
        verdict = verdicts.get(key)
        if verdict is None:
            # the fold and the full class through their modules, the seams
            # where they are wrapped or replaced; the fold is given the
            # reduction the key already holds
            step_traces = markov._folded(step_word, key[1])
            shape = (step_word.strands, exponent_sum(step_word))
            known = good.get(shape)
            if known is not None:
                verdict = _decoded(step_traces) == known
            else:
                verdict = skein._class_from_components(step_traces, step_word) == reference
                if verdict:
                    good[shape] = _decoded(step_traces)
            verdicts[key] = verdict
        if verdict:
            passed += 1
        else:
            failures.append(f"step {step_number}: {move!r} changed the class")
    return {"moves": moves, "seed": seed, "passed": passed, "failed": len(failures), "failures": failures}
