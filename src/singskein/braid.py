"""Singular braid words and the moves that preserve their closure.

A word on ``n`` strands is a sequence of letters ``s<i>`` (positive
crossing), ``S<i>`` (negative crossing) and ``t<i>`` (singular crossing,
a double point) with ``1 <= i <= n-1``.  Words are the data model; no
attempt is made to decide word equivalence syntactically.  Instead, the
move generators below produce words with isotopic closures, and downstream
invariants are checked for invariance under them:

* the defining monoid relations (inverse cancellation, braid relations,
  singular braid relations, far commutations);
* cyclic shifts and conjugation by invertible (crossing-only) words;
* stabilisation by a crossing on a fresh top strand, and its inverse.

``random_move_sequence`` drives a seeded fuzzer over these moves.
"""

from __future__ import annotations

import random
import re

from .permutations import Permutation

__all__ = [
    "SIGMA",
    "SIGMA_INV",
    "TAU",
    "Generator",
    "SingularBraidWord",
    "BraidSyntaxError",
    "StrandIndexError",
    "InapplicableMoveError",
    "MarkovMove",
    "CyclicShift",
    "Conjugate",
    "StabilizeUp",
    "StabilizeDown",
    "RelationMove",
    "parse",
    "exponent_sum",
    "underlying_permutation",
    "stack",
    "with_strands",
    "inverse_word",
    "apply_move",
    "relation_move_candidates",
    "random_move_sequence",
    "shuffle_braid",
]

SIGMA = 1
SIGMA_INV = -1
TAU = 0

_KIND_TOKEN = {SIGMA: "s", SIGMA_INV: "S", TAU: "t"}


class BraidSyntaxError(ValueError):
    """Malformed word text; ``position`` is the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class StrandIndexError(ValueError):
    """A generator index does not fit the strand count."""


class InapplicableMoveError(ValueError):
    """The move's applicability condition fails on this word."""


class Record:
    """Base of the package's plain records: the fields are ``__slots__``,
    which a subclass's ``__init__`` sets in that order with ``_set``.  A
    record is immutable, equal only to a record of its own class with equal
    fields, hashed by its fields and shown as ``Name(field=value, ...)``.  A
    subclass keeps its own validation, defaults and keyword arguments, and
    may override the repr or, like ``cli.RunReport``, the immutability and
    the hash."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Generator(Record):
    """One letter: a crossing (SIGMA, SIGMA_INV) or a double point (TAU)
    between strand positions ``index`` and ``index + 1`` (1-based)."""

    __slots__ = ("kind", "index")

    def __init__(self, kind: int, index: int):
        if kind not in (SIGMA, SIGMA_INV, TAU):
            raise ValueError(f"unknown generator kind {kind}")
        if index < 1:
            raise ValueError(f"generator index must be >= 1, got {index}")
        self._set(kind, index)

    @property
    def token(self) -> str:
        return f"{_KIND_TOKEN[self.kind]}{self.index}"

    def inverse(self) -> "Generator":
        if self.kind == TAU:
            raise ValueError("a singular crossing has no inverse")
        return Generator(-self.kind, self.index)

    def __repr__(self) -> str:
        return self.token


class SingularBraidWord(Record):
    """A tuple of letters on a strand count; every index fits the strands."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[Generator, ...]):
        if strands < 1:
            raise ValueError(f"strand count must be >= 1, got {strands}")
        for letter in letters:
            if letter.index > strands - 1:
                raise StrandIndexError(
                    f"generator {letter.token} needs at least {letter.index + 1} "
                    f"strands, word has {strands}"
                )
        self._set(strands, letters)

    @property
    def degree(self) -> int:
        """Number of singular crossings."""
        return sum(1 for g in self.letters if g.kind == TAU)

    def display(self) -> str:
        return " ".join(g.token for g in self.letters)

    def __repr__(self) -> str:
        return f"<word {self.display() or 'empty'} on {self.strands}>"


_TOKEN_RE = re.compile(r"([sSt])([0-9]+)$")


def parse(text: str, strands: int | None = None) -> SingularBraidWord:
    """Parse whitespace-separated tokens like ``"s1 S2 t1"``.

    Without an explicit strand count the word gets 1 + its largest index
    (1 for the empty word).
    """
    letters: list[Generator] = []
    offset = 0
    for chunk in text.split():
        position = text.index(chunk, offset)
        offset = position + len(chunk)
        match = _TOKEN_RE.fullmatch(chunk)
        if not match:
            raise BraidSyntaxError(f"bad token {chunk!r}", position)
        kind = {"s": SIGMA, "S": SIGMA_INV, "t": TAU}[match.group(1)]
        index = int(match.group(2))
        if index < 1:
            raise BraidSyntaxError(f"index must be >= 1 in {chunk!r}", position)
        letters.append(Generator(kind, index))
    if strands is None:
        strands = 1 + max((g.index for g in letters), default=0)
    return SingularBraidWord(strands, tuple(letters))


def exponent_sum(word: SingularBraidWord) -> int:
    """Writhe: +1 per positive crossing, -1 per negative, 0 per double point."""
    return sum(g.kind for g in word.letters if g.kind != TAU)


def underlying_permutation(word: SingularBraidWord) -> Permutation:
    """Strand start -> strand end; every letter (tau included) swaps strands."""
    position_of = list(range(word.strands + 1))  # strand k sits at position_of[k]
    strand_at = list(range(word.strands + 1))  # inverse table
    for g in word.letters:
        i = g.index
        a, b = strand_at[i], strand_at[i + 1]
        strand_at[i], strand_at[i + 1] = b, a
        position_of[a], position_of[b] = i + 1, i
    return Permutation(position_of[1:])


def stack(a: SingularBraidWord, b: SingularBraidWord) -> SingularBraidWord:
    """Disjoint side-by-side product: b's letters shifted past a's strands."""
    shifted = tuple(Generator(g.kind, g.index + a.strands) for g in b.letters)
    return SingularBraidWord(a.strands + b.strands, a.letters + shifted)


def with_strands(word: SingularBraidWord, strands: int) -> SingularBraidWord:
    """The same letters viewed on a larger strand count."""
    if strands < word.strands:
        raise StrandIndexError(
            f"cannot view a {word.strands}-strand word on {strands} strands"
        )
    return SingularBraidWord(strands, word.letters)


def inverse_word(word: SingularBraidWord) -> SingularBraidWord:
    """Inverse of a crossing-only word (letters reversed, signs flipped)."""
    return SingularBraidWord(
        word.strands, tuple(g.inverse() for g in reversed(word.letters))
    )


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


class MarkovMove(Record):
    """Base class; every move rewrites a word without changing its closure.

    Moves are immutable values: equal when of one class with equal fields,
    and their reprs (``RelationMove(rule='cancel_inverse_pair', position=0,
    index=0, sign=1)``) are the text of ``--verify`` failure lines."""

    __slots__ = ()

    def apply(self, word: SingularBraidWord) -> SingularBraidWord:
        raise NotImplementedError


class CyclicShift(MarkovMove):
    __slots__ = ("amount",)

    def __init__(self, amount: int):
        self._set(amount)

    def apply(self, word: SingularBraidWord) -> SingularBraidWord:
        n = len(word.letters)
        if n == 0:
            return word
        k = self.amount % n
        return SingularBraidWord(word.strands, word.letters[k:] + word.letters[:k])


class Conjugate(MarkovMove):
    __slots__ = ("by",)

    def __init__(self, by: SingularBraidWord):
        self._set(by)

    def apply(self, word: SingularBraidWord) -> SingularBraidWord:
        if self.by.strands != word.strands:
            raise InapplicableMoveError("conjugator must share the strand count")
        if any(g.kind == TAU for g in self.by.letters):
            raise InapplicableMoveError("conjugator must be invertible (no double points)")
        return SingularBraidWord(
            word.strands,
            self.by.letters + word.letters + inverse_word(self.by).letters,
        )


class StabilizeUp(MarkovMove):
    __slots__ = ("sign",)

    def __init__(self, sign: int):  # +1 or -1
        self._set(sign)

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
            if not _pair_matches(rule, a, b):
                raise InapplicableMoveError(f"{rule} does not match at position {p}")
            replaced = () if rule == R_CANCEL else (b, a)
            return SingularBraidWord(
                word.strands, letters[:p] + replaced + letters[p + 2 :]
            )

        if rule in _TRIPLE_RULES:
            if not 0 <= p <= len(letters) - 3:
                raise InapplicableMoveError(f"{rule} position out of range")
            a, b, c = letters[p], letters[p + 1], letters[p + 2]
            if not _triple_matches(rule, a, b, c):
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


# Rules matched on two or three adjacent letters, in candidate order.
_PAIR_RULES = (R_CANCEL, R_SIGMA_TAU_SAME, R_FAR_SIGMA_SIGMA, R_FAR_SIGMA_TAU, R_FAR_TAU_TAU)
_TRIPLE_RULES = (R_BRAID, R_SIGMA_SIGMA_TAU)


def _pair_matches(rule: str, a: Generator, b: Generator) -> bool:
    if rule == R_CANCEL:
        return a.kind != TAU and b.kind == -a.kind and b.index == a.index
    if rule == R_SIGMA_TAU_SAME:
        return a.index == b.index and {a.kind, b.kind} == {SIGMA, TAU}
    if abs(a.index - b.index) < 2:
        return False
    kinds = (a.kind, b.kind)
    if rule == R_FAR_SIGMA_SIGMA:
        return kinds == (SIGMA, SIGMA)
    if rule == R_FAR_SIGMA_TAU:
        return kinds in ((SIGMA, TAU), (TAU, SIGMA))
    if rule == R_FAR_TAU_TAU:
        return kinds == (TAU, TAU)
    return False


def _triple_matches(rule: str, a: Generator, b: Generator, c: Generator) -> bool:
    # every triple rule reads k l k with |k - l| = 1
    if a.index != c.index or abs(a.index - b.index) != 1:
        return False
    kinds = (a.kind, b.kind, c.kind)
    if rule == R_BRAID:
        return kinds == (SIGMA, SIGMA, SIGMA)
    if rule == R_SIGMA_SIGMA_TAU:
        return kinds in ((SIGMA, SIGMA, TAU), (TAU, SIGMA, SIGMA))
    return False


def apply_move(word: SingularBraidWord, move: MarkovMove) -> SingularBraidWord:
    return move.apply(word)


def relation_move_candidates(word: SingularBraidWord) -> list[RelationMove]:
    """All in-place relation instances (everything except inserts)."""
    letters = word.letters
    out: list[RelationMove] = []
    for p in range(len(letters) - 1):
        a, b = letters[p], letters[p + 1]
        out.extend(RelationMove(rule, p) for rule in _PAIR_RULES if _pair_matches(rule, a, b))
    for p in range(len(letters) - 2):
        a, b, c = letters[p], letters[p + 1], letters[p + 2]
        out.extend(
            RelationMove(rule, p) for rule in _TRIPLE_RULES if _triple_matches(rule, a, b, c)
        )
    return out


def random_move_sequence(
    word: SingularBraidWord,
    length: int,
    seed: int,
    max_strands: int | None = None,
    max_length: int | None = None,
) -> list[tuple[MarkovMove, SingularBraidWord]]:
    """Seeded sequence of applicable moves; each entry is (move, resulting word)."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if max_strands is None:
        max_strands = word.strands + 2
    if max_length is None:
        max_length = len(word.letters) + 16
    rng = random.Random(seed)
    out: list[tuple[MarkovMove, SingularBraidWord]] = []
    current = word
    for _ in range(length):
        move = _sample_move(rng, current, max_strands, max_length)
        current = move.apply(current)
        out.append((move, current))
    return out


def _sample_move(
    rng: random.Random,
    word: SingularBraidWord,
    max_strands: int,
    max_length: int,
) -> MarkovMove:
    n = word.strands
    length = len(word.letters)
    for _ in range(32):
        roll = rng.random()
        if roll < 0.35:
            candidates = relation_move_candidates(word)
            if candidates:
                return rng.choice(candidates)
        elif roll < 0.50:
            if length >= 2:
                return CyclicShift(rng.randrange(1, length))
        elif roll < 0.62:
            if n >= 2 and length + 2 <= max_length:
                return RelationMove(
                    R_INSERT,
                    rng.randrange(length + 1),
                    index=rng.randrange(1, n),
                    sign=rng.choice((1, -1)),
                )
        elif roll < 0.76:
            if n >= 2 and length + 4 <= max_length:
                size = rng.randint(1, 2)
                letters = tuple(
                    Generator(rng.choice((SIGMA, SIGMA_INV)), rng.randrange(1, n))
                    for _ in range(size)
                )
                return Conjugate(SingularBraidWord(n, letters))
        elif roll < 0.88:
            if n + 1 <= max_strands and length + 1 <= max_length:
                return StabilizeUp(rng.choice((1, -1)))
        else:
            move = StabilizeDown()
            try:
                move.apply(word)
            except InapplicableMoveError:
                continue
            return move
    return CyclicShift(1 if length >= 2 else 0)


def shuffle_braid(n: int, m: int) -> SingularBraidWord:
    """Positive permutation braid on n+m strands moving the bottom n-strand
    block above the m-strand block; a reduced word of length n*m.

    Conjugating ``stack(b, a)`` by this word yields a word relation-equivalent
    to ``stack(a, b)`` when a has n strands and b has m.
    """
    if n < 1 or m < 1:
        raise ValueError("both block sizes must be >= 1")
    letters = tuple(
        Generator(SIGMA, j) for i in range(n, 0, -1) for j in range(i, i + m)
    )
    return SingularBraidWord(n + m, letters)
