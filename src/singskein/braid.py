"""Singular braid words.

A word on ``n`` strands is a sequence of letters ``s<i>`` (positive
crossing), ``S<i>`` (negative crossing) and ``t<i>`` (singular crossing,
a double point) with ``1 <= i <= n-1``.  Words are the data model; no
attempt is made to decide word equivalence syntactically.  Instead, the
moves of ``singskein.moves`` produce words with isotopic closures, and
downstream invariants are checked for invariance under them.  The
acceptance tests and the benchmark import ``RelationMove`` and
``random_move_sequence`` from here, so ``_forward``, which also serves
``hecke``, ``markov`` and ``skein``, reads those from ``singskein.moves``.
The one rewriting done here is ``_reduced``, the free cancellation that
the Hecke fold runs before it folds a word.
"""

from __future__ import annotations

import importlib
import re
from collections import deque
from operator import attrgetter

__all__ = [
    "SIGMA",
    "SIGMA_INV",
    "TAU",
    "Generator",
    "SingularBraidWord",
    "BraidSyntaxError",
    "StrandIndexError",
    "InapplicableMoveError",
    "parse",
    "exponent_sum",
    "underlying_permutation",
    "component_count",
    "stack",
    "with_strands",
    "inverse_word",
    "shuffle_braid",
]


def _forward(module: str, home: str, names: frozenset):
    """A PEP 562 ``__getattr__`` for ``module`` that reads each of ``names``
    from ``singskein.<home>``, imported on first use: names moved to
    ``home`` that the acceptance tests and the benchmark still import from
    ``module``."""

    def __getattr__(name):
        if name in names:
            return getattr(importlib.import_module(f"singskein.{home}"), name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return __getattr__


# the closure-preserving moves and their fuzzer
__getattr__ = _forward(__name__, "moves", frozenset({"RelationMove", "random_move_sequence"}))


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
    """Base of every value class in the package: the fields are
    ``__slots__``, which a subclass's ``__init__`` sets in that order with
    ``_set``.  A record is immutable (setting or deleting any attribute
    raises ``AttributeError``), equal only to a record of its own class with
    equal fields, hashed by its fields and shown as
    ``Name(field=value, ...)``.  A subclass keeps its own validation,
    defaults and keyword arguments, and may override the repr or the hash
    (which a dict field needs, being unhashable).

    The fields are read from ``cls.__slots__``, so a subclass that adds no
    field declares no ``__slots__``: an empty tuple there would hide its
    base's fields, and ``_set`` would write nothing and ``==`` compare
    nothing.  The trusted ``_raw`` constructors of the ``coeff`` values
    write their two slots with ``object.__setattr__`` rather than ``_set``:
    they build every value of the production path, and through ``_set`` a
    ``RationalFunction._raw`` of two ``MultivariatePolynomial._raw`` takes
    about a third longer."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        # _fields(record), the tuple of its fields, is one C call for two or
        # more fields, as records key the CLI's memos; attrgetter returns a
        # bare value for one name, so that case is wrapped
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if len(names) == 1:
            get = attrgetter(names[0])
            cls._fields = staticmethod(lambda record: (get(record),))
        else:
            cls._fields = staticmethod(attrgetter(*names) if names else lambda record: ())

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

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


def underlying_permutation(word: SingularBraidWord):
    """Strand start -> strand end, a ``permutations.Permutation``; every
    letter (tau included) swaps strands."""
    from .permutations import Permutation

    position_of = list(range(word.strands + 1))  # strand k sits at position_of[k]
    strand_at = list(range(word.strands + 1))  # inverse table
    for g in word.letters:
        i = g.index
        a, b = strand_at[i], strand_at[i + 1]
        strand_at[i], strand_at[i + 1] = b, a
        position_of[a], position_of[b] = i + 1, i
    return Permutation(position_of[1:])


def component_count(word: SingularBraidWord) -> int:
    """Components of the word's closure: the cycles of the strand table
    (position -> strand ending there), the inverse of
    ``underlying_permutation``, so they have the same number of cycles."""
    strand_at = list(range(word.strands))
    for g in word.letters:
        i = g.index
        strand_at[i - 1], strand_at[i] = strand_at[i], strand_at[i - 1]
    count = 0
    for start in range(word.strands):
        if strand_at[start] is not None:
            count += 1
            k = start
            while strand_at[k] is not None:
                strand_at[k], k = None, strand_at[k]
    return count


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


def _reduced(letters: tuple) -> tuple:
    """``letters`` with every pair s_i^e ... s_i^-e cancelled whose letters
    in between, going round the word, all commute with s_i (index at least 2
    away, or t_i): one pass left to right, then the pairs that meet across
    the wrap, a letter s_i^e that commutes with every letter before it and
    an s_i^-e that commutes with every letter after it.  The result is equal
    to a conjugate of the word in the singular braid monoid, so its closure
    is the word's.  Double points are never cancelled and the exponent sum
    is kept.

    Each letter looks only at its own index and the two next to it:
    ``crossings[i]`` holds the positions of the kept crossings at index i in
    order, and ``near[i]`` those of every letter at i, which block i - 1 and
    i + 1.  A cancelled letter becomes None in ``out`` and is dropped from
    the ends of ``near`` as it is met, so the pass is linear."""
    out: list = []
    crossings: dict[int, deque] = {}
    near: dict[int, deque] = {}

    def last(i: int) -> int:  # the position of the last letter at i, or -1
        seen = near.get(i)
        while seen and out[seen[-1]] is None:
            seen.pop()
        return seen[-1] if seen else -1

    for g in letters:
        i = g.index
        if g.kind != TAU:
            mine = crossings.get(i)
            if mine is None:
                mine = crossings[i] = deque()
            elif mine and out[mine[-1]].kind == -g.kind and last(i - 1) < mine[-1] > last(i + 1):
                out[mine.pop()] = None
                continue
            mine.append(len(out))
        seen = near.get(i)
        if seen is None:
            seen = near[i] = deque()
        seen.append(len(out))
        out.append(g)

    def first(i: int) -> int:  # the position of the first letter at i, or len(out)
        seen = near.get(i)
        while seen and out[seen[0]] is None:
            seen.popleft()
        return seen[0] if seen else len(out)

    # a cancellation can only free the pairs at its own index and the
    # two next to it, so those are looked at again, and nothing else
    work = list(crossings)
    while work:
        i = work.pop()
        mine = crossings.get(i)
        if mine is None or len(mine) < 2:
            continue
        a, b = mine[0], mine[-1]
        if (
            out[a].kind == -out[b].kind
            and a < min(first(i - 1), first(i + 1))
            and b > max(last(i - 1), last(i + 1))
        ):
            out[mine.popleft()] = out[mine.pop()] = None
            work += (i - 1, i, i + 1)
    return tuple(g for g in out if g is not None)


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
