"""Singular braid words.

A word on ``n`` strands is a sequence of letters ``s<i>`` (positive
crossing), ``S<i>`` (negative crossing) and ``t<i>`` (singular crossing,
a double point) with ``1 <= i <= n-1``.  Words are the data model; no
attempt is made to decide word equivalence syntactically.  Instead, the
moves of ``singskein.moves`` produce words with isotopic closures, and
downstream invariants are checked for invariance under them.  The
one rewriting done here is ``_reduced``, the free cancellation that the
Hecke fold runs before it folds a word.

The acceptance tests and the benchmark, whose files stay as they are,
import some moved names from here, which ``_forward`` (it also serves
``hecke``, ``markov`` and ``skein``) reads from their homes:
``RelationMove`` and ``random_move_sequence`` from ``moves``, and ``stack``
and ``with_strands``, which only the tests and the reference engines use,
from ``oracle``.  Nothing else is forwarded: the other tests import the
oracle's word helpers from ``oracle``.
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
    "component_count",
]


def _forward(module: str, **homes):
    """A PEP 562 ``__getattr__`` for ``module`` that reads each name of
    ``homes[home]`` from ``singskein.<home>``, imported on first use: names
    moved to ``home`` that the tests and the benchmark still import from
    ``module``."""
    home_of = {name: home for home, names in homes.items() for name in names}

    def __getattr__(name):
        home = home_of.get(name)
        if home is not None:
            return getattr(importlib.import_module(f"singskein.{home}"), name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return __getattr__


# the closure-preserving moves and their fuzzer, and the word helpers of the
# reference engines
__getattr__ = _forward(
    __name__,
    moves={"RelationMove", "random_move_sequence"},
    oracle={"stack", "with_strands"},
)


SIGMA = 1
SIGMA_INV = -1
TAU = 0

_KIND_TOKEN = {SIGMA: "s", SIGMA_INV: "S", TAU: "t"}
_TOKEN_KIND = {token: kind for kind, token in _KIND_TOKEN.items()}


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
    ``__slots__``, and ``Name(*values)`` sets them in that order with
    ``_set``, or raises ``TypeError`` when it gets one value too few or too
    many.  A record is immutable (setting or deleting any attribute raises
    ``AttributeError``), equal only to a record of its own class with equal
    fields, hashed by its fields and shown as ``Name(field=value, ...)``.
    A subclass writes its own ``__init__`` only to validate, set defaults or
    take keywords, and ends it with ``_set``; it may override the repr or
    the hash (which a dict field needs, being unhashable).

    The fields are read from ``cls.__slots__``, so a subclass that adds no
    field declares no ``__slots__``: an empty tuple there would hide its
    base's fields, and ``_set`` would write nothing and ``==`` compare
    nothing.  The trusted ``_raw`` constructors of the ``coeff`` values
    write their two slots with ``object.__setattr__`` rather than ``_set``:
    they build every value of the production path, and through ``_set`` a
    ``RationalFunction._raw`` of two ``MultivariatePolynomial._raw`` takes
    about a third longer, and the benchmark's two in-process workloads ran
    at 0.985x and 0.987x the operations per second (2 cores, Python 3.11)."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        # _fields(record), the tuple of its fields, is one C call for two or
        # more fields, as records key --verify's memo; attrgetter returns a
        # bare value for one name, so that case is wrapped
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if len(names) == 1:
            get = attrgetter(names[0])
            cls._fields = staticmethod(lambda record: (get(record),))
        else:
            cls._fields = staticmethod(attrgetter(*names) if names else lambda record: ())

    def __init__(self, *values):
        fields = self.__slots__
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} values {fields}, got {len(values)}")
        self._set(*values)

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
_CHUNK_RE = re.compile(r"\S+")  # a token: the characters str.split() keeps together


def parse(text: str, strands: int | None = None) -> SingularBraidWord:
    """Parse whitespace-separated tokens like ``"s1 S2 t1"``.

    Without an explicit strand count the word gets 1 + its largest index
    (1 for the empty word).
    """
    letters: list[Generator] = []
    for chunk in _CHUNK_RE.finditer(text):
        token = chunk.group()
        match = _TOKEN_RE.fullmatch(token)
        if not match:
            raise BraidSyntaxError(f"bad token {token!r}", chunk.start())
        index = int(match.group(2))
        if index < 1:
            raise BraidSyntaxError(f"index must be >= 1 in {token!r}", chunk.start())
        letters.append(Generator(_TOKEN_KIND[match.group(1)], index))
    if strands is None:
        strands = 1 + max((g.index for g in letters), default=0)
    return SingularBraidWord(strands, tuple(letters))


def exponent_sum(word: SingularBraidWord) -> int:
    """Writhe: +1 per positive crossing, -1 per negative, 0 per double point."""
    return sum(g.kind for g in word.letters if g.kind != TAU)


def component_count(word: SingularBraidWord) -> int:
    """Components of the word's closure: the cycles of the strand table
    (position -> strand ending there), the inverse of
    ``oracle.underlying_permutation``, so they have the same number of
    cycles."""
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
