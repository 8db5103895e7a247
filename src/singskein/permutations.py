"""Permutations of {1, ..., n} in one-line notation.

``Permutation((2, 1, 3))`` is the map sending 1 to 2, 2 to 1, 3 to 3.  The
adjacent transposition swapping i and i+1 is written ``s_i``; composition
``a.compose(b)`` means "b first, then a".  Right multiplication by ``s_i``
swaps the entries at positions i, i+1 of the one-line notation, and raises
the inversion count exactly when ``image[i-1] < image[i]``.

Reference code: the oracle's Hecke algebra and the tests use it, and no
CLI run imports it.
"""

from __future__ import annotations

from typing import Sequence

from .braid import Record

__all__ = ["Permutation"]


class Permutation(Record):
    __slots__ = ("image",)

    def __init__(self, image: Sequence[int]):
        image = tuple(image)
        if sorted(image) != list(range(1, len(image) + 1)):
            raise ValueError(f"not a permutation of 1..{len(image)}: {image}")
        self._set(image)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def adjacent_transposition(cls, n: int, i: int) -> "Permutation":
        if not 1 <= i <= n - 1:
            raise ValueError(f"transposition index {i} out of range for n={n}")
        image = list(range(1, n + 1))
        image[i - 1], image[i] = image[i], image[i - 1]
        return cls(image)

    @property
    def size(self) -> int:
        return len(self.image)

    def __call__(self, k: int) -> int:
        return self.image[k - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(k) = self(other(k))."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.image[j - 1] for j in other.image))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for k, v in enumerate(self.image, start=1):
            inv[v - 1] = k
        return Permutation(inv)

    def inversions(self) -> int:
        """Coxeter length: the number of inversions."""
        img = self.image
        n = len(img)
        return sum(1 for a in range(n) for b in range(a + 1, n) if img[a] > img[b])

    @property
    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.image, start=1))

    def largest_moved_point(self) -> int:
        for k in range(self.size, 0, -1):
            if self.image[k - 1] != k:
                return k
        return 0

    def right_multiplied(self, i: int) -> "Permutation":
        """self * s_i (swap entries at positions i, i+1)."""
        img = list(self.image)
        img[i - 1], img[i] = img[i], img[i - 1]
        return Permutation(img)

    def has_right_descent(self, i: int) -> bool:
        return self.image[i - 1] > self.image[i]

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word (i_1, ..., i_k) with self = s_{i_1} ∘ ... ∘ s_{i_k}."""
        img = list(self.image)
        picked: list[int] = []
        while True:
            for i in range(len(img) - 1):
                if img[i] > img[i + 1]:
                    img[i], img[i + 1] = img[i + 1], img[i]
                    picked.append(i + 1)
                    break
            else:
                break
        return tuple(reversed(picked))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.size
        out: list[tuple[int, ...]] = []
        for start in range(1, self.size + 1):
            if seen[start - 1]:
                continue
            cycle = []
            k = start
            while not seen[k - 1]:
                seen[k - 1] = True
                cycle.append(k)
                k = self.image[k - 1]
            out.append(tuple(cycle))
        return out

    def cycle_count(self) -> int:
        return len(self.cycles())

    def block_sum(self, other: "Permutation") -> "Permutation":
        shift = self.size
        return Permutation(self.image + tuple(v + shift for v in other.image))

    def __repr__(self) -> str:
        return f"Permutation({self.image})"
