"""Permutations of {0..n-1}, the exact normalized Hamming metric, cycle
walks, and k-fold iteration of a map of {0..n-1}."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Sequence, Union

import numpy as np


class DegreeMismatchError(ValueError):
    """Two permutations of different degrees were combined."""


@dataclass(frozen=True)
class HammingValue:
    """Normalized Hamming distance, stored as numerator over degree.

    Kept exact: downstream threshold arithmetic (eps/7 bookkeeping,
    certificate margins) must not go through floats.
    """

    numerator: int
    n: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("degree must be positive")
        if not 0 <= self.numerator <= self.n:
            raise ValueError(f"numerator {self.numerator} outside [0, {self.n}]")

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.n)

    def _other(self, other) -> Fraction:
        if isinstance(other, HammingValue):
            return other.value
        return Fraction(other)

    def __lt__(self, other) -> bool:
        return self.value < self._other(other)

    def __le__(self, other) -> bool:
        return self.value <= self._other(other)

    def __gt__(self, other) -> bool:
        return self.value > self._other(other)

    def __ge__(self, other) -> bool:
        return self.value >= self._other(other)


class Permutation:
    """A bijection of {0..n-1} stored as its read-only image array.

    An untrusted image is copied and checked.  A trusted one is kept as
    handed over, converted only if it is not int64, and marked read-only:
    its caller vouches that it is a bijection and that nothing writes to it
    afterwards (a fresh array, or a window of a read-only table)."""

    __slots__ = ("image",)

    def __init__(self, image: Union[Sequence[int], np.ndarray], *, _trusted: bool = False):
        img = np.asarray(image, dtype=np.int64) if _trusted else np.array(image, dtype=np.int64)
        if img.ndim != 1 or img.size == 0:
            raise ValueError("image must be a non-empty 1-d array")
        if not _trusted:
            n = img.size
            if img.min() < 0 or img.max() >= n:
                raise ValueError("image values outside {0..n-1}")
            if np.bincount(img, minlength=n).max() > 1:
                raise ValueError("image is not a bijection")
        img.setflags(write=False)
        self.image = img

    @property
    def n(self) -> int:
        return int(self.image.size)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n, dtype=np.int64), _trusted=True)

    def __call__(self, i: int) -> int:
        return int(self.image[i])

    def compose(self, other: "Permutation") -> "Permutation":
        """(p.compose(q))(i) = p(q(i))."""
        if self.n != other.n:
            raise DegreeMismatchError(f"degrees {self.n} != {other.n}")
        return Permutation(self.image[other.image], _trusted=True)

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.image] = np.arange(self.n, dtype=np.int64)
        return Permutation(inv, _trusted=True)

    def __pow__(self, k: int) -> "Permutation":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = Permutation.identity(self.n)
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base)
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.image, np.arange(self.n)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.image, other.image)

    def __repr__(self) -> str:
        return f"Permutation({self.image.tolist()})"

    def cycle_lengths(self) -> list:
        return [len(cycle) for cycle in _cycles(self.image)]

    def fixed_point_count(self) -> int:
        return int(np.count_nonzero(self.image == np.arange(self.n)))


def _cycles(image: np.ndarray) -> Iterator[List[int]]:
    """The cycles of i -> image[i], each from its smallest point, in order
    of that point."""
    img = image.tolist()
    seen = [False] * len(img)
    for start in range(len(img)):
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = img[i]
        if cycle:
            yield cycle


def orbit_order(p: Permutation) -> np.ndarray:
    """All points in cycle-traversal order: repeatedly start from the
    smallest unvisited point and follow the cycle.  Relabeling p by a
    conjugation permutes this order blockwise up to cycle phase."""
    return np.array([i for cycle in _cycles(p.image) for i in cycle], dtype=np.int64)


def hamming(p: Permutation, q: Permutation) -> HammingValue:
    """Number of points where p and q differ, over the degree."""
    if p.n != q.n:
        raise DegreeMismatchError(f"degrees {p.n} != {q.n}")
    return HammingValue(int(np.count_nonzero(p.image != q.image)), p.n)


def displacement(p: Permutation) -> HammingValue:
    """Hamming distance from the identity."""
    return HammingValue(p.n - p.fixed_point_count(), p.n)


def iterate(image: np.ndarray, k: int) -> np.ndarray:
    """Image array of the k-fold iterate of i -> image[i], by applying the
    map k times; the array need not be a permutation."""
    y = np.arange(image.size, dtype=np.int64)
    for _ in range(k):
        y = image[y]
    return y
