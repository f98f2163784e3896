"""BS(1,m) in affine normal form, freely reduced words, and the rectangle
and interval shapes {a_1^i a_2^l}.

An element is the affine map x -> m^e * x + num / m^d with d == 0 or
m not dividing num; this normal form makes equality, hashing and the
arithmetic permutation model immediate.  Convention throughout:
(g * h)(x) = g(h(x)), a_1 is x -> x/m, a_2 is x -> x + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Tuple


class BaseMismatchError(ValueError):
    """Elements over different bases m were combined."""


Letter = Tuple[str, int]
Word = Tuple[Letter, ...]


@dataclass(frozen=True)
class BsElement:
    """x -> m^e * x + num / m^d, normalized (d == 0 or m does not divide num)."""

    m: int
    e: int
    num: int
    d: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("base m must be >= 2")
        if self.d < 0:
            raise ValueError("denominator exponent must be >= 0")
        if self.d > 0 and self.num % self.m == 0:
            raise ValueError(f"not normalized: m={self.m} divides num={self.num} with d={self.d}")

    @property
    def shift(self) -> Fraction:
        return Fraction(self.num, self.m ** self.d)

    def is_identity(self) -> bool:
        return self.e == 0 and self.num == 0

    def apply(self, x: Fraction) -> Fraction:
        return Fraction(self.m) ** self.e * x + self.shift

    def _check_base(self, other: "BsElement") -> None:
        if self.m != other.m:
            raise BaseMismatchError(f"bases {self.m} != {other.m}")

    def __mul__(self, other: "BsElement") -> "BsElement":
        self._check_base(other)
        # g(h(x)) = m^(eg+eh) x + m^eg * bh + bg
        b = Fraction(self.m) ** self.e * other.shift + self.shift
        return _from_affine(self.m, self.e + other.e, b)

    def inverse(self) -> "BsElement":
        b = -self.shift * Fraction(self.m) ** (-self.e)
        return _from_affine(self.m, -self.e, b)

    def __pow__(self, k: int) -> "BsElement":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = bs_identity(self.m)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def sort_key(self):
        return (self.e, self.d, self.num)

    def to_obj(self) -> dict:
        """The JSON form used by every certificate and approximation."""
        return {"m": self.m, "e": self.e, "num": self.num, "d": self.d}

    @classmethod
    def from_obj(cls, obj) -> "BsElement":
        return cls(int(obj["m"]), int(obj["e"]), int(obj["num"]), int(obj["d"]))


def _from_affine(m: int, e: int, b: Fraction) -> BsElement:
    """Normalize the shift b = num / m^d with minimal d."""
    d = 0
    scaled = b
    while scaled.denominator != 1:
        scaled *= m
        d += 1
        if d > 10_000:
            raise ValueError(f"shift {b} is not an m-adic rational for m={m}")
    return BsElement(m, e, int(scaled), d)


def bs_identity(m: int) -> BsElement:
    return BsElement(m, 0, 0, 0)


def bs_a1(m: int) -> BsElement:
    """a_1: x -> x/m."""
    return BsElement(m, -1, 0, 0)


def bs_a2(m: int) -> BsElement:
    """a_2: x -> x + 1."""
    return BsElement(m, 0, 1, 0)


# ---------------------------------------------------------------------------
# Words

def reduce_word(letters: Iterable[Letter]) -> Word:
    """Freely reduce: drop zero exponents, merge adjacent equal generators."""
    out: list = []
    for gen, exp in letters:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged != 0:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


def canonical_word(g: BsElement) -> Word:
    """a_1^d a_2^num a_1^(-e-d); evaluates back to g in the affine action."""
    return reduce_word([("a1", g.d), ("a2", g.num), ("a1", -g.e - g.d)])


def word_value(w: Iterable[Letter], images: Mapping, identity):
    """Evaluate [(gen, exp), ...] left to right as images[gen] ** exp under
    (g * h)(x) = g(h(x)).  Works for any type with * and ** (elements,
    permutations); inverse letters use exact inverses, so w * w^-1 cancels."""
    result = identity
    for gen, exp in w:
        if gen not in images:
            raise KeyError(f"generator {gen!r} has no image")
        result = result * (images[gen] ** exp)
    return result


def evaluate_word(w: Word, m: int) -> BsElement:
    """Evaluate a word in generators a1, a2 to a normalized element."""
    return word_value(w, {"a1": bs_a1(m), "a2": bs_a2(m)}, bs_identity(m))


# ---------------------------------------------------------------------------
# Shapes

def bs_rectangle(rows: int, cols: int, m: int) -> frozenset:
    """{a_1^i a_2^l : 0 <= i < rows, 0 <= l < cols}."""
    out = set()
    for i in range(rows):
        for ell in range(cols):
            out.add(_from_affine(m, -i, Fraction(ell, m ** i)))
    return frozenset(out)


def a2_interval(length: int, m: int) -> frozenset:
    """{a_2^l : 0 <= l < length}; the Z-model Folner interval."""
    return frozenset(BsElement(m, 0, ell, 0) for ell in range(length))
