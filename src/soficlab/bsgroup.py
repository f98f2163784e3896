"""BS(1,m) in affine normal form, freely reduced words, presentations,
and the rectangular Folner sets a_1^i a_2^l.

An element is the affine map x -> m^e * x + num / m^d with d == 0 or
m not dividing num; this normal form makes equality, hashing and the
arithmetic permutation model immediate.  Convention throughout:
(g * h)(x) = g(h(x)), a_1 is x -> x/m, a_2 is x -> x + 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Tuple


class BaseMismatchError(ValueError):
    """Elements over different bases m were combined."""


class BudgetExceededError(ValueError):
    """A Folner set would exceed the configured size budget."""


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


def bs_from_affine(m: int, e: int, b: Fraction) -> BsElement:
    return _from_affine(m, e, Fraction(b))


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


def word_inverse(w: Word) -> Word:
    return tuple((gen, -exp) for gen, exp in reversed(w))


def word_concat(a: Word, b: Word) -> Word:
    return reduce_word(list(a) + list(b))


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
# Folner sets

def folner_set(j: int, M: int, m: int, budget: int = 10_000_000) -> frozenset:
    """The rectangle {a_1^i a_2^l : 0 <= i < 2j, 0 <= l < 2M m^(2j)}."""
    if j < 1 or M < 1:
        raise ValueError("j and M must be >= 1")
    width = 2 * M * m ** (2 * j)
    size = 2 * j * width
    if size > budget:
        raise BudgetExceededError(f"Folner set of size {size} exceeds budget {budget}")
    return bs_rectangle(2 * j, width, m)


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


@dataclass(frozen=True)
class FolnerReport:
    translate_ratio: Fraction       # |sF delta F| / |F|
    growth_ratio: Fraction          # |(F_prev^-1 F) \ F| / |F|
    translate_ok: Optional[bool]    # vs 1/j, None when j not supplied
    growth_ok: bool                 # vs eta


def folner_diagnostics(F_prev: Iterable[BsElement], F: Iterable[BsElement],
                       s: BsElement, eta, j: Optional[int] = None) -> FolnerReport:
    F = frozenset(F)
    F_prev = frozenset(F_prev)
    if not F:
        raise ValueError("F is empty")
    sF = {s * g for g in F}
    translate = Fraction(len(sF ^ F), len(F))
    prod = {g.inverse() * h for g in F_prev for h in F}
    growth = Fraction(len(prod - F), len(F))
    translate_ok = None if j is None else translate <= Fraction(1, j)
    return FolnerReport(translate, growth, translate_ok, growth <= Fraction(eta))


# ---------------------------------------------------------------------------
# Presentations

@dataclass(frozen=True)
class Presentation:
    generators: Tuple[str, ...]
    relators: Tuple[Word, ...]

    def __post_init__(self) -> None:
        for rel in self.relators:
            if not rel:
                raise ValueError("empty relator")
            if rel != reduce_word(rel):
                raise ValueError(f"relator {rel} is not freely reduced")

    def to_json(self) -> str:
        return json.dumps({
            "generators": list(self.generators),
            "relators": [[[gen, exp] for gen, exp in rel] for rel in self.relators],
        })

    @classmethod
    def from_json(cls, text: str) -> "Presentation":
        data = json.loads(text)
        return cls(
            tuple(data["generators"]),
            tuple(tuple((gen, int(exp)) for gen, exp in rel) for rel in data["relators"]),
        )


def bs_presentation(m: int) -> Presentation:
    """<a1, a2 | a1^-1 a2 a1 a2^-m>."""
    rel = reduce_word([("a1", -1), ("a2", 1), ("a1", 1), ("a2", -m)])
    return Presentation(("a1", "a2"), (rel,))


def higman_presentation(n: int, m: int) -> Presentation:
    """Generators a1..an with a_i^-1 a_(i+1) a_i = a_(i+1)^m cyclically."""
    gens = tuple(f"a{i}" for i in range(1, n + 1))
    relators = []
    for i in range(n):
        a, b = gens[i], gens[(i + 1) % n]
        relators.append(reduce_word([(a, -1), (b, 1), (a, 1), (b, -m)]))
    return Presentation(gens, tuple(relators))


def cyclic_extension_presentation(m: int) -> Presentation:
    """(Z/4Z) acting on H_{4,m}: t^4 = e and t a_i t^-1 = a_(i+1) cyclically,
    together with the H_{4,m} relators."""
    base = higman_presentation(4, m)
    gens = base.generators + ("t",)
    relators = list(base.relators)
    relators.append((("t", 4),))
    for i in range(4):
        a, b = base.generators[i], base.generators[(i + 1) % 4]
        relators.append(reduce_word([("t", 1), (a, 1), ("t", -1), (b, -1)]))
    return Presentation(gens, tuple(relators))
