"""BS(1,m) in affine normal form, and the rectangle and interval shapes
{a_1^i a_2^l}.

An element is the affine map x -> m^e * x + num / m^d with d == 0 or
m not dividing num; this normal form makes equality, hashing, integer
products and the arithmetic permutation model immediate.  Convention:
(g * h)(x) = g(h(x)), a_1 is x -> x/m, a_2 is x -> x + 1.
"""

from __future__ import annotations

from collections import namedtuple


class BaseMismatchError(ValueError):
    """Elements over different bases m were combined."""


class BsElement(namedtuple("BsElement", "m e num d")):
    """x -> m^e * x + num / m^d, normalized (d == 0 or m does not divide num).

    A tuple underneath, so hashing and equality, the work of every table
    lookup, run in C; the hash is that of (m, e, num, d).  An element equals
    the plain tuple of its fields.  Elements have no order (sort them by
    sort_key), and tuple concatenation and repetition are refused."""

    __slots__ = ()

    def __new__(cls, m: int, e: int, num: int, d: int) -> "BsElement":
        if m < 2:
            raise ValueError("base m must be >= 2")
        if d < 0:
            raise ValueError("denominator exponent must be >= 0")
        if d > 0 and num % m == 0:
            raise ValueError(f"not normalized: m={m} divides num={num} with d={d}")
        return tuple.__new__(cls, (m, e, num, d))

    @classmethod
    def _make(cls, iterable) -> "BsElement":
        # namedtuple's _make, which _replace calls, would skip the checks
        return cls(*iterable)

    def _refused(self, other):
        raise TypeError("BsElement has no order and no tuple arithmetic; "
                        "sort by BsElement.sort_key")

    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __radd__ = __rmul__ = _refused

    def is_identity(self) -> bool:
        return self.e == 0 and self.num == 0

    def __mul__(self, other: "BsElement") -> "BsElement":
        # g(h(x)) = m^(eg+eh) x + m^eg * bh + bg, over the common denominator
        # m^D; the loop normalizes it as _normal does, and the product of two
        # valid elements needs no other check, so the result skips __new__'s
        m, e, num, d = self
        m_h, e_h, num_h, d_h = other
        if m != m_h:
            raise BaseMismatchError(f"bases {m} != {m_h}")
        D = max(d_h - e, d)
        num = num_h * m ** (D + e - d_h) + num * m ** (D - d)
        while D > 0 and num % m == 0:
            num //= m
            D -= 1
        return tuple.__new__(BsElement, (m, e + e_h, num, D))

    def inverse(self) -> "BsElement":
        # g^-1(x) = m^-e x - num / m^(d+e), normalized as in __mul__
        m, e, num, d = self
        D = max(d + e, 0)
        num = -num * m ** (D - d - e)
        while D > 0 and num % m == 0:
            num //= m
            D -= 1
        return tuple.__new__(BsElement, (m, -e, num, D))

    def sort_key(self):
        return (self.e, self.d, self.num)

    def to_obj(self) -> dict:
        """The JSON form used by every certificate and approximation."""
        return {"m": self.m, "e": self.e, "num": self.num, "d": self.d}

    @classmethod
    def from_obj(cls, obj) -> "BsElement":
        return cls(*(json_int(obj[field], field) for field in ("m", "e", "num", "d")))


def json_int(value, field: str) -> int:
    """value, when it is a JSON integer; a float, a string or a bool (which
    Python counts as an int) raises."""
    if type(value) is not int:
        raise ValueError(f"{field} = {value!r} is not a JSON integer")
    return value


def _normal(m: int, e: int, num: int, d: int) -> BsElement:
    """x -> m^e x + num / m^d with the least d."""
    while d > 0 and num % m == 0:
        num //= m
        d -= 1
    return BsElement(m, e, num, d)


def bs_a1(m: int) -> BsElement:
    """a_1: x -> x/m."""
    return BsElement(m, -1, 0, 0)


def bs_a2(m: int) -> BsElement:
    """a_2: x -> x + 1."""
    return BsElement(m, 0, 1, 0)


# ---------------------------------------------------------------------------
# Shapes

def bs_rectangle(rows: int, cols: int, m: int) -> frozenset:
    """{a_1^i a_2^l : 0 <= i < rows, 0 <= l < cols}."""
    out = set()
    for i in range(rows):
        for ell in range(cols):
            out.add(_normal(m, -i, ell, i))
    return frozenset(out)


def a2_interval(length: int, m: int) -> frozenset:
    """{a_2^l : 0 <= l < length}; the Z-model Folner interval."""
    return frozenset(BsElement(m, 0, ell, 0) for ell in range(length))
