"""Sofic approximations as data, the defect/displacement check, the exact
arithmetic model of BS(1,m) and block amplification.

The arithmetic model psi sends g = (e, num, d) to the permutation
x -> a x - b (mod n) with a = m^e and b = num * m^-d; in particular
psi(a_2) = x - 1 and psi(a_1) = m^-1 x.  It is a homomorphism by
construction, so its multiplicativity defect is identically zero.

psi(g) is an AffinePermutation: it carries its form (a, b), and its image
array is read only when asked, as a window of one table per dilation.  Two
affine maps mod n agree exactly on the solutions of one linear congruence,
so on an approximation whose permutations are all affine, check_sofic (and
tiling's B-mask) read defects, fixed points and agreement sets off the
forms with exact integer steps, independent of n, and read no image.

A conjugated approximation g -> sigma phi(g) sigma^-1 holds
RelabelledPermutations: each carries its base phi(g) and the one pair
(sigma, sigma^-1) shared by the whole table, and gathers its image
sigma[phi(g)[sigma^-1]] only when it is read.  Relabelling moves every
agreement set by sigma, so tiling's B-mask of such a table is the base's
mask read at sigma^-1 x, and reaches the congruences when the base is the
model.  Any other table (amplified, or holding a plain Permutation or
permutations relabelled by different pairs) takes the table route, which
compares image arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from .bsgroup import BsElement
from .expcycles import MAX_MODULUS
from .perm import DegreeMismatchError, HammingValue, Permutation, displacement, hamming


@dataclass
class SoficApprox:
    """A finite partial map from group elements to permutations of one
    common degree."""

    n: int
    table: Mapping[BsElement, Permutation]

    def __post_init__(self) -> None:
        for key, perm in self.table.items():
            if perm.n != self.n:
                raise ValueError(f"permutation for {key} has degree {perm.n} != {self.n}")
            if not isinstance(key, BsElement):
                raise TypeError(f"table has non-element key {key!r}")

    def is_affine(self) -> bool:
        """Whether every permutation carries its affine form (a, b)."""
        return all(isinstance(p, AffinePermutation) for p in self.table.values())

    def conjugated(self, sigma: Permutation) -> "SoficApprox":
        """g -> sigma phi(g) sigma^-1: the same approximation on relabelled
        points, as a read-only mapping of RelabelledPermutations that share
        one pair (sigma, sigma^-1) and build no image until it is read.

        Relabelling carries every agreement set along: with y = sigma^-1 x,
        psi(g) psi(h) x = psi(gh) x iff phi(g) phi(h) y = phi(gh) y, and the
        points psi(g) x = sigma phi(g) y are distinct iff the phi(g) y are.
        So the set B of tiling's B-mask is sigma(B) of the base's."""
        if sigma.n != self.n:
            raise DegreeMismatchError(f"degrees {sigma.n} != {self.n}")
        pair = (sigma, sigma.inverse())
        return SoficApprox(self.n, MappingProxyType(
            {g: RelabelledPermutation(p, pair) for g, p in self.table.items()}))

    def relabelling(self) -> Optional[Tuple["SoficApprox", Permutation, Permutation]]:
        """(base approximation, sigma, sigma^-1) when every permutation is a
        RelabelledPermutation of one shared pair, else None."""
        perms = list(self.table.values())
        if not perms or not all(isinstance(p, RelabelledPermutation) and p.pair is perms[0].pair
                                for p in perms):
            return None
        return SoficApprox(self.n, {g: p.base for g, p in self.table.items()}), *perms[0].pair


class RelabelledPermutation(Permutation):
    """sigma p sigma^-1 for a base permutation p and a pair (sigma,
    sigma^-1) shared by a relabelled approximation.  The image, the gather
    sigma[p[sigma^-1]], is built the first time it is read and kept."""

    __slots__ = ("base", "pair", "_image")

    def __init__(self, base: Permutation, pair: Tuple[Permutation, Permutation]):
        self.base, self.pair, self._image = base, pair, None

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def image(self) -> np.ndarray:
        if self._image is None:
            sigma, sigma_inv = self.pair
            image = sigma.image[self.base.image[sigma_inv.image]]
            image.setflags(write=False)
            self._image = image
        return self._image


# ---------------------------------------------------------------------------
# Definition check

@dataclass(frozen=True)
class SoficReport:
    max_defect: Optional[HammingValue]
    min_displacement: Optional[HammingValue]
    triples_checked: int
    passed: bool


def congruence_solutions(A: int, B: int, n: int) -> Optional[Tuple[int, int]]:
    """The solutions of A x = B (mod n) as (x0, step), the points x0 + i step
    below n, gcd(A, n) of them; None when there are none.  A and B are any
    integers."""
    g = gcd(A, n)
    if B % g:
        return None
    step = n // g
    return B // g * pow(A // g, -1, step) % step, step


def _solution_count(A: int, B: int, n: int) -> int:
    """How many x in Z/nZ solve A x = B: gcd(A, n) if it divides B, else 0."""
    g = gcd(A, n)
    return 0 if B % g else g


def check_sofic(phi: SoficApprox, delta) -> SoficReport:
    """Measure the worst multiplicativity defect over triples (g, h, gh)
    inside the domain and the least displacement over non-identity keys.

    On affine permutations, phi(g) phi(h) x = phi(gh) x is the congruence
    (a_g a_h - a_gh) x = a_g b_h + b_g - b_gh and a fixed point of phi(g)
    solves (a_g - 1) x = b_g, so both are counted without an image."""
    if not phi.table:
        raise ValueError("empty domain")
    delta = Fraction(delta)
    n, table = phi.n, phi.table
    triples = [(p, q, r) for g, p in table.items() for h, q in table.items()
               if (r := table.get(g * h)) is not None]
    others = [p for g, p in table.items() if not g.is_identity()]
    if phi.is_affine():
        defects = [n - _solution_count(p.a * q.a - r.a, p.a * q.b + p.b - r.b, n)
                   for p, q, r in triples]
        moved = [n - _solution_count(p.a - 1, p.b, n) for p in others]
    else:
        defects = [hamming(p.compose(q), r).numerator for p, q, r in triples]
        moved = [displacement(p).numerator for p in others]
    max_defect = HammingValue(max(defects), n) if defects else None
    min_disp = HammingValue(min(moved), n) if moved else None
    ok_defect = max_defect is None or max_defect < delta
    ok_disp = min_disp is None or min_disp > 1 - delta
    return SoficReport(max_defect, min_disp, len(defects), ok_defect and ok_disp)


# ---------------------------------------------------------------------------
# Arithmetic model

class AffinePermutation(Permutation):
    """x -> a x - b = a (x - c) mod n, a a unit mod n and c = a^-1 b in
    [0, n), on the degree of its model.  The image is the window
    D_a[n - c : 2n - c] of the model's read-only doubled table D_a, a x mod n
    for x = 0..n-1 written twice, which is built the first time any image of
    dilation a is read: permutations of one dilation share one buffer, and
    none holds an array of its own."""

    __slots__ = ("model", "a", "b", "c")

    def __init__(self, model: "ArithmeticModel", a: int, c: int):
        self.model, self.a, self.b, self.c = model, a, c * a % model.n, c

    @property
    def n(self) -> int:
        return self.model.n

    @property
    def image(self) -> np.ndarray:
        n, a, tables = self.model.n, self.a, self.model._doubled
        doubled = tables.get(a)
        if doubled is None:
            doubled = tables[a] = np.tile(a * np.arange(n, dtype=np.int64) % n, 2)
            doubled.setflags(write=False)
        return doubled[n - self.c:2 * n - self.c]


class ArithmeticModel:
    """Lazy exact homomorphism psi of BS(1,m) into Sym(n), gcd(m, n) = 1.

    g = (e, num, d) is the affine map x -> a x - b with a = m^e and
    b = num m^-d mod n, an AffinePermutation.  The model keeps one doubled
    table per dilation, made when an image of it is first read.  n is at
    most expcycles.MAX_MODULUS, so the int64 products a x cannot overflow.
    """

    def __init__(self, n: int, m: int):
        if n < 2:
            raise ValueError("degree must be >= 2")
        if n > MAX_MODULUS:
            raise ValueError(f"degree {n} exceeds {MAX_MODULUS}: int64 products would overflow")
        if gcd(m, n) != 1:
            raise ValueError(f"gcd({m}, {n}) != 1")
        self.n = n
        self.m = m
        self._doubled: Dict[int, np.ndarray] = {}    # a -> D_a, one per dilation

    def permutation(self, g: BsElement) -> AffinePermutation:
        """psi(g): a = m^e and c = num m^-(d+e), so b = c a, from two pow
        calls."""
        if g.m != self.m:
            raise ValueError(f"element base {g.m} != model base {self.m}")
        n = self.n
        return AffinePermutation(self, pow(self.m, g.e, n),
                                 g.num * pow(self.m, -(g.d + g.e), n) % n)

    def approx_on(self, S: Iterable[BsElement]) -> SoficApprox:
        """psi on S, as a read-only mapping."""
        return SoficApprox(self.n, MappingProxyType({g: self.permutation(g) for g in S}))


# ---------------------------------------------------------------------------
# Amplification

def amplify(phi: SoficApprox, target_n: int) -> SoficApprox:
    """r = floor(target_n / n) disjoint block copies, identity on the tail.

    Multiplicativity is unchanged on the blocks; displacement degrades by
    the tail fraction (target_n - r n) / target_n.
    """
    if target_n < phi.n:
        raise ValueError(f"target degree {target_n} < {phi.n}")
    r = target_n // phi.n
    rk = r * phi.n
    offsets = np.arange(r, dtype=np.int64)[:, None] * phi.n
    tail = np.arange(rk, target_n, dtype=np.int64)
    table = {}
    for key, perm in phi.table.items():
        img = np.concatenate([(perm.image[None, :] + offsets).reshape(-1), tail])
        table[key] = Permutation(img, _trusted=True)
    return SoficApprox(target_n, table)

