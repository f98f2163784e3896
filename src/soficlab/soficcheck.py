"""Sofic approximations as data, the defect/displacement check, the exact
arithmetic model of BS(1,m) and block amplification.

The arithmetic model psi sends g = (e, num, d) to the permutation
x -> m^e * x - num * m^-d  (mod n); in particular psi(a_2) = x - 1 and
psi(a_1) = m^-1 x.  It is a homomorphism by construction, so its
multiplicativity defect is identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, Optional

import numpy as np

from .bsgroup import BsElement
from .expcycles import MAX_MODULUS
from .perm import DegreeMismatchError, HammingValue, Permutation, displacement, hamming


@dataclass
class SoficApprox:
    """A finite partial map from group elements to permutations of one
    common degree."""

    n: int
    table: Dict[BsElement, Permutation]

    def __post_init__(self) -> None:
        for key, perm in self.table.items():
            if perm.n != self.n:
                raise ValueError(f"permutation for {key} has degree {perm.n} != {self.n}")
            if not isinstance(key, BsElement):
                raise TypeError(f"table has non-element key {key!r}")

    def conjugated(self, sigma: Permutation) -> "SoficApprox":
        """g -> sigma phi(g) sigma^-1: the same approximation on relabelled
        points, each image one gather sigma[p[sigma^-1]]."""
        if sigma.n != self.n:
            raise DegreeMismatchError(f"degrees {sigma.n} != {self.n}")
        s, s_inv = sigma.image, sigma.inverse().image
        return SoficApprox(self.n, {g: Permutation(s[p.image[s_inv]], _trusted=True)
                                    for g, p in self.table.items()})


# ---------------------------------------------------------------------------
# Definition check

@dataclass(frozen=True)
class SoficReport:
    max_defect: Optional[HammingValue]
    min_displacement: Optional[HammingValue]
    triples_checked: int
    passed: bool


def check_sofic(phi: SoficApprox, delta) -> SoficReport:
    """Measure the worst multiplicativity defect over triples (g, h, gh)
    inside the domain and the least displacement over non-identity keys."""
    if not phi.table:
        raise ValueError("empty domain")
    delta = Fraction(delta)
    table = phi.table
    defects = [hamming(table[g].compose(table[h]), table[gh])
               for g in table for h in table if (gh := g * h) in table]
    max_defect = max(defects, default=None)
    min_disp = min((displacement(p) for g, p in table.items() if not g.is_identity()),
                   default=None)
    ok_defect = max_defect is None or max_defect < delta
    ok_disp = min_disp is None or min_disp > 1 - delta
    return SoficReport(max_defect, min_disp, len(defects), ok_defect and ok_disp)


# ---------------------------------------------------------------------------
# Arithmetic model

class ArithmeticModel:
    """Lazy exact homomorphism psi of BS(1,m) into Sym(n), gcd(m, n) = 1.

    For each dilation a = m^e mod n the model keeps one read-only doubled
    table D_a, a x mod n for x = 0..n-1 written twice.  g = (e, num, d)
    sends x to a (x - c) with c = num m^-(d+e) mod n, so its image is the
    window D_a[n - c : 2n - c]: no key gets an array or any per-element
    work of its own.  n is at most expcycles.MAX_MODULUS, so the int64
    products a x cannot overflow.
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

    def permutation(self, g: BsElement) -> Permutation:
        if g.m != self.m:
            raise ValueError(f"element base {g.m} != model base {self.m}")
        n = self.n
        a = pow(self.m, g.e, n)
        doubled = self._doubled.get(a)
        if doubled is None:
            doubled = self._doubled[a] = np.tile(a * np.arange(n, dtype=np.int64) % n, 2)
            doubled.setflags(write=False)
        c = g.num * pow(self.m, -(g.d + g.e), n) % n
        return Permutation(doubled[n - c:2 * n - c], _trusted=True)

    def approx_on(self, S: Iterable[BsElement]) -> SoficApprox:
        return SoficApprox(self.n, {g: self.permutation(g) for g in S})


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

