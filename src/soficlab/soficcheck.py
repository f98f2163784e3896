"""Sofic approximations as data, the defect/displacement check, the exact
arithmetic model of BS(1,m) and block amplification.

The arithmetic model psi sends g = (e, num, d) to the permutation
x -> a x - b (mod n) with a = m^e and b = num * m^-d; in particular
psi(a_2) = x - 1 and psi(a_1) = m^-1 x.  It is a homomorphism by
construction, so its multiplicativity defect is identically zero.

An approximation the model builds carries each key's affine form (a, b)
beside its table, and its table is read-only, so the two cannot drift
apart.  Two affine maps mod n agree exactly on the solutions of one linear
congruence, so check_sofic (and tiling's B-mask) read defects, fixed points
and agreement sets off the forms with exact integer steps, independent of
n.  Tables without forms (conjugated, amplified or edited ones) take the
table route, which compares image arrays.
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

# (a, b): the permutation x -> a x - b mod n
AffineForm = Tuple[int, int]


@dataclass
class SoficApprox:
    """A finite partial map from group elements to permutations of one
    common degree.

    forms, when given, holds each key's affine form: the key's permutation
    is x -> a x - b mod n.  They are trusted, not checked against the
    table; ArithmeticModel.approx_on builds them, with a read-only table."""

    n: int
    table: Mapping[BsElement, Permutation]
    forms: Optional[Mapping[BsElement, AffineForm]] = None

    def __post_init__(self) -> None:
        for key, perm in self.table.items():
            if perm.n != self.n:
                raise ValueError(f"permutation for {key} has degree {perm.n} != {self.n}")
            if not isinstance(key, BsElement):
                raise TypeError(f"table has non-element key {key!r}")
        if self.forms is not None and self.forms.keys() != self.table.keys():
            raise ValueError("affine forms and table have different keys")

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

    With affine forms, phi(g) phi(h) x = phi(gh) x is the congruence
    (a_g a_h - a_gh) x = a_g b_h + b_g - b_gh and a fixed point of phi(g)
    solves (a_g - 1) x = b_g, so both are counted without a table."""
    if not phi.table:
        raise ValueError("empty domain")
    delta = Fraction(delta)
    n = phi.n
    if phi.forms is None:
        table = phi.table
        defects = [hamming(table[g].compose(table[h]), table[gh]).numerator
                   for g in table for h in table if (gh := g * h) in table]
        moved = [displacement(p).numerator for g, p in table.items() if not g.is_identity()]
    else:
        forms = phi.forms
        defects = []
        for g, (a_g, b_g) in forms.items():
            for h, (a_h, b_h) in forms.items():
                gh = g * h
                if gh in forms:
                    a_gh, b_gh = forms[gh]
                    defects.append(n - _solution_count(a_g * a_h - a_gh,
                                                       a_g * b_h + b_g - b_gh, n))
        moved = [n - _solution_count(a - 1, b, n)
                 for g, (a, b) in forms.items() if not g.is_identity()]
    max_defect = HammingValue(max(defects), n) if defects else None
    min_disp = HammingValue(min(moved), n) if moved else None
    ok_defect = max_defect is None or max_defect < delta
    ok_disp = min_disp is None or min_disp > 1 - delta
    return SoficReport(max_defect, min_disp, len(defects), ok_defect and ok_disp)


# ---------------------------------------------------------------------------
# Arithmetic model

class ArithmeticModel:
    """Lazy exact homomorphism psi of BS(1,m) into Sym(n), gcd(m, n) = 1.

    g = (e, num, d) is the affine map x -> a x - b with a = m^e and
    b = num m^-d mod n, that is x -> a (x - c) with c = a^-1 b.  For each
    dilation a the model keeps one read-only doubled table D_a, a x mod n
    for x = 0..n-1 written twice, and g's image is the window
    D_a[n - c : 2n - c]: no key gets an array or any per-element work of
    its own.  n is at most expcycles.MAX_MODULUS, so the int64 products a x
    cannot overflow.
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

    def affine(self, g: BsElement) -> Tuple[int, int, int]:
        """(a, b, c): psi(g) x = a x - b = a (x - c) mod n.  c = num m^-(d+e)
        and b = c a come from the same two pow calls."""
        if g.m != self.m:
            raise ValueError(f"element base {g.m} != model base {self.m}")
        n = self.n
        a = pow(self.m, g.e, n)
        c = g.num * pow(self.m, -(g.d + g.e), n) % n
        return a, c * a % n, c

    def permutation(self, g: BsElement,
                    affine: Optional[Tuple[int, int, int]] = None) -> Permutation:
        """psi(g).  affine, when given, must be self.affine(g): approx_on,
        which keeps the form too, passes it so its pow calls run once."""
        a, _, c = self.affine(g) if affine is None else affine
        n = self.n
        doubled = self._doubled.get(a)
        if doubled is None:
            doubled = self._doubled[a] = np.tile(a * np.arange(n, dtype=np.int64) % n, 2)
            doubled.setflags(write=False)
        return Permutation(doubled[n - c:2 * n - c], _trusted=True)

    def approx_on(self, S: Iterable[BsElement]) -> SoficApprox:
        """psi on S, with each key's affine form (a, b) and a read-only table."""
        table, forms = {}, {}
        for g in S:
            affine = self.affine(g)
            table[g] = self.permutation(g, affine)
            forms[g] = affine[:2]
        return SoficApprox(self.n, MappingProxyType(table), MappingProxyType(forms))


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

