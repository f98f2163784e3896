"""Constructive approximate conjugacy of two sofic approximations.

Both approximations are quasi-tiled with the same Folner shapes; tile
families are trimmed to genuinely disjoint cores, center counts are
equalized per level, matched tiles are mapped point-to-point through their
shared generator coordinates, and the remaining points are matched
order-preservingly.  The resulting bijection tau conjugates phi1 into phi2
up to a small Hamming defect, which is measured exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Sequence

import numpy as np

from .bsgroup import BsElement, bs_a2
from .perm import HammingValue, Permutation, hamming, orbit_order
from .soficcheck import SoficApprox
from .tiling import ProductGrid, level_points, quasi_tile, tile_cores


class InsufficientSupportError(ValueError):
    """The matched supports cover less than the required (1 - 4 eps / 7) n."""


@dataclass(frozen=True)
class Conjugator:
    """tau, and the supports Lambda_1 and tau(Lambda_1) as ascending read-only int64 arrays."""
    tau: Permutation
    lambda1: np.ndarray
    lambda2: np.ndarray
    eps: Fraction

    def support_fraction(self) -> Fraction:
        return Fraction(len(self.lambda1), self.tau.n)

    def to_json(self) -> str:
        return json.dumps({
            "n": self.tau.n,
            "eps": [self.eps.numerator, self.eps.denominator],
            "tau": self.tau.image.tolist(),
            "lambda1": self.lambda1.tolist(),
            "lambda2": self.lambda2.tolist(),
        })


# Both inner tilings run at INNER_EPS, so folner_seq must be the plan at
# INNER_EPS (cli.conjugate_shapes); _check_shapes rejects any other shape list
# with its reason.  B may miss up to DELTA_PRIME of the points.
INNER_EPS = Fraction(1, 8)
DELTA_PRIME = Fraction(3, 8)


def build_conjugator(phi1: SoficApprox, phi2: SoficApprox, eps,
                     folner_seq: Sequence[Iterable[BsElement]], grid: ProductGrid) -> Conjugator:
    """Quasi-tile both approximations at INNER_EPS and assemble tau.

    The orbit structure of the image of a_2 (m read off the shapes) sets the
    greedy center priority on each side.  Relabeling one approximation by a
    conjugation then relabels its whole tiling up to cycle phase, so the two
    tilings stay structurally aligned and the matched support stays large.
    The tilings run in maximal packing mode for the same reason.  Both
    read the caller's grid, inverse_products of the top shape, on which
    both approximations must be defined.

    Raises InsufficientSupportError when the matched supports fall below
    (1 - 4 eps / 7) n.
    """
    if phi1.n != phi2.n:
        raise ValueError(f"degrees {phi1.n} != {phi2.n}")
    eps = Fraction(eps)
    n = phi1.n
    a2 = bs_a2(next(iter(folner_seq[0])).m)

    sides = []
    for phi in (phi1, phi2):
        t = quasi_tile(phi, folner_seq, grid, INNER_EPS, INNER_EPS, delta_prime=DELTA_PRIME,
                       maximal=True, center_order=orbit_order(phi.table[a2]))
        points = level_points(t)
        # levels never share a point (a level's tiles avoid every point
        # covered before it), so cores read in ascending j are the same
        sides.append(zip(t.levels, points, tile_cores(points)))

    tau_img = np.full(n, -1, dtype=np.int64)
    for (lvl1, pts1, core1), (lvl2, pts2, core2) in zip(*sides):
        m_count = min(len(lvl1.centers), len(lvl2.centers))
        # keep the centers with the largest disjoint cores and pair them in
        # that order, so interior tiles match interior tiles
        q1 = np.lexsort((lvl1.centers, -core1.sum(axis=1)))[:m_count]
        q2 = np.lexsort((lvl2.centers, -core2.sum(axis=1)))[:m_count]
        shared = core1[q1] & core2[q2]
        tau_img[pts1[q1][shared]] = pts2[q2][shared]
    # the cores are disjoint, so each matched point is written once
    lambda1 = np.flatnonzero(tau_img >= 0)

    support_bound = (1 - 4 * eps / 7) * n
    if len(lambda1) < support_bound:
        raise InsufficientSupportError(
            f"matched support {len(lambda1)}/{n} below {float(support_bound):.1f}")

    # order-preserving extension between the complements
    used2 = np.zeros(n, dtype=bool)
    used2[tau_img[lambda1]] = True
    lambda2 = np.flatnonzero(used2)
    tau_img[tau_img < 0] = np.flatnonzero(~used2)
    lambda1.setflags(write=False)
    lambda2.setflags(write=False)
    return Conjugator(Permutation(tau_img), lambda1, lambda2, eps)


@dataclass(frozen=True)
class ConjugacyReport:
    per_key: Dict[BsElement, HammingValue]
    max_defect: HammingValue
    passed: bool


def conjugacy_defect(c: Conjugator, phi1: SoficApprox, phi2: SoficApprox,
                     S: Iterable[BsElement]) -> ConjugacyReport:
    """max over s in S of d_h(tau phi1(s) tau^-1, phi2(s)); pass iff <= eps."""
    S = list(S)
    if not S:
        raise ValueError("empty key set")
    missing = [s for s in S if s not in phi1.table or s not in phi2.table]
    if missing:
        raise KeyError(f"keys missing from an approximation: {missing}")
    tau_inv = c.tau.inverse()
    per = {s: hamming(c.tau.compose(phi1.table[s]).compose(tau_inv), phi2.table[s]) for s in S}
    worst = max(per.values())
    return ConjugacyReport(per, worst, worst <= c.eps)
