"""Quasi-tiling of sofic approximations of an amenable group.

Given nested Folner shapes F_1 c ... c F_k and an approximation phi that is
exactly multiplicative and free on a large set B, the algorithm places
translated tiles phi(F_j)c level by level (j = k down to 1), extracting an
eps-disjoint subfamily at each level, and emits a certificate whose four
conclusions -- cross-level disjointness, per-tile injectivity,
eps-disjointness with a (1-eps)-cover, and per-level measure close to
lambda_j -- are independently recheckable from the raw data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .bsgroup import Word, word_concat, word_inverse
from .perm import HammingValue, Permutation
from .soficcheck import Key, SoficApprox, _key_from_obj, _key_to_obj


class MissingDomainError(KeyError):
    """The approximation is not defined on all of F_k^-1 F_k."""


class CoarseApproximationError(ValueError):
    """The exactly-multiplicative-and-free set B is too small to tile from."""


class DegreeTooSmallError(ValueError):
    """The degree is below the admissibility threshold."""


# ---------------------------------------------------------------------------
# Parameter plan

@dataclass(frozen=True)
class PlanParams:
    eps: Fraction
    kappa: Fraction          # requested
    kappa_eff: Fraction      # reset to min(kappa, eps/2)
    k: int
    lambdas: Tuple[Fraction, ...]   # lambdas[j-1] = eps (1-eps)^(k-j)
    eta: Fraction

    @property
    def sigma1(self) -> Fraction:
        return sum(self.lambdas, Fraction(0))


def plan_parameters(eps, kappa) -> PlanParams:
    """k = smallest value with (1-eps)^k <= eps/2; lambda_j = eps(1-sigma_{j+1})
    with lambda_k = eps, so lambda_j = eps(1-eps)^(k-j); eta = kappa/(24/eps)^(k-1).

    kappa is reset to eps/2 when larger, which keeps the (1-eps)-cover
    conclusion meaningful."""
    eps = Fraction(eps)
    kappa = Fraction(kappa)
    if not 0 < eps <= Fraction(1, 4):
        raise ValueError(f"eps={eps} outside (0, 1/4]")
    if kappa <= 0:
        raise ValueError(f"kappa={kappa} must be positive")
    kappa_eff = min(kappa, eps / 2)
    k = 1
    power = 1 - eps
    while power > eps / 2:
        power *= 1 - eps
        k += 1
    lambdas = tuple(eps * (1 - eps) ** (k - j) for j in range(1, k + 1))
    eta = kappa_eff / (Fraction(24) / eps) ** (k - 1)
    plan = PlanParams(eps, kappa, kappa_eff, k, lambdas, eta)
    sigma1 = plan.sigma1
    if not 1 - eps / 2 <= sigma1 <= 1 - eps / 4:
        raise AssertionError(f"sigma1 = {sigma1} outside [1 - eps/2, 1 - eps/4]")
    return plan


# ---------------------------------------------------------------------------
# eps-disjoint extraction

@dataclass(frozen=True)
class SetFamily:
    n: int
    sets: Tuple[Tuple[int, frozenset], ...]   # (index, subset of {0..n-1})

    def __post_init__(self) -> None:
        for idx, subset in self.sets:
            for x in subset:
                if not 0 <= x < self.n:
                    raise ValueError(f"set {idx} has element {x} outside ground set")


@dataclass(frozen=True)
class ExtractionResult:
    indices: Tuple[int, ...]                # selected, in selection order
    witnesses: Tuple[frozenset, ...]        # pairwise disjoint cores
    coverage: int                           # |union of selected full sets|
    multiplicity: int
    rho: Fraction                           # measured even-covering deficiency
    target: Optional[int]
    coverage_ok: bool


def _measure_rho(fam: SetFamily) -> Tuple[int, Fraction]:
    count = np.zeros(fam.n, dtype=np.int64)
    mass = 0
    for _, subset in fam.sets:
        mass += len(subset)
        for x in subset:
            count[x] += 1
    mult = int(count.max()) if len(fam.sets) else 1
    mult = max(mult, 1)
    rho = max(Fraction(0), 1 - Fraction(mass, mult * fam.n))
    return mult, rho


def extract_eps_disjoint(fam: SetFamily, eps, target: Optional[int] = None) -> ExtractionResult:
    """Greedy eps-disjoint subfamily: descending set size, ties by smallest
    index; a set is kept when at least (1-eps) of it avoids everything
    already selected.

    With a coverage target, the selection is then pruned to minimality:
    repeatedly drop (latest first) any set whose removal keeps the union of
    the remaining full sets at or above the target.
    """
    if not fam.sets:
        raise ValueError("empty family")
    eps = Fraction(eps)
    mult, rho = _measure_rho(fam)

    order = sorted(fam.sets, key=lambda pair: (-len(pair[1]), pair[0]))
    selected: List[Tuple[int, frozenset]] = []
    union: set = set()
    for idx, subset in order:
        core = subset - union
        if len(core) >= (1 - eps) * len(subset):
            selected.append((idx, subset))
            union |= subset

    if target is not None:
        changed = True
        while changed:
            changed = False
            for pos in range(len(selected) - 1, -1, -1):
                rest: set = set()
                for q, (_, subset) in enumerate(selected):
                    if q != pos:
                        rest |= subset
                if len(rest) >= target:
                    del selected[pos]
                    union = rest
                    changed = True
                    break

    witnesses = []
    seen: set = set()
    for _, subset in selected:
        witnesses.append(frozenset(subset - seen))
        seen |= subset
    coverage = len(seen)
    ok = coverage >= (target if target is not None else eps * (1 - rho) * fam.n)
    return ExtractionResult(tuple(idx for idx, _ in selected), tuple(witnesses),
                            coverage, mult, rho, target, ok)


# ---------------------------------------------------------------------------
# Tiling certificate

@dataclass(frozen=True)
class TileLevel:
    j: int
    shape: Tuple[Key, ...]        # F_j, sorted
    lam: Fraction
    centers: Tuple[int, ...]      # C_j, in selection order


@dataclass(frozen=True)
class Tiling:
    n: int
    eps: Fraction
    kappa: Fraction
    key_kind: str
    levels: Tuple[TileLevel, ...]          # ascending j
    table: Dict[Key, Permutation]          # permutations for every shape key
    b_size: int

    def __post_init__(self) -> None:
        lambdas = [lvl.lam for lvl in self.levels]
        k = len(lambdas)
        for j, lam in enumerate(lambdas, start=1):
            sigma_next = sum(lambdas[j:], Fraction(0))
            if j == k:
                if lam != self.eps:
                    raise ValueError(f"lambda_k = {lam} != eps = {self.eps}")
            elif lam != self.eps * (1 - sigma_next):
                raise ValueError(f"lambda_{j} breaks the recursion")
        total = sum(lambdas, Fraction(0))
        if not 1 - self.eps <= total <= 1:
            raise ValueError(f"sum of lambdas {total} outside [1-eps, 1]")

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "eps": [self.eps.numerator, self.eps.denominator],
            "kappa": [self.kappa.numerator, self.kappa.denominator],
            "key_kind": self.key_kind,
            "b_size": self.b_size,
            "levels": [{
                "j": lvl.j,
                "lam": [lvl.lam.numerator, lvl.lam.denominator],
                "shape": [_key_to_obj(g, self.key_kind) for g in lvl.shape],
                "centers": list(lvl.centers),
            } for lvl in self.levels],
            "table": [[_key_to_obj(g, self.key_kind), self.table[g].image.tolist()]
                      for g in sorted(self.table, key=_key_sorter(self.key_kind))],
        })

    @classmethod
    def from_json(cls, text: str) -> "Tiling":
        data = json.loads(text)
        kind = data["key_kind"]
        table = {_key_from_obj(obj, kind): Permutation(img) for obj, img in data["table"]}
        levels = tuple(
            TileLevel(lvl["j"],
                      tuple(_key_from_obj(obj, kind) for obj in lvl["shape"]),
                      Fraction(*lvl["lam"]),
                      tuple(int(c) for c in lvl["centers"]))
            for lvl in data["levels"])
        return cls(int(data["n"]), Fraction(*data["eps"]), Fraction(*data["kappa"]),
                   kind, levels, table, int(data["b_size"]))


def _key_sorter(kind: str):
    if kind == "element":
        return lambda g: g.sort_key()
    return lambda g: g


def _key_inverse(g: Key, kind: str) -> Key:
    if kind == "element":
        return g.inverse()
    return word_inverse(g)


def _key_product(g: Key, h: Key, kind: str) -> Key:
    if kind == "element":
        return g * h
    return word_concat(g, h)


def _key_is_identity(g: Key, kind: str) -> bool:
    if kind == "element":
        return g.is_identity()
    return len(g) == 0


def _shape_images(phi: SoficApprox, shape: Sequence[Key]) -> np.ndarray:
    return np.stack([phi.table[g].image for g in shape])


# ---------------------------------------------------------------------------
# The tiling algorithm

def quasi_tile(phi: SoficApprox, folner_seq: Sequence[Iterable[Key]], eps, kappa,
               *, n_threshold: Optional[int] = None,
               delta_prime=Fraction(1, 8), maximal: bool = False,
               center_order: Optional[Sequence[int]] = None) -> Tiling:
    """Place tiles phi(F_j)c for j = k down to 1.

    B is the set of points where phi is exactly multiplicative and free on
    F_k; at each level the available centers are the B-points whose tile
    avoids everything already placed, and an eps-disjoint subfamily is
    extracted with coverage target eps * |B_j|, pruned to minimality.

    folner_seq must have exactly plan_parameters(eps, kappa).k nested shapes
    with the identity in the first.  n_threshold overrides the default
    admissibility bound 64 |F_k| / (eps * kappa_eff).

    maximal=True keeps the full greedy selection at every level instead of
    pruning to the eps * |B_j| coverage target.  That mode packs as much of
    the ground set as possible -- useful when the tiling feeds a conjugator
    -- but gives up the per-level measure bounds of the certificate.

    center_order assigns greedy priority ranks to the points (a permutation
    of 0..n-1, highest priority first); ties in the extraction are broken by
    this rank instead of by raw point index.  A rank derived from the orbit
    structure of a generator image makes the construction equivariant under
    relabeling, which a conjugator build exploits.
    """
    plan = plan_parameters(eps, kappa)
    eps, kappa = plan.eps, plan.kappa
    shapes = [tuple(sorted(F, key=_key_sorter(phi.key_kind))) for F in folner_seq]
    if len(shapes) != plan.k:
        raise ValueError(f"need {plan.k} Folner shapes for eps={eps}, got {len(shapes)}")
    for prev, cur in zip(shapes, shapes[1:]):
        if not set(prev) <= set(cur):
            raise ValueError("Folner shapes are not nested")
    if not any(_key_is_identity(g, phi.key_kind) for g in shapes[0]):
        raise ValueError("identity not in the first Folner shape")

    F_k = shapes[-1]
    if n_threshold is None:
        n_threshold = ceil(64 * len(F_k) / (eps * plan.kappa_eff))
    if phi.n < n_threshold:
        raise DegreeTooSmallError(f"degree {phi.n} below threshold {n_threshold}")

    inverses = {g: _key_inverse(g, phi.key_kind) for g in F_k}
    products: Dict[Tuple[Key, Key], Key] = {}
    for g in F_k:
        for h in F_k:
            products[(g, h)] = _key_product(inverses[g], h, phi.key_kind)
    missing = {p for p in products.values() if p not in phi.table}
    missing |= {g for g in F_k if g not in phi.table}
    if missing:
        raise MissingDomainError(f"approximation undefined on {len(missing)} keys of F_k^-1 F_k")

    n = phi.n
    points = np.arange(n)
    if center_order is None:
        rank = points
        by_rank = points
    else:
        by_rank = np.asarray(center_order, dtype=np.int64)
        if sorted(by_rank.tolist()) != list(range(n)):
            raise ValueError("center_order must be a permutation of 0..n-1")
        rank = np.empty(n, dtype=np.int64)
        rank[by_rank] = points
    b_mask = np.ones(n, dtype=bool)
    for g in F_k:
        img_g = phi.table[g].image
        for h in F_k:
            p = products[(g, h)]
            img_p = phi.table[p].image
            b_mask &= img_g[img_p] == phi.table[h].image
            if g != h:
                b_mask &= img_p != points
    b_size = int(np.count_nonzero(b_mask))
    if b_size < (1 - Fraction(delta_prime)) * n:
        raise CoarseApproximationError(
            f"approximation too coarse: |B| = {b_size} < (1 - {delta_prime}) * {n}")

    covered = np.zeros(n, dtype=bool)
    levels: List[TileLevel] = []
    for j in range(plan.k, 0, -1):
        shape = shapes[j - 1]
        imgs = _shape_images(phi, shape)            # (|F_j|, n); tile(c) = imgs[:, c]
        available = b_mask & ~covered[imgs].any(axis=0)
        centers = np.flatnonzero(available)
        centers = centers[np.argsort(rank[centers], kind="stable")]
        fam = SetFamily(n, tuple((int(rank[c]), frozenset(imgs[:, c].tolist())) for c in centers))
        if not fam.sets:
            if not maximal:
                raise CoarseApproximationError(f"no available centers at level {j}")
            levels.append(TileLevel(j, shape, plan.lambdas[j - 1], ()))
            continue
        target = None if maximal else ceil(eps * len(centers))
        result = extract_eps_disjoint(fam, eps, target=target)
        chosen = tuple(int(by_rank[idx]) for idx in result.indices)
        for c in chosen:
            covered[imgs[:, c]] = True
        levels.append(TileLevel(j, shape, plan.lambdas[j - 1], chosen))

    levels.reverse()
    table = {g: phi.table[g] for shape in shapes for g in shape}
    return Tiling(n, eps, kappa, phi.key_kind, tuple(levels), table, b_size)


# ---------------------------------------------------------------------------
# Independent verification

@dataclass(frozen=True)
class LevelMeasure:
    j: int
    ratio: Fraction         # |phi(F_j) C_j| / n
    low: Fraction           # (1 - kappa) lambda_j
    high: Fraction          # (1 + kappa) lambda_j
    ok: bool


@dataclass(frozen=True)
class TilingReport:
    disjoint_ok: bool                    # (1) cross-level disjointness
    injective_ok: bool                   # (2) s -> phi(s)c injective per tile
    eps_disjoint_ok: bool                # (3a) family is eps-disjoint
    cover_ratio: Fraction                # |union| / n
    cover_ok: bool                       # (3b) >= 1 - eps
    measures: Tuple[LevelMeasure, ...]   # (4) per-level bounds
    measure_ok: bool
    passed: bool


def verify_tiling(t: Tiling) -> TilingReport:
    """Recheck all four conclusions from the centers and the permutation
    table alone; nothing from the construction run is trusted."""
    n = t.n
    level_unions = []
    injective_ok = True
    eps_disjoint_ok = True
    union_all: set = set()
    for lvl in t.levels:
        imgs = np.stack([t.table[g].image for g in lvl.shape])
        size = imgs.shape[0]
        lvl_union: set = set()
        for c in lvl.centers:
            tile = imgs[:, c]
            tile_set = set(tile.tolist())
            if len(tile_set) != size:
                injective_ok = False
            core = tile_set - union_all
            if len(core) < (1 - t.eps) * size:
                eps_disjoint_ok = False
            union_all |= tile_set
            lvl_union |= tile_set
        level_unions.append(lvl_union)

    disjoint_ok = True
    for a in range(len(level_unions)):
        for b in range(a + 1, len(level_unions)):
            if level_unions[a] & level_unions[b]:
                disjoint_ok = False

    cover_ratio = Fraction(len(union_all), n)
    cover_ok = cover_ratio >= 1 - t.eps

    measures = []
    for lvl, lvl_union in zip(t.levels, level_unions):
        ratio = Fraction(len(lvl_union), n)
        low = (1 - t.kappa) * lvl.lam
        high = (1 + t.kappa) * lvl.lam
        measures.append(LevelMeasure(lvl.j, ratio, low, high, low <= ratio <= high))
    measure_ok = all(m.ok for m in measures)

    passed = disjoint_ok and injective_ok and eps_disjoint_ok and cover_ok and measure_ok
    return TilingReport(disjoint_ok, injective_ok, eps_disjoint_ok,
                        cover_ratio, cover_ok, tuple(measures), measure_ok, passed)
