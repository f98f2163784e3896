"""Reference implementations that the tests compare the package against.

None of these runs in a subcommand: each is a slow, direct route to a value
the package computes another way (a running product against the doubling
exp table, exhaustive enumeration against the P_n recurrence, word
evaluation against the arithmetic model's element table, the order-4
sampler's shuffle, choice and randrange against its getrandbits draws, the
order-4 enumerator's dicts against its in-place image list, the Sym(n)
exhaustion on lists against the orbit count of x -> m x and numpy arrays
against that list exhaustion, the tiling level
loop that scans every point against the one that scans B's uncovered
points, the extraction greedy that tests every row against the one that
skips runs of rejected rows, and the tiling plan's Fraction loop against
its integer powers).
Tests import them as `from oracles import ...`; the file is not collected,
since its name does not start with `test_`.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from soficlab import tiling
from soficlab.bsgroup import BsElement, bs_a1, bs_a2
from soficlab.localexp import SYM_EXHAUSTIVE_MAX, _law_flags
from soficlab.perm import Permutation
from soficlab.soficcheck import AffinePermutation, ArithmeticModel, SoficApprox
from soficlab.tiling import (CoarseApproximationError, PlanParams, ProductGrid, SetFamily,
                             TileLevel, Tiling, _check_shapes, b_mask, level_points,
                             plan_parameters, shape_images)


# ---------------------------------------------------------------------------
# Permutations and maps of Z/n

def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> Permutation:
    img = np.arange(n, dtype=np.int64)
    for cyc in cycles:
        for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
            img[a] = b
    return Permutation(img)


def exp_table_by_product(m: int, n: int) -> np.ndarray:
    """Test oracle: running product f(x+1) = m f(x), f(0) = 1."""
    out = np.empty(n, dtype=np.int64)
    acc = 1
    for x in range(n):
        out[x] = acc
        acc = acc * m % n
    return out


def is_four_periodic(image: np.ndarray) -> bool:
    f2 = image[image]
    return bool(np.array_equal(f2[f2], np.arange(image.size)))


def count_order4(n: int) -> int:
    """|{sigma in Sym(n) : sigma^4 = id}| by exhaustive enumeration; the
    oracle behind n! P_n (practical for n <= 9)."""
    if n < 1:
        return 1
    count = 0
    idx = list(range(n))
    for perm in itertools.permutations(idx):
        p2 = [perm[perm[i]] for i in idx]
        if all(p2[p2[i]] == i for i in idx):
            count += 1
    return count


def random_order4(points: List[int], rng: random.Random) -> Dict[int, int]:
    """A random permutation of the points with cycle lengths in {1, 2, 4},
    drawn through rng.shuffle, rng.choice and rng.randrange: the searcher's
    sampler as it was before it drew from rng.getrandbits directly, kept
    verbatim as the reference for its draws."""
    pts = list(points)
    rng.shuffle(pts)
    out: Dict[int, int] = {}
    while pts:
        a = pts.pop()
        choices = [1]
        if len(pts) >= 1:
            choices.append(2)
        if len(pts) >= 3:
            choices.append(4)
        length = rng.choice(choices)
        if length == 1:
            out[a] = a
        elif length == 2:
            b = pts.pop(rng.randrange(len(pts)))
            out[a], out[b] = b, a
        else:
            b, c, d = (pts.pop(rng.randrange(len(pts))) for _ in range(3))
            out[a], out[b], out[c], out[d] = b, c, d, a
    return out


def enumerate_order4(points: Sequence[int]):
    """All permutations of the given points whose cycle type uses lengths in
    {1, 2, 4} only, yielded as {point: image} dicts: the searcher's
    enumerator as it was before it wrote one image list in place, kept
    verbatim as the reference for its order."""
    if not points:
        yield {}
        return
    a, rest = points[0], list(points[1:])
    # a fixed
    for tail in enumerate_order4(rest):
        tail[a] = a
        yield tail
    # a in a 2-cycle with b
    for i, b in enumerate(rest):
        others = rest[:i] + rest[i + 1:]
        for tail in enumerate_order4(others):
            tail[a] = b
            tail[b] = a
            yield tail
    # a in a 4-cycle with an ordered choice of three others
    for trio in itertools.permutations(rest, 3):
        others = [v for v in rest if v not in trio]
        for tail in enumerate_order4(others):
            b, c, d = trio
            tail[a], tail[b], tail[c], tail[d] = b, c, d, a
            yield tail


def min_mezo_fraction_by_lists(n: int, m: int) -> Fraction:
    """min over all bijections of Z/nZ of the fraction of points failing at
    least one of the two local laws, by exhaustion over Sym(n) through the
    searcher's list law scan: the package's exhaustion as it was before it
    read the minimum off the orbits of x -> m x, kept verbatim as the
    reference that certifies that count at every n <= SYM_EXHAUSTIVE_MAX."""
    if n > SYM_EXHAUSTIVE_MAX:
        raise ValueError(f"exhaustion limited to n <= {SYM_EXHAUSTIVE_MAX}")
    if gcd(m, n) != 1:
        raise ValueError(f"gcd({m}, {n}) != 1")
    best = n
    for img in itertools.permutations(range(n)):
        count = sum(bad or img[img[img[x]]] != x
                    for x, bad in enumerate(_law_flags(img, m, n)))
        if count < best:
            best = count
            if best == 0:
                break
    return Fraction(best, n)


def min_mezo_fraction_by_arrays(n: int, m: int) -> Fraction:
    """min over all bijections of Z/nZ of the fraction of points failing at
    least one of the two local laws, by exhaustion over Sym(n) with one numpy
    array per permutation: the package's exhaustion as it was before it
    scored tuples through the searcher's list law scan, kept verbatim."""
    if n > 8:
        raise ValueError("exhaustion limited to n <= 8")
    if gcd(m, n) != 1:
        raise ValueError(f"gcd({m}, {n}) != 1")
    idx = np.arange(n)
    best = n
    for perm in itertools.permutations(range(n)):
        img = np.array(perm, dtype=np.int64)
        bad = np.roll(img, -1) != m * img % n
        bad |= img[img[img]] != idx
        count = int(np.count_nonzero(bad))
        if count < best:
            best = count
            if best == 0:
                break
    return Fraction(best, n)


# ---------------------------------------------------------------------------
# BS(1,m) elements as affine maps of the m-adic rationals

def shift(g: BsElement) -> Fraction:
    return Fraction(g.num, g.m ** g.d)


def apply(g: BsElement, x: Fraction) -> Fraction:
    return Fraction(g.m) ** g.e * x + shift(g)


# ---------------------------------------------------------------------------
# Words

Letter = Tuple[str, int]
Word = Tuple[Letter, ...]


def word_value(w: Iterable[Letter], images: Mapping, identity):
    """Evaluate [(gen, exp), ...] left to right under (g * h)(x) = g(h(x)),
    multiplying by images[gen] exp times, or by its inverse -exp times when
    exp < 0.  Works for any type with * and inverse (elements,
    permutations), and runs no square-and-multiply power; inverse letters
    use exact inverses, so w * w^-1 cancels."""
    result = identity
    for gen, exp in w:
        if gen not in images:
            raise KeyError(f"generator {gen!r} has no image")
        g = images[gen] if exp >= 0 else images[gen].inverse()
        for _ in range(abs(exp)):
            result = result * g
    return result


def evaluate_word(w: Word, m: int) -> BsElement:
    """Evaluate a word in generators a1, a2 to a normalized element."""
    return word_value(w, {"a1": bs_a1(m), "a2": bs_a2(m)}, BsElement(m, 0, 0, 0))


def affine_approx(n: int, forms: Mapping[BsElement, Tuple[int, int]]) -> SoficApprox:
    """An approximation of AffinePermutations x -> a x - b mod n with the
    given forms, on one ArithmeticModel of degree n.  Each a must be a unit
    mod n and each b lie in [0, n); the forms need not be those of a
    homomorphism."""
    model = ArithmeticModel(n, n - 1)
    return SoficApprox(n, {g: AffinePermutation(model, a, b * pow(a, -1, n) % n)
                           for g, (a, b) in forms.items()})


def plain_copy(phi: SoficApprox) -> SoficApprox:
    """phi with each image copied into a plain Permutation, which carries no
    affine form, so check_sofic and b_mask take the table route on it."""
    return SoficApprox(phi.n, {g: Permutation(p.image) for g, p in phi.table.items()})


def _generator_images(phi: SoficApprox) -> Dict[str, Permutation]:
    if not phi.table:
        raise ValueError("empty domain")
    m = next(iter(phi.table)).m
    return {name: phi.table[g] for name, g in (("a1", bs_a1(m)), ("a2", bs_a2(m)))
            if g in phi.table}


def eval_word(phi: SoficApprox, w: Word) -> Permutation:
    """Left-to-right composition under (g*h)(x) = g(h(x)).  Inverse letters
    use permutation inverses, so w * w^-1 cancels exactly for any phi."""
    return word_value(w, _generator_images(phi), Permutation.identity(phi.n))


# ---------------------------------------------------------------------------
# Affine fixed-point prediction

@dataclass(frozen=True)
class AffineFixedReport:
    a: int                 # dilation exponent of psi(w) = x -> m^a x + b
    b_residue: int         # b mod n
    b_exact: Fraction      # b as an m-adic rational
    count: int             # solutions of (m^a - 1) x = -b mod n
    word_is_identity: bool


def affine_fixed_points(w: Word, m: int, n: int) -> AffineFixedReport:
    """Symbolic affine data of psi(w) plus the predicted fixed-point count.

    x is fixed iff (m^a - 1) x = -b mod n: all n points when m^a = 1 and
    b = 0 mod n, otherwise gcd(m^a - 1, n) solutions when that gcd divides
    b, otherwise none.
    """
    if gcd(m, n) != 1:
        raise ValueError(f"gcd({m}, {n}) != 1")
    # psi is a homomorphism sending (e, num, d) to x -> m^e x - num/m^d
    elem = evaluate_word(w, m)
    a, b = elem.e, -shift(elem)
    # reduce b = num/m^dd mod n through the inverse of m
    num, den = b.numerator, b.denominator
    b_res = num * pow(den, -1, n) % n
    c = (pow(m, a, n) - 1) % n
    if c == 0:
        count = n if b_res == 0 else 0
    else:
        g = gcd(c, n)
        count = g if (-b_res) % g == 0 else 0
    return AffineFixedReport(a, b_res, b, count, a == 0 and b == 0)


# ---------------------------------------------------------------------------
# Tiling plan and certificates

def fraction_loop_plan(eps, kappa) -> PlanParams:
    """plan_parameters as it stood when it stepped (1 - eps)^k and the
    lambdas in Fraction arithmetic, kept verbatim."""
    eps = Fraction(eps)
    kappa = Fraction(kappa)
    if not 0 < eps <= Fraction(1, 4):
        raise ValueError(f"eps={eps} outside (0, 1/4]")
    if kappa <= 0:
        raise ValueError(f"kappa={kappa} must be positive")
    k = 1
    power = 1 - eps
    while power > eps / 2:
        power *= 1 - eps
        k += 1
    lambdas = tuple(eps * (1 - eps) ** (k - j) for j in range(1, k + 1))
    sigma1 = sum(lambdas, Fraction(0))
    if not 1 - eps / 2 <= sigma1 <= 1 - eps / 4:
        raise AssertionError(f"sigma1 = {sigma1} outside [1 - eps/2, 1 - eps/4]")
    return PlanParams(eps, kappa, k, lambdas)


def row_by_row_extract(fam: SetFamily, eps, target: Optional[int] = None) -> Tuple[int, ...]:
    """extract_eps_disjoint as it stood when the greedy tested every row
    and the prune every selected set one at a time, kept verbatim; the
    selected row positions."""
    if not len(fam.sets):
        raise ValueError("empty family")
    rows = fam.sets
    width = rows.shape[1]
    keep_at = ceil((1 - Fraction(eps)) * width)
    union = np.zeros(fam.n, dtype=bool)
    selected: List[int] = []
    covered = 0                 # |union|: the points of a set are distinct
    for i, row in enumerate(rows):
        fresh = width - np.count_nonzero(union[row])
        if fresh >= keep_at:
            selected.append(i)
            union[row] = True
            covered += fresh
            if target is not None and covered >= target:
                break

    if target is not None:
        cover = np.bincount(rows[selected].ravel(), minlength=fam.n)
        kept = []
        for i in reversed(selected):
            only_here = int(np.count_nonzero(cover[rows[i]] == 1))
            if covered - only_here >= target:
                cover[rows[i]] -= 1
                covered -= only_here
            else:
                kept.append(i)
        selected = kept[::-1]
    return tuple(selected)


def tiling_json(t: Tiling) -> str:
    """The certificate encoder as json.dumps of the whole object, one Python
    int per table entry."""
    return json.dumps({
        "n": t.n,
        "eps": [t.eps.numerator, t.eps.denominator],
        "kappa": [t.kappa.numerator, t.kappa.denominator],
        "key_kind": "element",
        "b_size": t.b_size,
        "levels": [{
            "j": lvl.j,
            "lam": [lvl.lam.numerator, lvl.lam.denominator],
            "shape": [g.to_obj() for g in lvl.shape],
            "centers": list(lvl.centers),
        } for lvl in t.levels],
        "table": [[g.to_obj(), t.table[g].image.tolist()]
                  for g in sorted(t.table, key=BsElement.sort_key)],
    })


def level_union_sizes(t: Tiling) -> Tuple[List[int], int]:
    """The number of distinct points each level's tiles cover, ascending j,
    and the number all levels cover, by sorting the points."""
    blocks = level_points(t)
    level_unions = [np.unique(b) for b in blocks]
    return [len(u) for u in level_unions], len(np.unique(np.concatenate(level_unions)))


def full_scan_quasi_tile(phi: SoficApprox, folner_seq: Sequence[Iterable[BsElement]],
                         grid: ProductGrid, eps, kappa, *, delta_prime=Fraction(1, 8),
                         maximal: bool = False,
                         center_order: Optional[Sequence[int]] = None) -> Tiling:
    """quasi_tile as it stood when each level stacked the full n-point image
    of every shape key and tested every point as a center, its level loop
    kept verbatim.  The extraction is looked up on the tiling module at
    each call, so a test that wraps it there sees both routes' families."""
    plan = plan_parameters(eps, kappa)
    eps, kappa = plan.eps, plan.kappa
    shapes = [tuple(sorted(F, key=BsElement.sort_key)) for F in folner_seq]
    _check_shapes(shapes, plan)

    b = b_mask(phi, grid)
    n = phi.n
    order = np.arange(n)
    if center_order is not None:
        order = np.asarray(center_order, dtype=np.int64)
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("center_order must be a permutation of 0..n-1")
    b_size = int(np.count_nonzero(b))
    if b_size < (1 - Fraction(delta_prime)) * n:
        raise CoarseApproximationError(
            f"approximation too coarse: |B| = {b_size} < (1 - {delta_prime}) * {n}")

    covered = np.zeros(n, dtype=bool)
    levels: List[TileLevel] = []
    for j in range(plan.k, 0, -1):
        shape = shapes[j - 1]
        imgs = shape_images(phi.table, shape)
        available = b & ~covered[imgs].any(axis=0)
        centers = order[available[order]]
        if not len(centers):
            if not maximal:
                raise CoarseApproximationError(f"no available centers at level {j}")
            levels.append(TileLevel(j, shape, plan.lambdas[j - 1], ()))
            continue
        target = None if maximal else ceil(eps * len(centers))
        result = tiling.extract_eps_disjoint(SetFamily(n, imgs[:, centers].T), eps,
                                             target=target)
        chosen = centers[list(result.indices)]
        covered[imgs[:, chosen]] = True
        levels.append(TileLevel(j, shape, plan.lambdas[j - 1], tuple(chosen.tolist())))

    levels.reverse()
    table = {g: phi.table[g] for shape in shapes for g in shape}
    return Tiling(n, eps, kappa, tuple(levels), table, b_size)
