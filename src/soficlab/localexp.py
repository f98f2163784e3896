"""Locally exponential functions on Z/nZ: defect analysis against the law
f(x+1) = m f(x), the three-relator triviality test, p-adic fixed-point
uniqueness for maps x -> c s^x, and a searcher for bijections with f^4 = id
minimizing the defect set.

All local laws are tested cyclically over Z/nZ, including the wraparound
point x = n - 1 (compare f(0) with m f(n-1)).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .perm import HammingValue, Permutation, displacement, iterate

# The largest n checked against Sym(n) exhaustion, and exhausted over f^4 = id
SYM_EXHAUSTIVE_MAX = 8
ORDER4_EXHAUSTIVE_MAX = 10

# ---------------------------------------------------------------------------
# Defect reports

@dataclass(frozen=True)
class DefectReport:
    defect_set: Tuple[int, ...]             # {x : f(x+1) != m f(x)}, cyclic
    four_periodic_failures: Tuple[int, ...]  # {x : f^4(x) != x}
    defect_fraction: Fraction


def _law_failures(image: np.ndarray, m: int, n: int) -> np.ndarray:
    shifted = np.roll(image, -1)        # shifted[x] = f(x+1 mod n)
    return np.flatnonzero(shifted != m * image % n)


def defect_report(f: Permutation, m: int) -> DefectReport:
    """Full scan for both local laws; each set is computed by two
    independent routes that must agree."""
    n = f.n
    if math.gcd(m, n) != 1:
        raise ValueError(f"gcd({m}, {n}) != 1")
    fast = _law_failures(f.image, m, n)
    flags = _law_flags(f.image.tolist(), m, n)
    if fast.tolist() != [x for x, bad in enumerate(flags) if bad]:
        raise AssertionError("defect-set scans disagree")
    fours = np.flatnonzero(iterate(f.image, 4) != np.arange(n))
    f2 = f.image[f.image]
    if not np.array_equal(fours, np.flatnonzero(f2[f2] != np.arange(n))):
        raise AssertionError("four-periodic scans disagree")
    return DefectReport(tuple(fast.tolist()), tuple(fours.tolist()), Fraction(fast.size, n))


def min_mezo_fraction(n: int, m: int) -> Fraction:
    """min over all bijections of Z/nZ of the fraction of points failing
    f(x+1) = m f(x) or f^3(x) = x: the orbits of x -> m x on Z/n, over n.
    The failing points of the first law cut Z/n into as many runs, the
    images of a run lie in one orbit, and f is onto, so no bijection fails
    at fewer (n >= 2 gives two orbits, so one point fails).  Laying the
    orbits y, m y, m^2 y, ... end to end attains the bound with that law
    alone.  Only exhaustion over Sym(n), in tests/oracles.py, shows the
    f^3 law changes nothing, at every n <= SYM_EXHAUSTIVE_MAX."""
    if n > SYM_EXHAUSTIVE_MAX:
        raise ValueError(f"exhaustion limited to n <= {SYM_EXHAUSTIVE_MAX}")
    if math.gcd(m, n) != 1:
        raise ValueError(f"gcd({m}, {n}) != 1")
    return Fraction(len(Permutation(np.arange(n) * m % n).cycle_lengths()), n)


# ---------------------------------------------------------------------------
# Three-relator triviality test

@dataclass(frozen=True)
class H3Report:
    w_defects: Tuple[HammingValue, HammingValue, HammingValue]
    g1_displacement: HammingValue       # always 1 (every point moves)


def h3_witness(p: Permutation, m: int) -> H3Report:
    """Build g_1(x) = x - 1, g_3 = p g_1 p^{-1}, g_2 = p^2 g_1 p^{-2} and
    measure the Hamming defect of the three cyclic conjugation relators
    w_i = a_i^{-1} a_{i+1} a_i a_{i+1}^{-m} under a_i -> g_i, that is the
    displacement of each w_i."""
    n = p.n
    p_inv = p.inverse()
    g1 = Permutation((np.arange(n) - 1) % n, _trusted=True)
    g3 = p.compose(g1).compose(p_inv)
    g2 = p.compose(g3).compose(p_inv)
    defects = tuple(displacement(gi.inverse().compose(gj).compose(gi).compose(gj ** -m))
                    for gi, gj in ((g1, g2), (g2, g3), (g3, g1)))
    return H3Report(defects, displacement(g1))


# ---------------------------------------------------------------------------
# p-adic fixed points of x -> c s^x

@dataclass(frozen=True)
class PadicContext:
    p: int
    r: int
    m: int
    q: int = field(init=False)     # p^r
    s: int = field(init=False)     # m^(p-1) mod p^r

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.m % self.p == 0:
            raise ValueError(f"p = {self.p} divides m = {self.m}")
        q = self.p ** self.r
        s = pow(self.m, self.p - 1, q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", s)
        if s % self.p != 1:
            raise AssertionError(f"m^(p-1) = {s} is not 1 mod p = {self.p}")

    def s_pow(self, x: int) -> int:
        """s^x mod p^r, exponent reduced mod p^(r-1) (the period of x -> s^x)."""
        period = self.p ** (self.r - 1)
        return pow(self.s, x % period, self.q)


@dataclass(frozen=True)
class PadicFixedReport:
    candidate: Tuple[int, int, int, int]
    is_fixed: bool
    brute_points: Optional[Tuple[Tuple[int, int, int, int], ...]]   # None if skipped


def _padic_step(ctx: PadicContext, c: Sequence[int],
                x: Tuple[int, int, int, int]) -> Tuple[int, int, int, int]:
    """G(x1,x2,x3,x4) = (c4 s^x4, c1 s^x1, c2 s^x2, c3 s^x3) mod p^r."""
    q = ctx.q
    return (c[3] * ctx.s_pow(x[3]) % q, c[0] * ctx.s_pow(x[0]) % q,
            c[1] * ctx.s_pow(x[1]) % q, c[2] * ctx.s_pow(x[2]) % q)


def padic_fixed_point(ctx: PadicContext, c: Sequence[int]) -> PadicFixedReport:
    """The unique fixed-point candidate of G by digit lifting: mod p the
    point must be (c4, c1, c2, c3) since s^x = 1 mod p, and knowing it mod
    p^t determines each s^x, hence the point, mod p^(t+1).  Returns the
    candidate, whether it is genuinely fixed, and (when the state space is
    at most 10^6) an exhaustive cross-check listing every fixed point."""
    c = tuple(int(v) % ctx.q for v in c)
    if len(c) != 4:
        raise ValueError("c must be a 4-tuple")
    if any(v % ctx.p == 0 for v in c):
        raise ValueError("every c_j must be a unit mod p")
    x = (c[3] % ctx.q, c[0] % ctx.q, c[1] % ctx.q, c[2] % ctx.q)
    for _ in range(ctx.r):
        x = _padic_step(ctx, c, x)
    is_fixed = _padic_step(ctx, c, x) == x

    brute: Optional[Tuple[Tuple[int, int, int, int], ...]] = None
    if ctx.q ** 4 <= 10 ** 6:
        q = ctx.q
        spow = np.array([ctx.s_pow(v) for v in range(q)], dtype=np.int64)
        maps = [c[j] * spow % q for j in range(4)]     # maps[j][x] = c_{j+1} s^x
        x1, x2, x3, x4 = np.ix_(*(np.arange(q),) * 4)
        fixed = ((x2 == maps[0][x1]) & (x3 == maps[1][x2])
                 & (x4 == maps[2][x3]) & (x1 == maps[3][x4]))
        brute = tuple(tuple(int(v) for v in row) for row in np.argwhere(fixed))
        if len(brute) > 1:
            raise AssertionError(f"multiple fixed points: {brute}")
        if is_fixed != (len(brute) == 1) or (brute and brute[0] != x):
            raise AssertionError("lifting and brute force disagree")
    return PadicFixedReport(x, is_fixed, brute)


# ---------------------------------------------------------------------------
# Searcher over bijections with f^4 = id

@dataclass(frozen=True)
class SearchResult:
    f: Permutation
    n: int
    m: int
    seed: int
    budget: int
    defect_count: int
    cycle_histogram: Dict[int, int]
    exhaustive: bool
    budget_exhausted: bool

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n, "m": self.m, "seed": self.seed, "budget": self.budget,
            "defect": self.defect_count,
            "cycle_histogram": {str(k): v for k, v in sorted(self.cycle_histogram.items())},
            "exhaustive": self.exhaustive,
            "budget_exhausted": self.budget_exhausted,
            "image": self.f.image.tolist(),
        })


def _enumerate_order4(points: List[int], img: List[int]):
    """Every permutation of the given points whose cycle type uses lengths in
    {1, 2, 4} only, each written into img in place and yielded as img: the
    first point fixed, then in a 2-cycle, then in a 4-cycle with an ordered
    choice of three others."""
    if not points:
        yield img
        return
    a, rest = points[0], points[1:]
    img[a] = a
    yield from _enumerate_order4(rest, img)
    for i, b in enumerate(rest):
        img[a], img[b] = b, a
        yield from _enumerate_order4(rest[:i] + rest[i + 1:], img)
    for b, c, d in itertools.permutations(rest, 3):
        img[a], img[b], img[c], img[d] = b, c, d, a
        yield from _enumerate_order4([v for v in rest if v not in (b, c, d)], img)


def _random_order4(points: List[int], rng: random.Random) -> Dict[int, int]:
    """A random permutation of the points with cycle lengths in {1, 2, 4}.

    It shuffles the points, then pops them from the end: each popped point
    picks a cycle length from [1], [1, 2] or [1, 2, 4] (as many as the points
    left allow) and closes a cycle with points popped from random positions.
    Every draw below k is made as CPython's rng.shuffle, rng.choice and
    rng.randrange make it: rng.getrandbits(k.bit_length()), drawn again while
    the value is >= k.  So the result and the generator's state afterwards are
    those of the shuffle/choice/randrange route, with fewer Python calls."""
    getrandbits = rng.getrandbits
    pts = list(points)
    for i in range(len(pts) - 1, 0, -1):        # rng.shuffle(pts)
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        pts[i], pts[j] = pts[j], pts[i]
    out: Dict[int, int] = {}
    left = len(pts)
    while left:
        a = pts.pop()
        left -= 1
        if not left:
            # rng.choice([1]) still draws: one bit, until it is 0
            while getrandbits(1):
                pass
            out[a] = a
            break
        # rng.choice([1, 2]) or rng.choice([1, 2, 4]): an index below 2 or 3
        k = 2 if left < 3 else 3
        r = getrandbits(2)
        while r >= k:
            r = getrandbits(2)
        prev = a
        for _ in range((0, 1, 3)[r]):           # the other points of the cycle
            bits = left.bit_length()            # pts.pop(rng.randrange(left))
            j = getrandbits(bits)
            while j >= left:
                j = getrandbits(bits)
            x = pts.pop(j)
            left -= 1
            out[prev] = x
            prev = x
        out[prev] = a
    return out


def _law_flags(img: Sequence[int], m: int, n: int) -> List[bool]:
    """flags[x] = (f(x+1) != m f(x) mod n) over a list or tuple image, cyclic."""
    return [b != m * a % n for a, b in zip(img, img[1:] + img[:1])]


def _resample_delta(cur: List[int], bad: List[bool], touched: AbstractSet[int],
                    m: int, n: int) -> Tuple[int, Dict[int, bool]]:
    """Change in the defect count after the images at ``touched`` were
    rewritten in ``cur``: only the flags at x - 1 and x of each touched x can
    move.  Returns the change and the new flags to store on accept."""
    flags: Dict[int, bool] = {}
    delta = 0
    last = n - 1
    for x in touched:
        y = x - 1 if x else last                # the flag at x - 1 compares f(x)
        if y not in flags:
            flag = flags[y] = cur[x] != m * cur[y] % n
            delta += flag - bad[y]
        if x not in flags:
            flag = flags[x] = (cur[x + 1] if x < last else cur[0]) != m * cur[x] % n
            delta += flag - bad[x]
    return delta, flags


def search_local_exp(n: int, m: int, budget: int, seed: int) -> SearchResult:
    """Minimize the defect-set size over bijections with f^4 = id.
    Exhaustive for n <= ORDER4_EXHAUSTIVE_MAX when the budget covers every
    map, simulated annealing above; the winner's defect count is recomputed
    independently before returning.

    An annealing step resamples the cycles through two random points and
    updates the defect from the flags next to the touched points, so it
    costs O(length of those cycles), not O(n); the running count is checked
    against a full recount after the loop.  A step draws its two points from
    rng.getrandbits as rng.randrange(n) would, and its pattern through
    _random_order4, which draws the same way: the draws, and so the map
    for a seed, are those of randrange, shuffle and choice."""
    if math.gcd(m, n) != 1:
        raise ValueError(f"gcd({m}, {n}) != 1")
    exhaustive = n <= ORDER4_EXHAUSTIVE_MAX
    budget_exhausted = False
    best_img: Optional[List[int]] = None
    best = n + 1

    if exhaustive:
        # a budget of b scores b maps, and at least one; the enumeration is
        # cut short only when a map beyond the budget is left
        maps = _enumerate_order4(list(range(n)), list(range(n)))
        for evals, img in enumerate(maps):
            if evals >= max(budget, 1):
                budget_exhausted = True
                exhaustive = False
                break
            d = sum(_law_flags(img, m, n))
            # the first map always wins on d < best = n + 1; img is rewritten
            # in place, so the winner is a copy
            if d < best or (d == best and img < best_img):
                best, best_img = d, img.copy()
    else:
        rng = random.Random(seed)
        # bound at call time, so that a monkeypatched seam is the one called
        getrandbits, rand, exp = rng.getrandbits, rng.random, math.exp
        random_order4, resample_delta = _random_order4, _resample_delta
        cur = list(range(n))
        for k, v in random_order4(list(range(n)), rng).items():
            cur[k] = v
        bad = _law_flags(cur, m, n)
        cur_d = sum(bad)
        best, best_img = cur_d, cur.copy()
        temp = max(1.0, n / 8)
        cooling = (0.01 / temp) ** (1 / max(1, budget))
        bits = n.bit_length()
        for _ in range(budget):
            # resample the cycles through two random points with a fresh
            # order-dividing-4 pattern, in place; the old images, keyed by
            # the touched points, undo a rejected step.  a and b are drawn
            # as rng.randrange(n) draws them.
            a = getrandbits(bits)
            while a >= n:
                a = getrandbits(bits)
            b = getrandbits(bits)
            while b >= n:
                b = getrandbits(bits)
            saved = {}
            for x in (a, b):
                while x not in saved:
                    y = cur[x]
                    saved[x] = y
                    x = y
            for k, v in random_order4(sorted(saved), rng).items():
                cur[k] = v
            delta, flags = resample_delta(cur, bad, saved.keys(), m, n)
            d = cur_d + delta
            if d <= cur_d or rand() < exp((cur_d - d) / temp):
                cur_d = d
                for y, flag in flags.items():
                    bad[y] = flag
                if d < best:
                    best, best_img = d, cur.copy()
            else:
                for k, v in saved.items():
                    cur[k] = v
            temp *= cooling
        budget_exhausted = True
        if _law_failures(np.array(cur, dtype=np.int64), m, n).size != cur_d:
            raise AssertionError("running defect count does not recompute")

    if best_img is None:
        raise AssertionError("search kept no candidate map")
    f = Permutation(best_img)
    rep = defect_report(f, m)
    if rep.four_periodic_failures:
        raise AssertionError("search produced a non-4-periodic map")
    if len(rep.defect_set) != best:
        raise AssertionError("reported defect does not recompute")
    return SearchResult(f, n, m, seed, budget, best, dict(Counter(f.cycle_lengths())),
                        exhaustive, budget_exhausted)
