"""The modular exponential map f(x) = m^x mod n on {0..n-1}: tabulation,
k-periodic-point censuses, shift-gap statistics, polynomial-congruence root
counts against the Konyagin bound, and a parallel sweep over prime (power)
moduli emitting deterministic CSV rows.

f is a function, never assumed to be a permutation; every k-iterate count
uses function iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np


class DegreeCapError(ValueError):
    """The congruence degree exceeds the configured budget."""


# ---------------------------------------------------------------------------
# The map itself

@dataclass(frozen=True)
class ExpMap:
    m: int
    n: int
    image: np.ndarray     # image[x] = m^x mod n

    def __call__(self, x: int) -> int:
        return int(self.image[x])


# Up to this modulus every product of two residues stays below 2^63 - 1.
MAX_MODULUS = math.isqrt(2 ** 63 - 1)


def _exp_table(m: int, n: int) -> np.ndarray:
    """m^x mod n for all x in {0..n-1} by doubling: once out[:k] holds
    m^0..m^(k-1), out[k:2k] = out[:k] * m^k mod n.  ceil(log2 n) contiguous
    passes; every product stays below n^2."""
    out = np.empty(n, dtype=np.int64)
    out[0] = 1
    k, m_k = 1, m % n
    while k < n:
        w = min(k, n - k)
        block = out[k:k + w]
        np.multiply(out[:w], m_k, out=block)
        np.remainder(block, n, out=block)
        k, m_k = 2 * k, m_k * m_k % n
    return out


def exp_map(m: int, n: int, *, spot_checks: int = 16) -> ExpMap:
    """Tabulate x -> m^x mod n; cross-checked against square-and-multiply
    at deterministic sample points."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if n > MAX_MODULUS:
        raise ValueError(f"modulus {n} exceeds {MAX_MODULUS}: int64 products would overflow")
    if math.gcd(m, n) != 1:
        raise ValueError(f"gcd({m}, {n}) != 1")
    table = _exp_table(m, n)
    rng = np.random.default_rng((m, n))
    for x in rng.integers(0, n, size=min(spot_checks, n)):
        if int(table[x]) != pow(m, int(x), n):
            raise AssertionError(f"tabulation mismatch at x={x}")
    table.setflags(write=False)
    return ExpMap(m, n, table)


def exp_table_by_product(m: int, n: int) -> np.ndarray:
    """Test oracle: running product f(x+1) = m f(x), f(0) = 1."""
    out = np.empty(n, dtype=np.int64)
    acc = 1
    for x in range(n):
        out[x] = acc
        acc = acc * m % n
    return out


def multiplicative_order(f: ExpMap) -> int:
    """Smallest x > 0 with m^x = 1 mod n, straight off the table."""
    hits = np.flatnonzero(f.image[1:] == 1)
    if hits.size == 0:
        raise ValueError(f"m={f.m} has no order below n={f.n}")
    return int(hits[0]) + 1


# ---------------------------------------------------------------------------
# Periodic points

Counts = Tuple[int, int, int, int]


def count_k_periodic(f: ExpMap, identity: Optional[np.ndarray] = None) -> Counts:
    """|{x : f^k(x) = x}| for k = 1..4 by direct iteration y <- f(y)."""
    if identity is None:
        identity = np.arange(f.n, dtype=np.int64)
    y = f.image
    counts = [int(np.count_nonzero(y == identity))]
    for _ in range(3):
        y = f.image[y]
        counts.append(int(np.count_nonzero(y == identity)))
    return tuple(counts)


def count_k_periodic_by_tables(f: ExpMap, identity: Optional[np.ndarray] = None) -> Counts:
    """The same counts through precomposed tables f^2 = f o f, f^3 = f^2 o f
    and f^4 = f^2 o f^2; only f^2 is composed as iteration composes it."""
    if identity is None:
        identity = np.arange(f.n, dtype=np.int64)
    f1 = f.image
    f2 = f1[f1]
    return tuple(int(np.count_nonzero(t == identity))
                 for t in (f1, f2, f2[f1], f2[f2]))


@dataclass(frozen=True)
class CycleCensus:
    n: int
    m: int
    order: int                 # multiplicative order of m mod n
    fixed: Counts              # counts for k = 1..4

    @property
    def frac3(self) -> Fraction:
        return Fraction(self.fixed[2], self.n)

    @property
    def frac4(self) -> Fraction:
        return Fraction(self.fixed[3], self.n)


def cycle_census(m: int, n: int) -> CycleCensus:
    f = exp_map(m, n)
    identity = np.arange(n, dtype=np.int64)
    counts = count_k_periodic(f, identity)
    tables = count_k_periodic_by_tables(f, identity)
    for k, (a, b) in enumerate(zip(counts, tables), start=1):
        if a != b:
            raise AssertionError(f"periodic-count routes disagree at n={n}, k={k}")
    return CycleCensus(n, m, multiplicative_order(f), counts)


# ---------------------------------------------------------------------------
# Gap census

@dataclass(frozen=True)
class GapReport:
    k: int
    count: int                  # |X cap (X - k)| without wraparound
    bound: Fraction             # delta^2 n / 4 - 1
    bound_ok: bool


def gap_census(X: Iterable[int], n: int, delta) -> GapReport:
    """Smallest shift 1 <= k < 2/delta maximizing the number of x in X with
    x + k in X (no wraparound); requires |X| >= delta n."""
    delta = Fraction(delta)
    xs = sorted(set(int(x) for x in X))
    if any(not 0 <= x < n for x in xs):
        raise ValueError("X not inside {0..n-1}")
    if len(xs) < delta * n:
        raise ValueError(f"|X| = {len(xs)} below delta n = {float(delta * n)}")
    xset = set(xs)
    k_max = math.ceil(2 / delta) - 1
    best_k, best = 1, -1
    for k in range(1, k_max + 1):
        count = sum(1 for x in xs if x + k in xset)
        if count > best:
            best_k, best = k, count
    bound = delta ** 2 * n / 4 - 1
    return GapReport(best_k, best, bound, best >= bound)


# ---------------------------------------------------------------------------
# Congruence roots vs the Konyagin bound

@dataclass(frozen=True)
class RictuReport:
    n: int
    degree: int
    count: int
    c_d: float
    bound: float                # c_d * n^(1 - 1/d)
    degenerate: bool            # the identity case l = 1, kappa_exp = 0
    bound_ok: Optional[bool]    # None when degenerate (bound not asserted)


def rictu_roots(n: int, m: int, k: int, l: int, kappa_exp: int,
                *, C: float = 1.0, degree_cap: int = 10 ** 6) -> RictuReport:
    """Brute-force count of z in {0..n-1} with
    (z + k)^(l^(m^k)) = m^kappa_exp (z^l + k) mod n, plus the root bound
    c_d n^(1 - 1/d) with c_d = d/e + C log^2 d."""
    if m ** k > 64:
        raise DegreeCapError(f"m^k = {m ** k} makes the degree astronomical")
    degree = l ** (m ** k)
    if degree > degree_cap:
        raise DegreeCapError(f"degree {degree} exceeds cap {degree_cap}")
    factor = pow(m, kappa_exp, n)
    count = 0
    for z in range(n):
        lhs = pow(z + k, degree, n)
        rhs = factor * (pow(z, l, n) + k) % n
        if lhs == rhs:
            count += 1
    degenerate = l == 1 and kappa_exp == 0
    c_d = degree / math.e + C * math.log(degree) ** 2 if degree > 1 else 1 / math.e
    bound = c_d * n ** (1 - 1 / degree)
    bound_ok = None if degenerate else count <= bound
    return RictuReport(n, degree, count, c_d, bound, degenerate, bound_ok)


# ---------------------------------------------------------------------------
# Sweep layer

def segmented_sieve(lo: int, hi: int, *, segment: int = 1 << 16) -> List[int]:
    """Primes in [lo, hi]."""
    if hi < 2 or hi < lo:
        return []
    lo = max(lo, 2)
    root = math.isqrt(hi)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p:: p] = False
    small = np.flatnonzero(base)
    out: List[int] = []
    for start in range(lo, hi + 1, segment):
        stop = min(start + segment, hi + 1)
        mark = np.ones(stop - start, dtype=bool)
        for p in small:
            p = int(p)
            first = max(p * p, (start + p - 1) // p * p)
            if first < stop:
                mark[first - start:: p] = False
        out.extend((start + np.flatnonzero(mark)).tolist())
    return out


def prime_powers(p: int, r_min: int, r_max: int) -> List[int]:
    return [p ** r for r in range(r_min, r_max + 1)]


def census_row(args: Tuple[int, int]) -> CycleCensus:
    m, n = args
    return cycle_census(m, n)


def run_sweep(m: int, moduli: Sequence[int], *, workers: int = 1) -> List[CycleCensus]:
    """One census per modulus (skipping those not coprime to m), merged in
    modulus order regardless of worker scheduling."""
    todo = [(m, n) for n in sorted(set(moduli)) if n >= 2 and math.gcd(m, n) == 1]
    if workers <= 1 or len(todo) < 4:
        rows = [census_row(t) for t in todo]
    else:
        with Pool(workers) as pool:
            rows = pool.map(census_row, todo, chunksize=max(1, len(todo) // (8 * workers)))
    return sorted(rows, key=lambda r: r.n)


CSV_HEADER = "n,m,order,fix1,fix2,fix3,fix4,frac3,frac4"


def sweep_csv(rows: Iterable[CycleCensus]) -> str:
    """Deterministic CSV: fixed column order, 10-digit decimals, LF endings."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append("%d,%d,%d,%d,%d,%d,%d,%.10f,%.10f" % (
            r.n, r.m, r.order, r.fixed[0], r.fixed[1], r.fixed[2], r.fixed[3],
            float(r.frac3), float(r.frac4)))
    return "\n".join(lines) + "\n"
