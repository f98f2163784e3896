"""The modular exponential map f(x) = m^x mod n on {0..n-1}: tabulation,
k-periodic-point censuses, and a parallel sweep over prime (power) moduli
emitting deterministic CSV rows.

f is a function, never assumed to be a permutation.  Its periodic points lie
in its image S = <m> = image[:ord], so the k-iterate counts run on S by two
routes: iteration of f, and iteration of the conjugate map
G(i) = S[i] mod ord in discrete-log coordinates.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np


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
    passes.  Each block is reduced as block - (block // n) * n, since integer
    division by a scalar is far cheaper in numpy than np.remainder; this is
    exact because 0 <= block < n^2 <= 2^63 - 1 for n <= MAX_MODULUS, so the
    floor quotient is the true one and no intermediate overflows."""
    out = np.empty(n, dtype=np.int64)
    quot = np.empty(n // 2, dtype=np.int64)
    out[0] = 1
    k, m_k = 1, m % n
    while k < n:
        w = min(k, n - k)
        block, q = out[k:k + w], quot[:w]
        np.multiply(out[:w], m_k, out=block)
        np.floor_divide(block, n, out=q)
        np.multiply(q, n, out=q)
        np.subtract(block, q, out=block)
        k, m_k = 2 * k, m_k * m_k % n
    return out


def exp_map(m: int, n: int) -> ExpMap:
    """Tabulate x -> m^x mod n; cross-checked against square-and-multiply
    at 16 deterministic sample points."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if n > MAX_MODULUS:
        raise ValueError(f"modulus {n} exceeds {MAX_MODULUS}: int64 products would overflow")
    if math.gcd(m, n) != 1:
        raise ValueError(f"gcd({m}, {n}) != 1")
    table = _exp_table(m, n)
    rng = np.random.default_rng((m, n))
    for x in rng.integers(0, n, size=min(16, n)):
        if int(table[x]) != pow(m, int(x), n):
            raise AssertionError(f"tabulation mismatch at x={x}")
    table.setflags(write=False)
    return ExpMap(m, n, table)


def multiplicative_order(f: ExpMap) -> int:
    """Smallest x > 0 with m^x = 1 mod n, straight off the table."""
    hits = np.flatnonzero(f.image[1:] == 1)
    if hits.size == 0:
        raise ValueError(f"m={f.m} has no order below n={f.n}")
    return int(hits[0]) + 1


# ---------------------------------------------------------------------------
# Periodic points

Counts = Tuple[int, int, int, int]


def count_k_periodic(f: ExpMap, order: Optional[int] = None) -> Counts:
    """|{x : f^k(x) = x}| for k = 1..4 by direct iteration y <- f(y).

    Every k-periodic point lies in the image of f, which is the subgroup
    S = <m> = image[:order], so the iteration runs from y = S; each step
    still gathers from the whole table."""
    if order is None:
        order = multiplicative_order(f)
    s = f.image[:order]
    y = s
    counts = []
    for _ in range(4):
        y = f.image[y]
        counts.append(int(np.count_nonzero(y == s)))
    return tuple(counts)


def count_k_periodic_by_tables(f: ExpMap, order: Optional[int] = None) -> Counts:
    """The same counts in discrete-log coordinates.  With S[i] = m^i,
    f(S[i]) = m^(S[i] mod ord) = S[G(i)] for G(i) = S[i] mod ord, and S is
    injective on {0..ord-1}, so f^k fixes S[i] exactly when G^k fixes i.
    Reads the table below index ord only, and composes nothing that
    count_k_periodic reads."""
    if order is None:
        order = multiplicative_order(f)
    s = f.image[:order]
    g = s // order                  # s mod ord, reduced as _exp_table reduces
    np.multiply(g, order, out=g)
    np.subtract(s, g, out=g)
    i = np.arange(order, dtype=np.int64)
    y = g
    counts = [int(np.count_nonzero(y == i))]
    for _ in range(3):
        y = g[y]
        counts.append(int(np.count_nonzero(y == i)))
    return tuple(counts)


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
    order = multiplicative_order(f)
    counts = count_k_periodic(f, order)
    tables = count_k_periodic_by_tables(f, order)
    for k, (a, b) in enumerate(zip(counts, tables), start=1):
        if a != b:
            raise AssertionError(f"periodic-count routes disagree at n={n}, k={k}")
    return CycleCensus(n, m, order, counts)


# ---------------------------------------------------------------------------
# Sweep layer

def segmented_sieve(lo: int, hi: int) -> List[int]:
    """Primes in [lo, hi], sieved in segments of 2^16."""
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
    for start in range(lo, hi + 1, 1 << 16):
        stop = min(start + (1 << 16), hi + 1)
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


def run_sweep(m: int, moduli: Sequence[int], *, workers: int = 1) -> List[CycleCensus]:
    """One census per modulus (skipping those not coprime to m), merged in
    modulus order regardless of worker scheduling."""
    todo = [(m, n) for n in sorted(set(moduli)) if n >= 2 and math.gcd(m, n) == 1]
    workers = min(workers, len(todo), os.cpu_count() or 1)
    if workers <= 1 or len(todo) < 4:
        return [cycle_census(m, n) for m, n in todo]
    with Pool(workers) as pool:
        return pool.starmap(cycle_census, todo, chunksize=max(1, len(todo) // (8 * workers)))


CSV_HEADER = "n,m,order,fix1,fix2,fix3,fix4,frac3,frac4"


def sweep_csv(rows: Iterable[CycleCensus]) -> str:
    """Deterministic CSV: fixed column order, 10-digit decimals, LF endings."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append("%d,%d,%d,%d,%d,%d,%d,%.10f,%.10f" % (
            r.n, r.m, r.order, r.fixed[0], r.fixed[1], r.fixed[2], r.fixed[3],
            float(r.frac3), float(r.frac4)))
    return "\n".join(lines) + "\n"
