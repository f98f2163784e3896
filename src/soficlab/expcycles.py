"""The modular exponential map f(x) = m^x mod n on {0..n-1}: tabulation,
k-periodic-point censuses, and a parallel sweep over prime (power) moduli
emitting deterministic CSV rows.

f is a function, never assumed to be a permutation.  Its periodic points lie
in its image S = <m> = image[:ord], so the k-iterate counts run on S by two
routes: iteration of f, and iteration of the conjugate map
G(i) = S[i] mod ord in discrete-log coordinates.  Every array of size n or
ord is a view of a Workspace; a sweep runs its censuses through one, so no
modulus allocates arrays of its own.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Iterable, List, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# The map itself

@dataclass(frozen=True)
class ExpMap:
    m: int
    n: int
    image: np.ndarray     # image[x] = m^x mod n

    def __post_init__(self) -> None:
        # The count routes gather by table entries with no bounds check of
        # their own (see below), so every entry must lie in 0..n-1.  One
        # pass checks both ends, since as uint64 a negative entry exceeds 2^63.
        if self.image.dtype != np.int64 or self.image.shape != (self.n,):
            raise ValueError(f"image must hold {self.n} int64 entries")
        if int(self.image.view(np.uint64).max()) >= self.n:
            raise AssertionError(f"tabulation entry outside 0..{self.n - 1}")


# Up to this modulus every product of two residues stays below 2^63 - 1.
MAX_MODULUS = math.isqrt(2 ** 63 - 1)


def _check_modulus(n: int) -> None:
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if n > MAX_MODULUS:
        raise ValueError(f"modulus {n} exceeds {MAX_MODULUS}: int64 products would overflow")


class Workspace:
    """Memory that the censuses of moduli up to n_max share, so that a sweep
    has its pages mapped once rather than once per modulus.  A census of
    modulus n lays out views of it:

    - `table(n)` starts the census and is its exp table;
    - `scratch(size)`, for `size` < n, is a bool array `flags` for
      comparisons and int64 arrays `a`, `b` and `log` for the doubling
      quotients, a route's iterates and the log route's map G.  Every call
      returns the same memory, so a caller writes these arrays before
      reading them, and holds those of one call at a time;
    - `arange(size)` is 0..size-1, read-only, for the log route.

    No view may outlive its census.  Only the arange, 8 n_max bytes, is
    written up front: the kernel maps a page of the other arrays when a
    census first touches it, and every view starts at the front of its
    array, so a census of modulus n with ord(m) = o touches 8 n bytes of
    table and n + max(4 n, 24 o) of scratch."""

    def __init__(self, n_max: int) -> None:
        _check_modulus(n_max)
        self._table = np.empty(n_max, dtype=np.int64)
        self._flags = np.empty(n_max - 1, dtype=np.bool_)
        self._ints = np.empty(3 * (n_max - 1), dtype=np.int64)
        self._arange = np.arange(n_max - 1, dtype=np.int64)
        self._arange.setflags(write=False)
        self._n = n_max             # modulus of the current census

    def table(self, n: int) -> np.ndarray:
        if n > self._table.size:
            raise ValueError(f"modulus {n} for a workspace of {self._table.size}")
        self._n = n
        return self._table[:n]

    def scratch(self, size: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if size >= self._n:
            raise ValueError(f"{size} scratch entries for modulus {self._n}")
        return (self._flags[:size], *self._ints[:3 * size].reshape(3, size))

    def arange(self, size: int) -> np.ndarray:
        if size >= self._n:
            raise ValueError(f"arange of {size} for modulus {self._n}")
        return self._arange[:size]


def _exp_table(m: int, n: int, workspace: Workspace) -> np.ndarray:
    """m^x mod n for all x in {0..n-1} by doubling: once out[:k] holds
    m^0..m^(k-1), out[k:2k] = out[:k] * m^k mod n.  ceil(log2 n) contiguous
    passes.  Each block is reduced as block - (block // n) * n, since integer
    division by a scalar is far cheaper in numpy than np.remainder; this is
    exact because 0 <= block < n^2 <= 2^63 - 1 for n <= MAX_MODULUS, so the
    floor quotient is the true one and no intermediate overflows."""
    out, quot = workspace.table(n), workspace.scratch(n // 2)[1]
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


def exp_map(m: int, n: int, workspace: Workspace) -> ExpMap:
    """Tabulate x -> m^x mod n; every entry is checked to lie in {0..n-1}
    (by ExpMap), and the table is cross-checked against square-and-multiply
    at 16 deterministic sample points.  The table is a read-only view of the
    workspace's table, valid until the workspace's next census."""
    _check_modulus(n)
    if math.gcd(m, n) != 1:
        raise ValueError(f"gcd({m}, {n}) != 1")
    table = _exp_table(m, n, workspace)
    sample = np.random.default_rng((m, n)).integers(0, n, size=min(16, n))
    for x, y in zip(sample.tolist(), table[sample].tolist()):
        if y != pow(m, x, n):
            raise AssertionError(f"tabulation mismatch at x={x}")
    table.setflags(write=False)
    return ExpMap(m, n, table)


def multiplicative_order(f: ExpMap, workspace: Workspace) -> int:
    """Smallest x > 0 with m^x = 1 mod n, straight off the table."""
    flags = workspace.scratch(f.n - 1)[0]
    ones = np.equal(f.image[1:], 1, out=flags)
    first = int(ones.argmax())         # stops at the first True
    if not ones[first]:
        raise ValueError(f"m={f.m} has no order below n={f.n}")
    return first + 1


# ---------------------------------------------------------------------------
# Periodic points

Counts = Tuple[int, int, int, int]

# The gathers below run np.take with mode="clip", since mode="raise" copies
# through a fresh `out`.  No index is ever clipped: ExpMap checks every
# table entry to lie in 0..n-1, and the log route's indices are residues
# mod ord.  ("wrap" reduces an index by repeated subtraction, so a wrong
# one could stall the run rather than miscount.)


def _iterate_counts(table: np.ndarray, start: np.ndarray, target: np.ndarray,
                    steps: int, workspace: Workspace) -> List[int]:
    """|{i : y_k[i] = target[i]}| for y_k = table[y_(k-1)], y_0 = start,
    k = 1..steps, ping-ponging y between the scratch arrays a and b."""
    flags, *ys, _ = workspace.scratch(start.size)
    y, counts = start, []
    for k in range(steps):
        y = np.take(table, y, out=ys[k % 2], mode="clip")
        counts.append(int(np.count_nonzero(np.equal(y, target, out=flags))))
    return counts


def count_k_periodic(f: ExpMap, order: int, workspace: Workspace) -> Counts:
    """|{x : f^k(x) = x}| for k = 1..4 by direct iteration y <- f(y).

    Every k-periodic point lies in the image of f, which is the subgroup
    S = <m> = image[:order], so the iteration runs from y = S; each step
    still gathers from the whole table."""
    s = f.image[:order]
    return tuple(_iterate_counts(f.image, s, s, 4, workspace))


def count_k_periodic_by_tables(f: ExpMap, order: int, workspace: Workspace) -> Counts:
    """The same counts in discrete-log coordinates.  With S[i] = m^i,
    f(S[i]) = m^(S[i] mod ord) = S[G(i)] for G(i) = S[i] mod ord, and S is
    injective on {0..ord-1}, so f^k fixes S[i] exactly when G^k fixes i.
    Reads the table below index ord only, composes nothing that
    count_k_periodic reads, and reads no scratch slot of the workspace
    before writing it."""
    s = f.image[:order]
    flags, _, _, g = workspace.scratch(order)
    np.floor_divide(s, order, out=g)        # s mod ord, reduced as _exp_table reduces
    np.multiply(g, order, out=g)
    np.subtract(s, g, out=g)
    i = workspace.arange(order)
    fixed = int(np.count_nonzero(np.equal(g, i, out=flags)))
    return (fixed, *_iterate_counts(g, g, i, 3, workspace))


@dataclass(frozen=True)
class CycleCensus:
    n: int
    m: int
    order: int                 # multiplicative order of m mod n
    fixed: Counts              # counts for k = 1..4


def cycle_census(m: int, n: int, workspace: Workspace) -> CycleCensus:
    """Order of m and fix1..fix4 for one modulus.  Every array of size n or
    ord is a view of the workspace; the result holds none."""
    f = exp_map(m, n, workspace)
    order = multiplicative_order(f, workspace)
    counts = count_k_periodic(f, order, workspace)
    tables = count_k_periodic_by_tables(f, order, workspace)
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


def _census_run(m: int, moduli: Sequence[int]) -> List[CycleCensus]:
    """Censuses of the given moduli, in order, through one workspace sized
    to the largest."""
    if not moduli:
        return []
    workspace = Workspace(max(moduli))
    return [cycle_census(m, n, workspace) for n in moduli]


def run_sweep(m: int, moduli: Sequence[int], *, workers: int) -> List[CycleCensus]:
    """One census per modulus (skipping those not coprime to m), merged in
    modulus order regardless of worker scheduling.  Serially one workspace
    serves every modulus; a pool gets chunks of consecutive moduli, one
    workspace each."""
    todo = [n for n in sorted(set(moduli)) if n >= 2 and math.gcd(m, n) == 1]
    workers = min(workers, len(todo), os.cpu_count() or 1)
    if workers <= 1 or len(todo) < 4:
        return _census_run(m, todo)
    size = max(1, len(todo) // (8 * workers))
    chunks = [(m, todo[i:i + size]) for i in range(0, len(todo), size)]
    with Pool(workers) as pool:
        return [row for rows in pool.starmap(_census_run, chunks, chunksize=1) for row in rows]


CSV_HEADER = "n,m,order,fix1,fix2,fix3,fix4,frac3,frac4"


def sweep_csv(rows: Iterable[CycleCensus]) -> str:
    """Deterministic CSV: fixed column order, 10-digit decimals, LF endings.
    frac3 and frac4 are fix3 / n and fix4 / n, int divisions that CPython
    rounds correctly, as float(Fraction(fix, n)) is."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append("%d,%d,%d,%d,%d,%d,%d,%.10f,%.10f" % (
            r.n, r.m, r.order, r.fixed[0], r.fixed[1], r.fixed[2], r.fixed[3],
            r.fixed[2] / r.n, r.fixed[3] / r.n))
    return "\n".join(lines) + "\n"
