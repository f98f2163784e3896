"""Exact rational recurrence P_n for the probability that a uniform random
permutation of n points has order dividing 4, the counting bound on maps
satisfying a local exponential law off at most an epsilon-fraction of points,
and a CSV of both in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple


@dataclass(frozen=True)
class RationalSeq:
    """P_1..P_N as exact rationals; P_n is the probability that a uniform
    random permutation of Sym(n) satisfies sigma^4 = id."""

    values: Tuple[Fraction, ...]

    def __getitem__(self, n: int) -> Fraction:
        if not 1 <= n <= len(self.values):
            raise IndexError(f"n = {n} outside 1..{len(self.values)}")
        return self.values[n - 1]


def p_sequence(N: int) -> RationalSeq:
    """P_1 = P_2 = 1, P_3 = P_4 = 2/3, and
    P_n = (P_{n-1} + P_{n-2} + P_{n-4}) / n for n >= 5, exactly.

    Validates along the way that the sequence is non-increasing, that
    n! P_n is a non-negative integer (it counts permutations of order
    dividing 4), and that P_n < 1 / floor(n/4)! for n >= 3 (at n <= 2 the
    bound degenerates to equality, P_n = 1 = 1/0!).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    vals: List[Fraction] = []
    base = {1: Fraction(1), 2: Fraction(1), 3: Fraction(2, 3), 4: Fraction(2, 3)}
    fact = 1
    for n in range(1, N + 1):
        if n <= 4:
            p = base[n]
        else:
            p = (vals[n - 2] + vals[n - 3] + vals[n - 5]) / n
        fact *= n
        count = p * fact
        if count.denominator != 1 or count < 0:
            raise AssertionError(f"n! P_n not a non-negative integer at n = {n}")
        if vals and p > vals[-1]:
            raise AssertionError(f"P_n increases at n = {n}")
        bound = Fraction(1, math.factorial(n // 4))
        if n >= 3 and not p < bound:
            raise AssertionError(f"P_{n} >= 1/floor(n/4)! bound")
        if n <= 2 and p > bound:
            raise AssertionError(f"P_{n} above the degenerate bound")
        vals.append(p)
    return RationalSeq(tuple(vals))


# ---------------------------------------------------------------------------
# Counting bound

def _log_s_bound(n: int, eps: float) -> float:
    """log of binom(n, m) * n! / (n - m)! with m = floor(eps n)."""
    m = int(eps * n)
    return (math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
            + math.lgamma(n + 1) - math.lgamma(n - m + 1))


CSV_HEADER = "n,P_n_num,P_n_den,log_Pn,log_Sn_bound,log_product"


def heuristic_csv(N: int, eps: float) -> str:
    """Deterministic CSV for n = 1..N: exact P_n plus the log-space bounds,
    10-digit decimals, LF endings."""
    seq = p_sequence(N)
    lines = [CSV_HEADER]
    for n in range(1, N + 1):
        p = seq[n]
        log_p = math.log(p.numerator) - math.log(p.denominator)
        ls = _log_s_bound(n, eps)
        lines.append("%d,%d,%d,%.10f,%.10f,%.10f" % (
            n, p.numerator, p.denominator, log_p, ls, log_p + ls))
    return "\n".join(lines) + "\n"
