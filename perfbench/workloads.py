"""The four benchmark workloads: seeded op inputs, argv, item counts and the
output checks that run outside the timed region.

Every input is a function of (workload, seed, op index) alone, so one seed
fixes windows, degrees and per-op seeds, and the program sees only argv.
Op sizes follow a golden-ratio (Kronecker) sequence over the workload's
range from a seeded offset: any prefix of the op stream covers the range
evenly, so the per-run median does not drift with the seed or with how many
ops a run completes.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

GOLDEN = (math.sqrt(5) - 1) / 2

# census: window starts over 10^4..10^5, each window holding this many primes
CENSUS_LO, CENSUS_HI, CENSUS_PRIMES = 10_000, 100_000, 4
# tile: prime degrees drawn from this range
TILE_LO, TILE_HI = 2_000, 3_000
# conjugate: degrees drawn from this range, m = n - 1
CONJ_LO, CONJ_HI = 1_500, 2_500
# search-f: n from 11..256 coprime to 7, fixed annealing budget
SEARCH_M, SEARCH_BUDGET = 7, 2_000
SEARCH_NS = tuple(n for n in range(11, 257) if math.gcd(n, SEARCH_M) == 1)

# op_tail_s percentile per workload, fixed so that runs and commits compare
# the same percentile; every baseline run keeps at least 17 ops beyond it
TAIL_PERCENTILE = {"census": 75.0, "tile": 75.0, "conjugate": 75.0, "search": 75.0}


class CheckFailed(Exception):
    """An artifact did not pass the benchmark's own output check."""


@dataclass(frozen=True)
class Op:
    steps: Tuple[Tuple[str, Tuple[str, ...]], ...]   # (out dir, argv) per CLI call
    items: int
    params: Dict[str, int]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


class OpStream:
    """Op i of a workload under one seed; deterministic and random-access."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self._offset = random.Random(f"{workload}/{seed}").random()

    def _position(self, i: int) -> float:
        return (self._offset + i * GOLDEN) % 1.0

    def _op_rng(self, i: int) -> random.Random:
        return random.Random(f"{self.workload}/{self.seed}/{i}")

    def op(self, i: int) -> Op:
        return getattr(self, "_" + self.workload)(i)

    def _census(self, i: int) -> Op:
        a = CENSUS_LO + int(self._position(i) * (CENSUS_HI - CENSUS_LO))
        primes: List[int] = []
        b = a
        while len(primes) < CENSUS_PRIMES:
            if is_prime(b):
                primes.append(b)
            b += 1
        argv = ("cycles", "--m", "2", "--primes", f"{a}..{primes[-1]}",
                "--workers", "1", "--out", "cycles")
        # one row in half of the ops gets the full pure-Python recount
        sample = self._op_rng(i).randrange(2 * len(primes))
        return Op((("cycles", argv),), len(primes),
                  {"lo": a, "hi": primes[-1], "sample": sample})

    def _tile(self, i: int) -> Op:
        p = _next_prime(TILE_LO + int(self._position(i) * (TILE_HI - TILE_LO)))
        tile = ("tile", "--n", str(p), "--out", "tile")
        verify = ("verify", "--certificate", "tile/tiling.json", "--out", "verify")
        return Op((("tile", tile), ("verify", verify)), p, {"n": p})

    def _conjugate(self, i: int) -> Op:
        n = CONJ_LO + int(self._position(i) * (CONJ_HI - CONJ_LO))
        s = self._op_rng(i).randrange(2 ** 31)
        argv = ("conjugate", "--n", str(n), "--seed", str(s), "--out", "conjugate")
        return Op((("conjugate", argv),), n, {"n": n, "seed": s})

    def _search(self, i: int) -> Op:
        n = SEARCH_NS[int(self._position(i) * len(SEARCH_NS))]
        s = self._op_rng(i).randrange(2 ** 31)
        argv = ("search-f", "--n", str(n), "--m", str(SEARCH_M),
                "--budget", str(SEARCH_BUDGET), "--seed", str(s), "--out", "search")
        return Op((("search", argv),), SEARCH_BUDGET, {"n": n, "seed": s})


# ---------------------------------------------------------------------------
# Output checks

def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _check_census(op: Op, work: Path) -> None:
    lines = (work / "cycles" / "cycles.csv").read_text().splitlines()
    _require(lines[0] == "n,m,order,fix1,fix2,fix3,fix4,frac3,frac4", "csv header")
    rows = [[int(v) for v in line.split(",")[:7]] for line in lines[1:]]
    expected = [n for n in range(op.params["lo"], op.params["hi"] + 1) if is_prime(n)]
    _require([r[0] for r in rows] == expected, "row set is not the primes in the window")
    _require(all(r[1] == 2 for r in rows), "m column")
    if op.params["sample"] < len(rows):
        n, _, order, *fixed = rows[op.params["sample"]]
        _require(order == _order_of_two(n), f"order of 2 mod {n}")
        _require(fixed == _fixed_counts(n), f"fix1..fix4 at n={n}")
    _require(json.loads((work / "cycles" / "findings.json").read_text()) ==
             [{"n": r[0], "fix3": r[5], "bound": 3 * r[0] // 4 + 100}
              for r in rows if r[5] > 3 * r[0] / 4 + 100], "findings")


def _order_of_two(p: int) -> int:
    """Multiplicative order of 2 mod the prime p: the least divisor d of
    p - 1 with 2^d = 1."""
    divisors = [d for d in range(1, math.isqrt(p - 1) + 1) if (p - 1) % d == 0]
    divisors += [(p - 1) // d for d in reversed(divisors)]
    return next(d for d in divisors if pow(2, d, p) == 1)


def _fixed_counts(n: int) -> List[int]:
    """|{x : f^k(x) = x}| for k = 1..4, f(x) = 2^x mod n, in pure Python."""
    f = array("q", bytes(8 * n))
    acc = 1
    for x in range(n):
        f[x] = acc
        acc = acc * 2 % n
    rng = random.Random(n)
    for x in rng.sample(range(n), 16):
        _require(f[x] == pow(2, x, n), f"2^{x} mod {n}")
    counts = [0, 0, 0, 0]
    for x in range(n):
        y1 = f[x]
        y2 = f[y1]
        y3 = f[y2]
        y4 = f[y3]
        counts[0] += y1 == x
        counts[1] += y2 == x
        counts[2] += y3 == x
        counts[3] += y4 == x
    return counts


def _check_tile(op: Op, work: Path) -> None:
    report = json.loads((work / "tile" / "tile_report.json").read_text())
    verify = json.loads((work / "verify" / "verify.json").read_text())
    _require(report["n"] == op.params["n"], "tile_report n")
    _require(report["passed"] is True, "tile_report not passed")
    _require(verify["passed"] is True, "verify not passed")


def _check_conjugate(op: Op, work: Path) -> None:
    conj = json.loads((work / "conjugate" / "conjugator.json").read_text())
    report = json.loads((work / "conjugate" / "conjugacy_report.json").read_text())
    n, m = op.params["n"], op.params["n"] - 1
    tau = np.asarray(conj["tau"], dtype=np.int64)
    _require(conj["n"] == n and tau.shape == (n,), "tau degree")
    _require(np.array_equal(np.sort(tau), np.arange(n)), "tau is not a bijection")
    eps = Fraction(*conj["eps"])
    tau_inv = np.empty(n, dtype=np.int64)
    tau_inv[tau] = np.arange(n)
    sigma = np.random.default_rng(op.params["seed"]).permutation(n)
    sigma_inv = np.empty(n, dtype=np.int64)
    sigma_inv[sigma] = np.arange(n)
    x = np.arange(n, dtype=np.int64)
    # arithmetic model: a1 is x -> m^-1 x, a2 is x -> x - 1 (mod n)
    gens = {"a1": pow(m, -1, n) * x % n, "a2": (x - 1) % n}
    for name, phi1 in gens.items():
        phi2 = sigma[phi1[sigma_inv]]
        bad = int(np.count_nonzero(tau[phi1[tau_inv]] != phi2))
        _require(Fraction(bad, n) <= eps, f"{name} defect {bad}/{n} above eps")
        _require(report["defects"][name] == [bad, n], f"{name} defect disagrees with report")
    _require(report["passed"] is True, "conjugacy_report not passed")


def _check_search(op: Op, work: Path) -> None:
    out = json.loads((work / "search" / "search.json").read_text())
    n, m = op.params["n"], SEARCH_M
    f = [int(v) for v in out["image"]]
    _require(out["n"] == n and len(f) == n, "image size")
    _require(sorted(f) == list(range(n)), "image is not a bijection")
    _require(all(f[f[f[f[x]]]] == x for x in range(n)), "f^4 != id")
    defect = sum(1 for x in range(n) if f[(x + 1) % n] != m * f[x] % n)
    _require(out["defect"] == defect, f"defect {out['defect']} != recount {defect}")


CHECKS = {
    "census": _check_census,
    "tile": _check_tile,
    "conjugate": _check_conjugate,
    "search": _check_search,
}
WORKLOADS = tuple(CHECKS)


def check(workload: str, op: Op, work: Path) -> None:
    """Raise CheckFailed (or an I/O or parse error) when an artifact is wrong."""
    CHECKS[workload](op, work)
