"""End-to-end acceptance gate: one test per headline guarantee, each printing
a single pass/fail line (visible under ``pytest -s``)."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from oracles import affine_fixed_points, count_order4, eval_word, is_four_periodic
from soficlab.bsgroup import BsElement, a2_interval, bs_a1, bs_a2
from soficlab.cli import _ball, conjugate_domain
from soficlab.conjugacy import build_conjugator, conjugacy_defect
from soficlab.expcycles import (Workspace, count_k_periodic, count_k_periodic_by_tables,
                                exp_map, multiplicative_order, run_sweep, segmented_sieve)
from soficlab.heuristics import p_sequence
from soficlab.localexp import (PadicContext, defect_report,
                               min_mezo_fraction, padic_fixed_point,
                               search_local_exp)
from soficlab.perm import Permutation
from soficlab.soficcheck import (ArithmeticModel, SoficApprox, amplify,
                                 check_sofic)
from soficlab.tiling import b_mask, inverse_products, quasi_tile, verify_tiling

EPS = Fraction(1, 4)


def report(num: int, label: str, ok: bool) -> None:
    print(f"acceptance {num} ({label}): {'PASS' if ok else 'FAIL'}",
          file=sys.stderr)
    assert ok, f"acceptance {num} ({label}) failed"


def test_01_heuristics_exactness():
    seq = p_sequence(500)
    ok = [seq[n] for n in range(1, 6)] == [
        Fraction(1), Fraction(1), Fraction(2, 3), Fraction(2, 3), Fraction(7, 15)]
    for n in range(1, 10):
        ok = ok and seq[n] * math.factorial(n) == count_order4(n)
    for n in range(2, 501):
        ok = ok and seq[n] <= seq[n - 1]
        if n >= 3:
            ok = ok and seq[n] < Fraction(1, math.factorial(n // 4))
    report(1, "order-4 probability recurrence exact", ok)


def test_02_arithmetic_model():
    ok = True
    rng = np.random.default_rng(0)
    for n in (101, 1009):
        for m in (2, 3):
            phi = ArithmeticModel(n, m).approx_on(_ball(m, 2, 8))
            rep = check_sofic(phi, Fraction(1, 8))
            ok = ok and rep.max_defect.numerator == 0 and rep.passed
    for _ in range(500):
        n = (101, 1009)[rng.integers(2)]
        m = (2, 3)[rng.integers(2)]
        word = tuple((("a1", "a2")[rng.integers(2)], int(rng.integers(-3, 4)))
                     for _ in range(int(rng.integers(1, 7))))
        phi = ArithmeticModel(n, m).approx_on([bs_a1(m), bs_a2(m)])
        brute = eval_word(phi, word).fixed_point_count()
        ok = ok and affine_fixed_points(word, m, n).count == brute
    report(2, "arithmetic model exactly multiplicative", ok)


def test_03_tiling_certificates():
    widths = [2, 4, 6, 8, 12, 16, 24, 32]
    # cyclic translation model on 10^3 points
    phi_z = ArithmeticModel(1000, 3).approx_on(
        [BsElement(3, 0, ell, 0) for ell in range(-40, 41)])
    shapes_z = [a2_interval(w, 3) for w in widths]
    grid_z = inverse_products(shapes_z[-1])
    t1 = quasi_tile(phi_z, shapes_z, grid_z, EPS, EPS, b=b_mask(phi_z, grid_z))
    ok = verify_tiling(t1).passed
    # amplified base-2 arithmetic model, 101 -> 10^4 points
    base = ArithmeticModel(101, 2).approx_on(
        [BsElement(2, 0, ell, 0) for ell in range(-33, 34)])
    shapes_2 = [a2_interval(w, 2) for w in widths]
    phi_2, grid_2 = amplify(base, 10_000), inverse_products(shapes_2[-1])
    t2 = quasi_tile(phi_2, shapes_2, grid_2, EPS, EPS, b=b_mask(phi_2, grid_2))
    ok = ok and verify_tiling(t2).passed
    report(3, "quasi-tiling certificates verify", ok)


def test_04_conjugator_quality():
    n, m = 1000, 999
    shapes, grid, domain = conjugate_domain(m)
    phi1 = ArithmeticModel(n, m).approx_on(domain)
    ok = True
    for seed in range(10):
        sigma = Permutation(np.random.default_rng(seed).permutation(n))
        sigma_inv = sigma.inverse()
        phi2 = SoficApprox(n,
                           {g: sigma.compose(p).compose(sigma_inv)
                            for g, p in phi1.table.items()})
        conj = build_conjugator(phi1, phi2, EPS, shapes, grid)
        ok = ok and sorted(conj.tau.image.tolist()) == list(range(n))
        rep = conjugacy_defect(conj, phi1, phi2, [bs_a1(m), bs_a2(m)])
        ok = ok and rep.max_defect <= EPS
    report(4, "conjugator defect at most 1/4 on 10 seeds", ok)


def test_05_cycle_census_sweep():
    primes = segmented_sieve(1000, 100_000)
    rows = run_sweep(2, primes, workers=8)
    ok = [r.n for r in rows] == primes
    findings = [r.n for r in rows if r.fixed[2] > 3 * r.n / 4 + 100]
    if findings:       # logged, not failing: the slack is configurable
        print(f"acceptance 5 findings (3-periodic count above 3p/4+100): "
              f"{findings}", file=sys.stderr)
    # route agreement is asserted inside every census; re-check a sample
    rng = np.random.default_rng(1)
    workspace = Workspace(primes[-1])
    for p in rng.choice(primes, size=20, replace=False):
        f = exp_map(2, int(p), workspace)
        order = multiplicative_order(f, workspace)
        ok = ok and (count_k_periodic(f, order, workspace)
                     == count_k_periodic_by_tables(f, order, workspace))
    report(5, "prime sweep census routes agree", ok)


def test_06_padic_uniqueness():
    ok = True
    rng = np.random.default_rng(0)
    for p, r in ((3, 3), (5, 2)):
        ctx = PadicContext(p, r, 2)
        units = [v for v in range(1, ctx.q) if v % p != 0]
        for _ in range(100):
            c = tuple(int(rng.choice(units)) for _ in range(4))
            # brute force cross-checks against the digit-lifting candidate
            rep = padic_fixed_point(ctx, c)
            ok = ok and len(rep.brute_points) <= 1
    report(6, "p-adic fixed point unique and lifted exactly", ok)


def test_07_mezo_minimum_fraction():
    frozen = {(4, 3): Fraction(3, 4), (5, 2): Fraction(2, 5),
              (6, 5): Fraction(2, 3), (7, 2): Fraction(3, 7)}
    ok = True
    for (n, m), expected in sorted(frozen.items()):
        frac = min_mezo_fraction(n, m)
        ok = ok and frac > 0 and frac == expected
    report(7, "orbit-count minimum failing fraction positive and frozen", ok)


def test_08_searcher_soundness():
    ok = True
    for n, m in ((4, 3), (5, 2), (6, 5)):
        r1 = search_local_exp(n, m, budget=200_000, seed=0)
        r2 = search_local_exp(n, m, budget=200_000, seed=99)
        ok = ok and r1.exhaustive and np.array_equal(r1.f.image, r2.f.image)
    for n, m, seed in ((8, 3, 0), (20, 3, 1), (30, 7, 2)):
        r = search_local_exp(n, m, budget=3000, seed=seed)
        ok = ok and is_four_periodic(r.f.image)
        ok = ok and r.defect_count == len(defect_report(r.f, m).defect_set)
    report(8, "searcher outputs sound and reproducible", ok)
