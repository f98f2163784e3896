#!/usr/bin/env python3
"""Conjugator quality across seeds: phi2 = sigma phi1 sigma^-1 for random
sigma, phi1 the arithmetic model on n points with m = n - 1."""

import argparse
from fractions import Fraction

import numpy as np

from soficlab.bsgroup import bs_a1, bs_a2
from soficlab.cli import conjugate_shapes
from soficlab.conjugacy import build_conjugator, conjugacy_defect
from soficlab.perm import Permutation
from soficlab.soficcheck import ArithmeticModel


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--eps", default="1/4")
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    n, eps = args.n, Fraction(args.eps)
    m = n - 1

    shapes = conjugate_shapes(m)
    domain = set().union(*shapes)
    domain |= {g.inverse() * h for g in shapes[-1] for h in shapes[-1]}
    domain |= {bs_a1(m), bs_a2(m)}
    phi1 = ArithmeticModel(n, m).approx_on(domain)

    worst = Fraction(0)
    for seed in range(args.seeds):
        phi2 = phi1.conjugated(Permutation(np.random.default_rng(seed).permutation(n)))
        conj = build_conjugator(phi1, phi2, eps, shapes,
                                inner_eps=Fraction(1, 8), n_threshold=n,
                                delta_prime=Fraction(3, 8), order_key=bs_a2(m))
        rep = conjugacy_defect(conj, phi1, phi2, [bs_a1(m), bs_a2(m)])
        worst = max(worst, rep.max_defect.value)
        print(f"seed={seed} support={float(conj.support_fraction()):.3f} "
              f"defect={float(rep.max_defect):.4f} passed={rep.passed}")
    print(f"worst defect {float(worst):.4f} (eps = {float(eps):.4f})")


if __name__ == "__main__":
    main()
