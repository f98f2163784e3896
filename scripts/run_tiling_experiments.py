#!/usr/bin/env python3
"""Build and verify quasi-tiling certificates for the two reference models:
the translation-only model on n = 10^3 and the amplified arithmetic model of
BS(1,2) on n ~ 10^4.  As the CLI does, exits 2 with `failed: ...` when
either certificate cannot be built or fails, and 1 with `error: ...` on a bad
--eps."""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from soficlab.bsgroup import a2_interval
from soficlab.soficcheck import ArithmeticModel, amplify
from soficlab.tiling import (CoarseApproximationError, inverse_products, plan_parameters,
                             quasi_tile, verify_tiling)

WIDTHS = [2, 4, 6, 8, 12, 16, 24, 32]


def report(tag, tiling):
    rep = verify_tiling(tiling)
    print(f"[{tag}] n={tiling.n} |B|={tiling.b_size} cover={float(rep.cover_ratio):.3f} "
          f"passed={rep.passed}")
    for m in rep.measures:
        print(f"    j={m.j} ratio={float(m.ratio):.4f} in "
              f"[{float(m.low):.4f}, {float(m.high):.4f}] ok={m.ok}")
    return rep


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--eps", default="1/4")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    try:
        eps = Fraction(args.eps)
        plan = plan_parameters(eps, eps)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: --eps {args.eps}: {exc}", file=sys.stderr)
        return 1
    widths = WIDTHS[:plan.k] + [WIDTHS[-1]] * max(0, plan.k - len(WIDTHS))

    shapes3 = [a2_interval(w, 3) for w in widths]
    grid3 = inverse_products(shapes3[-1])
    phi = ArithmeticModel(1000, 3).approx_on(grid3.keys)
    shapes2 = [a2_interval(w, 2) for w in widths]
    grid2 = inverse_products(shapes2[-1])
    big = amplify(ArithmeticModel(101, 2).approx_on(grid2.keys), 10_000)
    try:
        t1 = quasi_tile(phi, shapes3, grid3, eps, eps)
        t2 = quasi_tile(big, shapes2, grid2, eps, eps)
    except CoarseApproximationError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 2
    rep1 = report("Z model n=1000", t1)
    rep2 = report("amplified BS(1,2) n=10^4", t2)

    if args.out:
        Path(args.out).write_text(t2.to_json() + "\n")
        print(f"certificate -> {args.out}")
    return 0 if rep1.passed and rep2.passed else 2


if __name__ == "__main__":
    sys.exit(main())
