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

from soficlab.bsgroup import BsElement, a2_interval
from soficlab.soficcheck import ArithmeticModel, amplify
from soficlab.tiling import CoarseApproximationError, plan_parameters, quasi_tile, verify_tiling

WIDTHS = [2, 4, 6, 8, 12, 16, 24, 32]


def interval_model(n: int, m: int, max_l: int):
    model = ArithmeticModel(n, m)
    return model.approx_on([BsElement(m, 0, ell, 0) for ell in range(-max_l, max_l + 1)])


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

    max_l = max(widths) - 1     # F_k^-1 F_k = {a_2^l : |l| <= max_l}
    shapes3 = [a2_interval(w, 3) for w in widths]
    phi = interval_model(1000, 3, max_l)
    shapes2 = [a2_interval(w, 2) for w in widths]
    base = interval_model(101, 2, max_l)
    big = amplify(base, 10_000)
    try:
        t1 = quasi_tile(phi, shapes3, eps, eps)
        t2 = quasi_tile(big, shapes2, eps, eps)
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
