"""Command-line front end: one subcommand per experiment family, flat
key=value config files with flag overrides, deterministic CSV/JSON artifacts,
and a reproducibility manifest per run.

Exit codes: 0 success, 1 usage/configuration error, 2 failed assertion,
failed certificate, or exhausted budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bsgroup import BsElement, bs_a1, bs_a2, bs_rectangle, a2_interval
from .conjugacy import build_conjugator, conjugacy_defect
from .expcycles import prime_powers, run_sweep, segmented_sieve, sweep_csv
from .heuristics import heuristic_csv, p_sequence
from .localexp import (PadicContext, ZnFunction, defect_report, h3_witness,
                       min_mezo_fraction, padic_fixed_point, search_local_exp)
from .perm import HammingValue, Permutation
from .soficcheck import ArithmeticModel, check_sofic
from .tiling import Tiling, plan_parameters, quasi_tile, verify_tiling


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Configuration

# Every option, settable as config key `name` or as flag `--name` (with
# '_' spelled '-'), and the parser its text goes through.
_OPTIONS = {
    "m": int, "n": int, "N": int, "eps": Fraction, "kappa": Fraction,
    "delta": Fraction, "seed": int, "budget": int, "tuples": int, "slack": int,
    "workers": int, "num_bound": int, "exp_bound": int, "primes": str,
    "prime_powers": str, "certificate": str, "out": str,
}


def _parse_option(name: str, text: str, where: str) -> object:
    try:
        return _OPTIONS[name](text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{where}: bad value for {name}: {exc}")


def load_config(path: Optional[str]) -> Tuple[Dict[str, object], str]:
    """Flat key=value file; '#' starts a comment.  Returns the parsed
    mapping and a provenance tag for the manifest."""
    if path is None:
        return {}, "defaults"
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file {path} not found")
    out: Dict[str, object] = {}
    for line_no, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{line_no}: unknown key {key!r}")
        out[key] = _parse_option(key, value, f"{path}:{line_no}")
    return out, str(path)


def _parse_range(text: str) -> Tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise UsageError(f"expected A..B, got {text!r}")


def _parse_prime_powers(text: str) -> Tuple[int, int, int]:
    head, _, rng = text.partition(":")
    try:
        p = int(head)
    except ValueError:
        raise UsageError(f"expected p:rmin..rmax, got {text!r}")
    r_min, r_max = _parse_range(rng)
    return p, r_min, r_max


# ---------------------------------------------------------------------------
# Reports and manifest

def _content_hash(params: Dict[str, object], extra_files: Sequence[Path]) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(params, sort_keys=True, default=str).encode())
    for f in extra_files:
        h.update(f.read_bytes())
    return h.hexdigest()


def _write_manifest(out_dir: Path, subcommand: str, params: Dict[str, object],
                    seed: Optional[int], started: float,
                    config_source: str, extra_files: Sequence[Path] = ()) -> None:
    _write_json(out_dir, "manifest.json", {
        "subcommand": subcommand,
        "params": dict(sorted(params.items())),
        "seed": seed,
        "config_source": config_source,
        "content_hash": _content_hash(params, extra_files),
        "wall_time_s": round(time.monotonic() - started, 3),
        "version": __version__,
    })


def _report_value(obj: object) -> object:
    """JSON form of the values reports hold: a Fraction as "p/q", a Hamming
    value as [numerator, n], any other dataclass as its fields in order."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, HammingValue):
        return [obj.numerator, obj.n]
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} has no report form")


def _write(out_dir: Path, name: str, text: str) -> None:
    (out_dir / name).write_text(text)


def _write_json(out_dir: Path, name: str, payload: object) -> None:
    _write(out_dir, name, json.dumps(payload, indent=2, default=_report_value) + "\n")


# ---------------------------------------------------------------------------
# Subcommand implementations (each returns an exit code)

def _cmd_cycles(opts, out_dir: Path) -> int:
    m = _require(opts, "m")
    moduli: List[int] = []
    if opts.get("primes"):
        lo, hi = _parse_range(opts["primes"])
        moduli.extend(segmented_sieve(lo, hi))
    if opts.get("prime_powers"):
        p, r_min, r_max = _parse_prime_powers(opts["prime_powers"])
        moduli.extend(prime_powers(p, r_min, r_max))
    if opts.get("n") is not None:
        if opts["n"] < 2:
            raise UsageError("modulus must be >= 2")
        moduli.append(opts["n"])
    if not moduli:
        raise UsageError("cycles needs --primes, --prime-powers or --n")
    rows = run_sweep(m, moduli, workers=opts.get("workers", 1))
    _write(out_dir, "cycles.csv", sweep_csv(rows))
    slack = opts.get("slack", 100)
    _write_json(out_dir, "findings.json",
                [{"n": r.n, "fix3": r.fixed[2], "bound": 3 * r.n // 4 + slack}
                 for r in rows if r.fixed[2] > 3 * r.n / 4 + slack])
    return 0


def _ball(m: int, e_bound: int, num_bound: int) -> List[BsElement]:
    out = []
    for e in range(-e_bound, e_bound + 1):
        for d in range(0, e_bound + 1):
            for num in range(-num_bound, num_bound + 1):
                if d > 0 and num % m == 0:
                    continue
                out.append(BsElement(m, e, num, d))
    return out


def _cmd_sofic_check(opts, out_dir: Path) -> int:
    m = _require(opts, "m")
    n = _require(opts, "n")
    delta = opts.get("delta", Fraction(1, 8))
    model = ArithmeticModel(n, m)
    phi = model.approx_on(_ball(m, opts.get("exp_bound", 2), opts.get("num_bound", 8)))
    report = check_sofic(phi, delta)
    _write_json(out_dir, "sofic_report.json", {
        "n": n, "m": m, "delta": delta,
        "max_defect": report.max_defect,
        "min_displacement": report.min_displacement,
        "triples_checked": report.triples_checked,
        "passed": report.passed,
    })
    return 0 if report.passed else 2


def interval_shapes(k: int, m: int, max_width: int = 32) -> List[frozenset]:
    """k nested translation-interval shapes with slowly growing widths."""
    widths: List[int] = []
    w = 2.0
    for _ in range(k):
        widths.append(min(max_width, max(2, int(round(w)))))
        w *= 1.45
    widths = sorted(widths)
    return [a2_interval(width, m) for width in widths]


def _check_tiling_eps(eps: Fraction) -> None:
    if not 0 < eps <= Fraction(1, 4):
        raise UsageError(f"eps = {eps} is outside the tiling regime (0, 1/4]")


def _cmd_tile(opts, out_dir: Path) -> int:
    m = opts.get("m", 3)
    n = _require(opts, "n")
    eps = opts.get("eps", Fraction(1, 4))
    kappa = opts.get("kappa", eps)
    _check_tiling_eps(eps)
    plan = plan_parameters(eps, kappa)
    shapes = interval_shapes(plan.k, m)
    max_w = max(len(s) for s in shapes)
    model = ArithmeticModel(n, m)
    phi = model.approx_on([BsElement(m, 0, ell, 0) for ell in range(-max_w, max_w + 1)])
    tiling = quasi_tile(phi, shapes, eps, kappa, n_threshold=n)
    report = verify_tiling(tiling)
    _write(out_dir, "tiling.json", tiling.to_json() + "\n")
    _write_json(out_dir, "tile_report.json", {
        "n": n, "m": m, "eps": eps, "kappa": kappa,
        "b_size": tiling.b_size,
        "disjoint_ok": report.disjoint_ok,
        "injective_ok": report.injective_ok,
        "eps_disjoint_ok": report.eps_disjoint_ok,
        "cover_ratio": report.cover_ratio,
        "cover_ok": report.cover_ok,
        "measures": report.measures,
        "passed": report.passed,
    })
    return 0 if report.passed else 2


def conjugate_shapes(m: int) -> List[frozenset]:
    """Height-2 rectangle shapes for the 21-level plan at inner eps 1/8."""
    widths = [2] * 3 + [3] * 3 + [4] * 3 + [6] * 3 + [8] * 3 + [12] * 3 + [16] * 3
    return [bs_rectangle(2, w, m) for w in widths]


def _cmd_conjugate(opts, out_dir: Path) -> int:
    n = opts.get("n", 1000)
    m = opts.get("m", n - 1)
    eps = opts.get("eps", Fraction(1, 4))
    _check_tiling_eps(eps)
    seed = opts.get("seed", 0)
    model = ArithmeticModel(n, m)
    shapes = conjugate_shapes(m)
    domain = set().union(*shapes)
    domain |= {g.inverse() * h for g in shapes[-1] for h in shapes[-1]}
    domain |= {bs_a1(m), bs_a2(m)}
    phi1 = model.approx_on(domain)
    phi2 = phi1.conjugated(Permutation(np.random.default_rng(seed).permutation(n)))
    conj = build_conjugator(phi1, phi2, eps, shapes,
                            inner_eps=Fraction(1, 8), n_threshold=n,
                            delta_prime=Fraction(3, 8), order_key=bs_a2(m))
    report = conjugacy_defect(conj, phi1, phi2, [bs_a1(m), bs_a2(m)])
    _write(out_dir, "conjugator.json", conj.to_json() + "\n")
    _write_json(out_dir, "conjugacy_report.json", {
        "n": n, "m": m, "eps": eps, "seed": seed,
        "support_fraction": conj.support_fraction(),
        "defects": {"a1" if g == bs_a1(m) else "a2": d for g, d in report.per_key.items()},
        "max_defect": report.max_defect,
        "passed": report.passed,
    })
    return 0 if report.passed else 2


def _cmd_search_f(opts, out_dir: Path) -> int:
    n = _require(opts, "n")
    m = _require(opts, "m")
    budget = _count(opts, "budget", 200_000)
    seed = opts.get("seed", 0)
    result = search_local_exp(n, m, budget=budget, seed=seed)
    _write(out_dir, "search.json", result.to_json() + "\n")
    return 2 if (result.budget_exhausted and not result.exhaustive and n <= 10) else 0


def _cmd_h3(opts, out_dir: Path) -> int:
    n = _require(opts, "n")
    m = _require(opts, "m")
    payload: Dict[str, object] = {"n": n, "m": m}
    code = 0
    if n <= 8:
        frac = min_mezo_fraction(n, m)
        payload["min_failing_fraction"] = frac
        payload["strictly_positive"] = frac > 0
        if frac <= 0:
            code = 2
    else:
        seed = opts.get("seed", 0)
        rng = np.random.default_rng(seed)
        f = ZnFunction(n, rng.permutation(n))
        rep = defect_report(f, m)
        wit = h3_witness(f, m)
        payload["seed"] = seed
        payload["defect_fraction"] = rep.defect_fraction
        payload["relator_defects"] = wit.w_defects
        payload["g1_displacement"] = wit.g1_displacement
    _write_json(out_dir, "h3.json", payload)
    return code


def _cmd_padic(opts, out_dir: Path) -> int:
    m = _require(opts, "m")
    if not opts.get("prime_powers"):
        raise UsageError("padic needs --prime-powers p:rmin..rmax")
    p, r_min, r_max = _parse_prime_powers(opts["prime_powers"])
    tuples = _count(opts, "tuples", 100)
    seed = opts.get("seed", 0)
    rng = random.Random(seed)
    results = []
    for r in range(r_min, r_max + 1):
        ctx = PadicContext(p, r, m)
        units = [v for v in range(1, ctx.q) if v % p != 0]
        fixed_hits = 0
        for _ in range(tuples):
            c = tuple(rng.choice(units) for _ in range(4))
            rep = padic_fixed_point(ctx, c, brute_force=ctx.q ** 4 <= 10 ** 6)
            fixed_hits += int(rep.is_fixed)
        results.append({"p": p, "r": r, "s": ctx.s, "tuples": tuples,
                        "genuinely_fixed": fixed_hits,
                        "cross_checked": ctx.q ** 4 <= 10 ** 6})
    _write_json(out_dir, "padic.json", results)
    return 0


def _cmd_heuristic(opts, out_dir: Path) -> int:
    N = opts.get("N", opts.get("n"))
    if N is None:
        N = 50
    elif N < 1:
        raise UsageError(f"N = {N} must be >= 1")
    eps = opts.get("eps", Fraction(1, 5))
    if not 0 < eps < 1:
        raise UsageError(f"eps = {eps} is outside (0, 1)")
    p_sequence(N)      # runs the built-in exactness validations
    _write(out_dir, "heuristic.csv", heuristic_csv(N, float(eps)))
    return 0


def _cmd_verify(opts, out_dir: Path) -> int:
    path = opts.get("certificate")
    if not path:
        raise UsageError("verify needs --certificate FILE")
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"certificate {path} not found")
    try:
        tiling = Tiling.from_json(p.read_text())
        report = verify_tiling(tiling)
    except Exception as exc:
        _write_json(out_dir, "verify.json",
                    {"certificate": str(p), "error": str(exc), "passed": False})
        return 2
    _write_json(out_dir, "verify.json", {
        "certificate": str(p),
        "disjoint_ok": report.disjoint_ok,
        "injective_ok": report.injective_ok,
        "eps_disjoint_ok": report.eps_disjoint_ok,
        "cover_ratio": report.cover_ratio,
        "measure_ok": report.measure_ok,
        "passed": report.passed,
    })
    return 0 if report.passed else 2


def _require(opts: Dict[str, object], key: str) -> int:
    if opts.get(key) is None:
        raise UsageError(f"missing required option --{key}")
    return opts[key]


def _count(opts: Dict[str, object], key: str, default: int) -> int:
    value = opts.get(key, default)
    if value < 0:
        raise UsageError(f"{key} = {value} must be >= 0")
    return value


_RUNNERS = {
    "cycles": _cmd_cycles,
    "sofic-check": _cmd_sofic_check,
    "tile": _cmd_tile,
    "conjugate": _cmd_conjugate,
    "search-f": _cmd_search_f,
    "h3": _cmd_h3,
    "padic": _cmd_padic,
    "heuristic": _cmd_heuristic,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# Entry point

def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="soficlab")
    parser.add_argument("subcommand", choices=_RUNNERS)
    parser.add_argument("--config")
    for name in _OPTIONS:
        parser.add_argument(_flag(name), dest=name)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    started = time.monotonic()
    try:
        opts, source = load_config(args.config)
        for name in _OPTIONS:
            text = getattr(args, name)
            if text is not None:
                opts[name] = _parse_option(name, text, _flag(name))
        # not a recorded param: the manifest is written into the directory itself
        out_dir = Path(opts.pop("out", "out"))
        out_dir.mkdir(parents=True, exist_ok=True)
        extra = [Path(args.config)] if args.config else []
        if opts.get("certificate"):
            cert = Path(opts["certificate"])
            if cert.is_file():
                extra.append(cert)
        code = _RUNNERS[args.subcommand](opts, out_dir)
        _write_manifest(out_dir, args.subcommand, opts, opts.get("seed"),
                        started, source, extra)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, ValueError, KeyError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
