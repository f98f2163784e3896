"""Command-line front end: one subcommand per experiment family, flat
key=value config files with flag overrides, deterministic CSV/JSON artifacts,
and a reproducibility manifest per run.  Every usage error comes from a
subcommand's option table (see `_resolve`); a runner gets the resolved
options and returns its artifacts, and `main` alone writes them.

Exit codes: 0 success, 1 usage/configuration error, 2 failed assertion,
failed certificate, or exhausted budget.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bsgroup import BsElement, bs_a1, bs_a2, bs_rectangle, a2_interval
from .conjugacy import build_conjugator, conjugacy_defect
from .expcycles import prime_powers, run_sweep, segmented_sieve, sweep_csv
from .heuristics import heuristic_csv
from .localexp import (ORDER4_EXHAUSTIVE_MAX, SYM_EXHAUSTIVE_MAX, PadicContext,
                       defect_report, h3_witness, min_mezo_fraction,
                       padic_fixed_point, search_local_exp)
from .perm import HammingValue, Permutation
from .soficcheck import ArithmeticModel, check_sofic
from .tiling import (ProductGrid, Tiling, inverse_products, plan_parameters, quasi_tile,
                     verify_tiling)


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
        return (int(head), *_parse_range(rng))
    except ValueError:   # UsageError included: the message names the whole format
        raise UsageError(f"expected p:rmin..rmax, got {text!r}")


# ---------------------------------------------------------------------------
# Option tables
#
# A table maps each option a subcommand reads to (default, check), taken in
# order.  The default is REQUIRED, a value, or a function of the options
# resolved before it.  The check gets the value and those options, and raises
# UsageError or returns the value the runner sees; a rule across options sits
# in the check of the last option it reads.

REQUIRED = object()
Check = Callable[[object, Dict[str, object]], object]


def _check(ok: Callable[[object], bool], message: str) -> Check:
    """Reject a value failing `ok` with `message`, the value in place of {}."""
    def check(value, resolved):
        if not ok(value):
            raise UsageError(message.format(value))
        return value
    return check


def _then(first: Check, second: Check) -> Check:
    return lambda value, resolved: second(first(value, resolved), resolved)


def _count(name: str) -> Check:
    return _check(lambda v: v >= 0, name + " = {} must be >= 0")


def _inside_unit_interval(name: str) -> Check:
    return _check(lambda v: 0 < v < 1, name + " = {} is outside (0, 1)")


def _unit(m: int, resolved: Dict[str, object]) -> int:
    """tile, conjugate, sofic-check, search-f and h3 multiply by m mod n: m must be a unit."""
    if math.gcd(m, resolved["n"]) != 1:
        raise UsageError(f"gcd({m}, {resolved['n']}) != 1: m must be a unit mod n")
    return m


# Every map is a permutation of Z/nZ, with n >= 2; BS(1, m) needs m >= 2.
_DEGREE = _check(lambda n: n >= 2, "degree --n = {} must be >= 2")
_BASE = _check(lambda m: m >= 2, "base --m = {} must be >= 2")
_TILING_EPS = _check(lambda eps: 0 < eps <= Fraction(1, 4),
                     "eps = {} is outside the tiling regime (0, 1/4]")


def _moduli(n: Optional[int], resolved: Dict[str, object]) -> List[int]:
    """cycles' --n, read after --m, --primes and --prime-powers (whose text
    it parses), resolves to every modulus the three give.  One of them must
    be a modulus the sweep runs, >= 2 and coprime to m; the sweep skips the
    others."""
    m, primes, powers = resolved["m"], resolved["primes"], resolved["prime_powers"]
    moduli = segmented_sieve(*_parse_range(primes)) if primes else []
    moduli += prime_powers(*_parse_prime_powers(powers)) if powers else []
    if n is not None:
        if n < 2:
            raise UsageError("modulus must be >= 2")
        moduli.append(n)
    if not any(k >= 2 and math.gcd(m, k) == 1 for k in moduli):
        given = [f"{_flag(k)} {resolved[k]}" for k in ("primes", "prime_powers") if resolved[k]]
        given += [f"--n {n}"] if n is not None else []
        if not given:
            raise UsageError("cycles needs --primes, --prime-powers or --n")
        skipped = f" is >= 2 and coprime to m = {m}" if moduli else ""
        raise UsageError("no modulus in " + " or ".join(given) + skipped)
    return moduli


def _padic_powers(text: str, resolved: Dict[str, object]) -> Tuple[int, int, int]:
    """padic lifts over Z/p^r for a prime p that does not divide m and r >= 1."""
    p, r_min, r_max = _parse_prime_powers(text)
    if r_min < 1:
        raise UsageError(f"rmin = {r_min} must be >= 1")
    if segmented_sieve(p, p) != [p]:
        raise UsageError(f"p = {p} is not prime")
    if resolved["m"] % p == 0:
        raise UsageError(f"p = {p} divides m = {resolved['m']}")
    if r_max < r_min:
        raise UsageError(f"no modulus in --prime-powers {text}")
    return p, r_min, r_max


def _ball_not_identity(num_bound: int, resolved: Dict[str, object]) -> int:
    """A ball holding only the identity would pass sofic-check vacuously."""
    if resolved["exp_bound"] == num_bound == 0:
        raise UsageError("--exp-bound = 0 and --num-bound = 0 leave only the identity in the ball")
    return num_bound


_SUBCOMMANDS: Dict[str, Tuple[Callable, Dict[str, Tuple[object, Optional[Check]]]]] = {}


def _subcommand(name: str, **table: Tuple[object, Optional[Check]]):
    """Register the decorated runner as subcommand `name` with its option table."""
    def register(runner: Callable) -> Callable:
        _SUBCOMMANDS[name] = (runner, table)
        return runner
    return register


def _resolve(subcommand: str, given: Dict[str, object]) -> Dict[str, object]:
    """The values a runner sees: `given` (from config and flags) through the
    subcommand's table.  An option outside the table is a usage error."""
    table = _SUBCOMMANDS[subcommand][1]
    for name in given:
        if name not in table:
            raise UsageError(f"{subcommand} does not read {_flag(name)}")
    resolved: Dict[str, object] = {}
    for name, (default, check) in table.items():
        if name in given:
            value = given[name]
        elif default is REQUIRED:
            raise UsageError(f"missing required option {_flag(name)}")
        else:
            value = default(resolved) if callable(default) else default
        resolved[name] = check(value, resolved) if check else value
    return resolved


# ---------------------------------------------------------------------------
# Reports and manifest

def _content_hash(params: Dict[str, object], extra_files: Sequence[Path]) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(params, sort_keys=True, default=str).encode())
    for f in extra_files:
        h.update(f.read_bytes())
    return h.hexdigest()


def _fields(obj: object, *omit: str) -> Dict[str, object]:
    """A dataclass's fields in order, less those named in `omit`."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in omit}


def _report_value(obj: object) -> object:
    """JSON form of the values reports hold: a Fraction as "p/q", a Hamming
    value as [numerator, n], any other dataclass as its fields in order."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, HammingValue):
        return [obj.numerator, obj.n]
    if dataclasses.is_dataclass(obj):
        return _fields(obj)
    raise TypeError(f"{type(obj).__name__} has no report form")


def _json(payload: object) -> str:
    return json.dumps(payload, indent=2, default=_report_value) + "\n"


# ---------------------------------------------------------------------------
# Subcommands: each runner takes the resolved options and returns its
# artifacts (file name -> text) and its exit code

Outcome = Tuple[Dict[str, str], int]


@_subcommand("cycles", m=(REQUIRED, _BASE), primes=(None, None),
             prime_powers=(None, None), n=(None, _moduli),
             workers=(1, _check(lambda w: w >= 1, "workers = {} must be >= 1")),
             slack=(100, None))
def _cmd_cycles(v) -> Outcome:
    rows = run_sweep(v["m"], v["n"], workers=v["workers"])
    slack = v["slack"]
    return {"cycles.csv": sweep_csv(rows),
            "findings.json": _json([{"n": r.n, "fix3": r.fixed[2], "bound": 3 * r.n // 4 + slack}
                                    for r in rows if r.fixed[2] > 3 * r.n / 4 + slack])}, 0


def _ball(m: int, e_bound: int, num_bound: int) -> List[BsElement]:
    out = []
    for e in range(-e_bound, e_bound + 1):
        for d in range(0, e_bound + 1):
            for num in range(-num_bound, num_bound + 1):
                if d > 0 and num % m == 0:
                    continue
                out.append(BsElement(m, e, num, d))
    return out


@_subcommand("sofic-check", n=(REQUIRED, _DEGREE), m=(REQUIRED, _then(_BASE, _unit)),
             delta=(Fraction(1, 8), _inside_unit_interval("delta")),
             exp_bound=(2, _count("exp_bound")),
             num_bound=(8, _then(_count("num_bound"), _ball_not_identity)))
def _cmd_sofic_check(v) -> Outcome:
    n, m = v["n"], v["m"]
    phi = ArithmeticModel(n, m).approx_on(_ball(m, v["exp_bound"], v["num_bound"]))
    report = check_sofic(phi, v["delta"])
    return {"sofic_report.json": _json({"n": n, "m": m, "delta": v["delta"],
                                        **_fields(report)})}, 0 if report.passed else 2


def interval_shapes(k: int, m: int) -> List[frozenset]:
    """k nested translation-interval shapes, widths growing slowly up to 32."""
    widths: List[int] = []
    w = 2.0
    for _ in range(k):
        widths.append(min(32, max(2, int(round(w)))))
        w *= 1.45
    return [a2_interval(width, m) for width in widths]


@_subcommand("tile", eps=(Fraction(1, 4), _TILING_EPS),
             kappa=(lambda v: v["eps"], _check(lambda k: k > 0, "kappa = {} must be positive")),
             n=(REQUIRED, _DEGREE), m=(3, _then(_BASE, _unit)))
def _cmd_tile(v) -> Outcome:
    n, m, eps, kappa = v["n"], v["m"], v["eps"], v["kappa"]
    plan = plan_parameters(eps, kappa)
    shapes = interval_shapes(plan.k, m)
    grid = inverse_products(shapes[-1])
    phi = ArithmeticModel(n, m).approx_on(grid.keys)
    tiling = quasi_tile(phi, shapes, grid, eps, kappa)
    report = verify_tiling(tiling)
    return {"tiling.json": tiling.to_json() + "\n", "tile_report.json": _json({
        "n": n, "m": m, "eps": eps, "kappa": kappa, "b_size": tiling.b_size,
        **_fields(report, "measure_ok"),
    })}, 0 if report.passed else 2


def conjugate_shapes(m: int) -> List[frozenset]:
    """Height-2 rectangle shapes for the 21-level plan at inner eps 1/8."""
    widths = [2] * 3 + [3] * 3 + [4] * 3 + [6] * 3 + [8] * 3 + [12] * 3 + [16] * 3
    return [bs_rectangle(2, w, m) for w in widths]


def conjugate_domain(m: int) -> Tuple[List[frozenset], ProductGrid, frozenset]:
    """The conjugate shapes, the grid F_k^-1 F_k of the top shape, which
    both tilings of a conjugate run read, and the keys the conjugator reads:
    a_1, a_2 and the grid's, which hold every shape since the shapes nest
    and F_1 holds the identity."""
    shapes = conjugate_shapes(m)
    grid = inverse_products(shapes[-1])
    return shapes, grid, grid.keys | {bs_a1(m), bs_a2(m)}


@_subcommand("conjugate", eps=(Fraction(1, 4), _TILING_EPS), n=(1000, _DEGREE),
             m=(lambda v: v["n"] - 1, _then(_BASE, _unit)), seed=(0, _count("seed")))
def _cmd_conjugate(v) -> Outcome:
    n, m, eps, seed = v["n"], v["m"], v["eps"], v["seed"]
    shapes, grid, domain = conjugate_domain(m)
    phi1 = ArithmeticModel(n, m).approx_on(domain)
    phi2 = phi1.conjugated(Permutation(np.random.default_rng(seed).permutation(n)))
    conj = build_conjugator(phi1, phi2, eps, shapes, grid)
    report = conjugacy_defect(conj, phi1, phi2, [bs_a1(m), bs_a2(m)])
    return {"conjugator.json": conj.to_json() + "\n", "conjugacy_report.json": _json({
        "n": n, "m": m, "eps": eps, "seed": seed,
        "support_fraction": conj.support_fraction(),
        "defects": {"a1" if g == bs_a1(m) else "a2": d for g, d in report.per_key.items()},
        "max_defect": report.max_defect,
        "passed": report.passed,
    })}, 0 if report.passed else 2


@_subcommand("search-f", n=(REQUIRED, _DEGREE), m=(REQUIRED, _unit),
             budget=(200_000, _count("budget")), seed=(0, _count("seed")))
def _cmd_search_f(v) -> Outcome:
    n = v["n"]
    result = search_local_exp(n, v["m"], budget=v["budget"], seed=v["seed"])
    # at or below the limit the budget is exhausted only when maps were left
    return ({"search.json": result.to_json() + "\n"},
            2 if result.budget_exhausted and n <= ORDER4_EXHAUSTIVE_MAX else 0)


@_subcommand("h3", n=(REQUIRED, _DEGREE), m=(REQUIRED, _unit), seed=(0, _count("seed")))
def _cmd_h3(v) -> Outcome:
    n, m = v["n"], v["m"]
    if n <= SYM_EXHAUSTIVE_MAX:
        frac = min_mezo_fraction(n, m)
        return {"h3.json": _json({"n": n, "m": m, "min_failing_fraction": frac,
                                  "strictly_positive": frac > 0})}, 0 if frac > 0 else 2
    f = Permutation(np.random.default_rng(v["seed"]).permutation(n))
    rep, wit = defect_report(f, m), h3_witness(f, m)
    return {"h3.json": _json({"n": n, "m": m, "seed": v["seed"],
                              "defect_fraction": rep.defect_fraction,
                              "relator_defects": wit.w_defects,
                              "g1_displacement": wit.g1_displacement})}, 0


def _draw_unit(rng: random.Random, q: int, p: int) -> int:
    """A unit mod q = p^r, drawn as rng.choice would draw it from the
    ascending list of units, without the list: the k-th unit (from 0) is
    k + k // (p - 1) + 1."""
    k = rng.randrange(q - q // p)
    return k + k // (p - 1) + 1


@_subcommand("padic", m=(REQUIRED, None), prime_powers=(REQUIRED, _padic_powers),
             tuples=(100, _count("tuples")), seed=(0, _count("seed")))
def _cmd_padic(v) -> Outcome:
    p, r_min, r_max = v["prime_powers"]
    tuples = v["tuples"]
    rng = random.Random(v["seed"])
    results = []
    for r in range(r_min, r_max + 1):
        ctx = PadicContext(p, r, v["m"])
        fixed_hits, cross_checked = 0, False
        for _ in range(tuples):
            c = tuple(_draw_unit(rng, ctx.q, p) for _ in range(4))
            rep = padic_fixed_point(ctx, c)
            fixed_hits += int(rep.is_fixed)
            cross_checked = rep.brute_points is not None
        results.append({"p": p, "r": r, "s": ctx.s, "tuples": tuples,
                        "genuinely_fixed": fixed_hits,
                        "cross_checked": cross_checked})
    return {"padic.json": _json(results)}, 0


@_subcommand("heuristic", N=(50, _check(lambda N: N >= 1, "N = {} must be >= 1")),
             eps=(Fraction(1, 5), _inside_unit_interval("eps")))
def _cmd_heuristic(v) -> Outcome:
    return {"heuristic.csv": heuristic_csv(v["N"], float(v["eps"]))}, 0


@_subcommand("verify", certificate=(REQUIRED, _check(lambda path: Path(path).is_file(),
                                                     "certificate {} not found")))
def _cmd_verify(v) -> Outcome:
    p = Path(v["certificate"])
    try:
        tiling = Tiling.from_json(p.read_text())
        report = verify_tiling(tiling)
    except Exception as exc:
        return {"verify.json": _json({"certificate": str(p), "error": str(exc),
                                      "passed": False})}, 2
    return {"verify.json": _json({
        "certificate": str(p), **_fields(report, "cover_ok", "measures"),
    })}, 0 if report.passed else 2


# ---------------------------------------------------------------------------
# Entry point

def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first `main` call:
    parse_args reads it without changing it and returns a new Namespace."""
    parser = argparse.ArgumentParser(prog="soficlab")
    parser.add_argument("subcommand", choices=_SUBCOMMANDS)
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
        params, source = load_config(args.config)
        for name in _OPTIONS:
            text = getattr(args, name)
            if text is not None:
                params[name] = _parse_option(name, text, _flag(name))
        # not a recorded param: the manifest is written into the directory itself
        out_dir = Path(params.pop("out", "out"))
        values = _resolve(args.subcommand, params)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        artifacts, code = _SUBCOMMANDS[args.subcommand][0](values)
        error = None
    except (AssertionError, ValueError, KeyError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        artifacts, code, error = {}, 2, str(exc)
    extra = [Path(p) for p in (args.config, params.get("certificate")) if p]
    artifacts["manifest.json"] = _json({
        "subcommand": args.subcommand,
        "params": dict(sorted(params.items())),
        "seed": values.get("seed"),     # the seed that ran, default included
        "config_source": source,
        "content_hash": _content_hash(params, extra),
        "wall_time_s": round(time.monotonic() - started, 3),
        "version": __version__,
        "exit_code": code,
        "error": error,
    })
    # a usage error returned above, so it leaves no directory behind
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        (out_dir / name).write_text(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
