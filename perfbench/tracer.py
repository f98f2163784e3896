"""Span tracing of soficlab from outside the program.

`Tracer.install()` replaces each public function or method named in TARGETS
with a wrapper that records a span: name, start, end, parent span and op.
Several modules bind functions by name (`cli` imports `quasi_tile`,
`conjugacy` imports `orbit_order`, the package re-exports many), so a
function is replaced under every name that binds it in every loaded
soficlab module, not only in the module that defines it.  `uninstall()`
puts the originals back, which lets a run alternate traced and untraced
executions of one op.  Spans stay in memory until `write()`.

Per-layer times are self times: a span's duration minus the durations of
its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# (defining module, function or Class.method, span name)
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("soficlab.cli", "main", "cli"),
    ("soficlab.expcycles", "exp_map", "expcycles.exp_map"),
    ("soficlab.expcycles", "count_k_periodic", "expcycles.count_k_periodic"),
    ("soficlab.expcycles", "count_k_periodic_by_tables", "expcycles.count_k_periodic_by_tables"),
    ("soficlab.expcycles", "multiplicative_order", "expcycles.multiplicative_order"),
    ("soficlab.expcycles", "cycle_census", "expcycles.cycle_census"),
    ("soficlab.expcycles", "run_sweep", "expcycles.run_sweep"),
    ("soficlab.expcycles", "segmented_sieve", "expcycles.segmented_sieve"),
    ("soficlab.expcycles", "sweep_csv", "expcycles.sweep_csv"),
    ("soficlab.tiling", "plan_parameters", "tiling.plan_parameters"),
    ("soficlab.tiling", "extract_eps_disjoint", "tiling.extract_eps_disjoint"),
    ("soficlab.tiling", "quasi_tile", "tiling.quasi_tile"),
    ("soficlab.tiling", "verify_tiling", "tiling.verify_tiling"),
    ("soficlab.tiling", "Tiling.to_json", "tiling.to_json"),
    ("soficlab.tiling", "Tiling.from_json", "tiling.from_json"),
    ("soficlab.soficcheck", "ArithmeticModel.permutation", "soficcheck.permutation"),
    ("soficlab.bsgroup", "BsElement.__mul__", "bsgroup.mul"),
    ("soficlab.bsgroup", "bs_rectangle", "bsgroup.shapes"),
    ("soficlab.bsgroup", "a2_interval", "bsgroup.shapes"),
    ("soficlab.conjugacy", "build_conjugator", "conjugacy.build_conjugator"),
    ("soficlab.conjugacy", "conjugacy_defect", "conjugacy.conjugacy_defect"),
    ("soficlab.conjugacy", "Conjugator.to_json", "conjugacy.to_json"),
    ("soficlab.perm", "orbit_order", "perm.orbit_order"),
    ("soficlab.perm", "Permutation.compose", "perm.compose"),
    ("soficlab.perm", "Permutation.inverse", "perm.inverse"),
    ("soficlab.perm", "Permutation.cycle_lengths", "perm.cycle_lengths"),
    ("soficlab.perm", "hamming", "perm.hamming"),
    ("soficlab.localexp", "search_local_exp", "localexp.search_local_exp"),
    ("soficlab.localexp", "defect_report", "localexp.defect_report"),
)

# per-layer time metric -> span whose self time it sums, in seconds per op
TIME_METRICS: Dict[str, str] = {
    "cli.self_s": "cli",
    "expcycles.exp_map_s": "expcycles.exp_map",
    "expcycles.count_k_periodic_s": "expcycles.count_k_periodic",
    "expcycles.count_k_periodic_by_tables_s": "expcycles.count_k_periodic_by_tables",
    "expcycles.multiplicative_order_s": "expcycles.multiplicative_order",
    "expcycles.cycle_census_self_s": "expcycles.cycle_census",
    "expcycles.segmented_sieve_s": "expcycles.segmented_sieve",
    "expcycles.sweep_csv_s": "expcycles.sweep_csv",
    "tiling.extract_eps_disjoint_s": "tiling.extract_eps_disjoint",
    "tiling.quasi_tile_self_s": "tiling.quasi_tile",
    "tiling.verify_tiling_s": "tiling.verify_tiling",
    "tiling.to_json_s": "tiling.to_json",
    "tiling.from_json_s": "tiling.from_json",
    "soficcheck.permutation_s": "soficcheck.permutation",
    "bsgroup.mul_s": "bsgroup.mul",
    "bsgroup.shapes_s": "bsgroup.shapes",
    "conjugacy.build_conjugator_self_s": "conjugacy.build_conjugator",
    "conjugacy.conjugacy_defect_s": "conjugacy.conjugacy_defect",
    "conjugacy.to_json_s": "conjugacy.to_json",
    "perm.orbit_order_s": "perm.orbit_order",
    "perm.compose_s": "perm.compose",
    "perm.inverse_s": "perm.inverse",
    "perm.hamming_s": "perm.hamming",
    "perm.cycle_lengths_s": "perm.cycle_lengths",
    "localexp.search_local_exp_s": "localexp.search_local_exp",
    "localexp.defect_report_s": "localexp.defect_report",
}

# Counts are per-op means over the first COUNTED_OPS traced ops, a fixed op
# set, so an output-preserving change leaves them exactly unchanged.
COUNTED_OPS = 8

Span = Tuple[str, float, float, int, int]      # name, start, end, parent id, op id


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op_id = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._seen_perms: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # -- recording ----------------------------------------------------------

    def _count(self, name: str, value: float) -> None:
        self.counts[self.op_id][name] += value

    def _after(self, span: str, args: tuple, result) -> None:
        """Counters taken where the work happens, from arguments and results."""
        if span == "expcycles.exp_map":
            self._count("table_entries", result.n)
        elif span == "tiling.extract_eps_disjoint":
            self._count("sets_offered", len(args[0].sets))
            self._count("sets_kept", len(result.indices))
        elif span == "tiling.quasi_tile":
            self._count("b_size_sum", result.b_size)
        elif span == "soficcheck.permutation":
            seen = self._seen_perms.setdefault(args[0], set())
            if args[1] not in seen:
                seen.add(args[1])
                self._count("permutations_built", 1)
        elif span == "conjugacy.build_conjugator":
            self._count("support_frac_sum", float(result.support_fraction()))
        elif span == "localexp.search_local_exp":
            self._count("steps", result.budget)

    def _wrap(self, func: Callable, span: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (span, start, end, parent, self.op_id)
                self._count("calls:" + span, 1)
            self._after(span, args, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "soficlab" or name.startswith("soficlab.")]
        for module_name, attr, span in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                class_name, attr = attr.split(".")
                cls = getattr(owner, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(raw.__func__, span))
                else:
                    wrapper = self._wrap(raw, span)
                # aliases such as Permutation.__mul__ = compose
                homes = [(cls, key) for key, value in list(cls.__dict__.items()) if value is raw]
            else:
                raw = getattr(owner, attr)
                wrapper = self._wrap(raw, span)
                homes = [(mod, key) for mod in modules
                         for key, value in list(vars(mod).items()) if value is raw]
            for home, key in homes:
                self._patched.append((home, key, getattr(home, "__dict__")[key]))
                setattr(home, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            home, key, original = self._patched.pop()
            setattr(home, key, original)

    # -- results ------------------------------------------------------------

    def self_times(self) -> Dict[Tuple[int, str], float]:
        """(op id, span name) -> summed self time in seconds."""
        own = [0.0] * len(self.spans)
        for sid, (_, start, end, parent, _) in enumerate(self.spans):
            own[sid] += end - start
            if parent >= 0:
                own[parent] -= end - start
        out: Dict[Tuple[int, str], float] = defaultdict(float)
        for sid, (name, _, _, _, op) in enumerate(self.spans):
            out[(op, name)] += own[sid]
        return out

    def fired(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            counts[name] += 1
        return dict(counts)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": [[sid, *span] for sid, span in enumerate(self.spans)],
        }) + "\n")


def layer_metrics(tracer: Tracer, slowdown: Dict[int, float]) -> Dict[str, float]:
    """Per-layer metrics over the traced ops, keyed to the CPU slowdown
    measured around each: self times as seconds per op, scaled like op
    times, and counts as per-op means over the first COUNTED_OPS ops."""
    traced_ops = sorted(slowdown)
    n_ops = len(traced_ops)
    times = {(op, span): t / slowdown[op] for (op, span), t in tracer.self_times().items()}
    out: Dict[str, float] = {}
    for metric, span in TIME_METRICS.items():
        out[metric] = sum(times.get((op, span), 0.0) for op in traced_ops) / n_ops

    def total(name: str, ops: List[int]) -> float:
        return sum(tracer.counts[op].get(name, 0.0) for op in ops)

    counted = traced_ops[:COUNTED_OPS]
    k = len(counted)
    quasi_tiles = total("calls:tiling.quasi_tile", counted)
    conjugators = total("calls:conjugacy.build_conjugator", counted)
    offered = total("sets_offered", counted)
    out["expcycles.moduli"] = total("calls:expcycles.cycle_census", counted) / k
    out["expcycles.table_entries"] = total("table_entries", counted) / k
    out["tiling.sets_offered"] = offered / k
    out["tiling.sets_kept"] = total("sets_kept", counted) / k
    out["tiling.keep_ratio"] = total("sets_kept", counted) / offered if offered else 0.0
    out["tiling.b_size"] = total("b_size_sum", counted) / quasi_tiles if quasi_tiles else 0.0
    out["soficcheck.permutations_built"] = total("permutations_built", counted) / k
    out["bsgroup.mul_calls"] = total("calls:bsgroup.mul", counted) / k
    out["conjugacy.support_frac"] = (total("support_frac_sum", counted) / conjugators
                                     if conjugators else 0.0)
    out["perm.compose_calls"] = total("calls:perm.compose", counted) / k
    out["localexp.steps"] = total("steps", counted) / k
    steps = total("steps", traced_ops)
    search_s = sum(times.get((op, "localexp.search_local_exp"), 0.0) for op in traced_ops)
    out["localexp.step_us"] = search_s / steps * 1e6 if steps else 0.0
    return out
