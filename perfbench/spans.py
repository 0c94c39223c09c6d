"""Spans around calls into each hrrc module, recorded from outside the package.

``Tracer.install`` replaces each function named in ``LAYERS`` with a wrapper
in every ``hrrc`` module that holds a reference to it, so calls made from
inside the package are recorded too.  A span is ``[name, start, end, parent,
first argument id, count]``; spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter

# module -> public functions wrapped in spans.  Generators and helpers called
# once per enumerated assignment (``satisfies``) are left out.
LAYERS = {
    "model": [
        "load_instance",
        "load_matching",
        "validate",
        "classify",
        "save_matching",
        "save_instance",
    ],
    "hr_core": ["rgs", "shrink"],
    "poly_solvers": [
        "dispatch",
        "solve_regions_size1",
        "find_2x2_subinstances",
        "solve_2x2_free",
        "solve_222_disjoint",
    ],
    "stability": ["is_strongly_stable", "is_feasible", "blocking_pairs", "strong_blocking_pairs"],
    "exhaustive": ["exists_strongly_stable"],
    "reductions": [
        "parse_dimacs",
        "to_ppn",
        "reduce_ppn",
        "encode_assignment",
        "decode_matching",
        "sat_brute",
    ],
    "cli": ["main"],
}

# Functions whose result size is recorded as the span's count.
_COUNTS = {
    "stability.blocking_pairs": len,
    "stability.strong_blocking_pairs": len,
    "reductions.reduce_ppn": lambda out: len(out[0].residents) + len(out[0].hospitals),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        count = _COUNTS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    id(args[0]) if args else 0, 0]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "hrrc" or n.startswith("hrrc.")]
        for mod_name, funcs in LAYERS.items():
            mod = sys.modules[f"hrrc.{mod_name}"]
            for fname in funcs:
                orig = getattr(mod, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", orig)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is orig:
                            self._patches.append((holder, attr, orig))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patches):
            setattr(holder, attr, orig)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_totals(spans: list[list], first: int = 0) -> dict[str, float]:
    """Per-layer metrics over ``spans[first:]`` (one traced pass)."""
    spans = spans[first:]
    child_time = [0.0] * len(spans)
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for span in spans:
        name, start, end, parent = span[0], span[1], span[2], span[3] - first
        totals[name] = totals.get(name, 0.0) + (end - start)
        counts[name] = counts.get(name, 0) + span[5]
        if parent >= 0:
            child_time[parent] += end - start

    # Capacity loop: solve_222_disjoint minus block extraction and minus the
    # certificate, the is_strongly_stable call on solve_222_disjoint's own
    # instance (calls on 2x2 blocks stay in).
    cli_self = loop_self = 0.0
    for k, span in enumerate(spans):
        duration = span[2] - span[1]
        if span[0] == "cli.main":
            cli_self += duration - child_time[k]
        elif span[0] == "poly_solvers.solve_222_disjoint":
            loop_self += duration
        parent = span[3] - first
        if parent >= 0 and spans[parent][0] == "poly_solvers.solve_222_disjoint" and (
            span[0] == "poly_solvers.find_2x2_subinstances"
            or (span[0] == "stability.is_strongly_stable" and span[4] == spans[parent][4])
        ):
            loop_self -= duration

    out = {
        f"{name}_s": totals.get(name, 0.0)
        for name in (
            "model.load_instance",
            "model.load_matching",
            "model.validate",
            "model.classify",
            "model.save_matching",
            "model.save_instance",
            "hr_core.rgs",
            "poly_solvers.dispatch",
            "poly_solvers.solve_regions_size1",
            "poly_solvers.find_2x2_subinstances",
            "poly_solvers.solve_222_disjoint",
            "stability.is_strongly_stable",
            "stability.blocking_pairs",
            "stability.strong_blocking_pairs",
            "exhaustive.exists_strongly_stable",
            "reductions.reduce_ppn",
            "reductions.encode_assignment",
            "reductions.decode_matching",
            "reductions.to_ppn",
            "reductions.sat_brute",
        )
    }
    out["poly_solvers.capacity_loop_self_s"] = loop_self
    out["cli.self_s"] = cli_self
    out["stability.blocking_pairs.count"] = counts.get("stability.blocking_pairs", 0)
    out["stability.strong_blocking_pairs.count"] = counts.get("stability.strong_blocking_pairs", 0)
    out["reductions.agents.count"] = counts.get("reductions.reduce_ppn", 0)
    return out
