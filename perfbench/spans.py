"""In-memory spans around gwshot's public functions.

`install` replaces each traced function with a timing wrapper under every
name it is looked up by: the defining module or class, and every loaded
``gwshot.*`` module that imported it by name (``cli`` and ``checks`` bind
``run_coupled``, ``run_check`` and ``ks_distance`` at import time, so
patching the defining module alone would miss those calls).

A span's self time is its duration minus the durations of the traced
spans directly inside it, so the self times of all layers add up to the
duration of the root span (``cli.main``).  Nothing is written while the
program runs; `Tracer.summary` is read once the traced call has returned.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# (layer, owner, attribute, work counter).  The counter receives the call's
# positional arguments, keyword arguments and result, and returns the work
# the call did; methods receive `self` as their first positional argument.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.main", "gwshot.cli", "main", None),
    ("cli.write", "gwshot.cli", "_write_csv", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
    ("cli.write", "gwshot.cli", "_write_json", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
    ("checks.run_check", "gwshot.checks", "run_check", None),
    ("immigration", "gwshot.immigration:ImmigrationLaw", "sample_log_j_array", None),
    ("immigration", "gwshot.immigration:ImmigrationLaw", "norming_bn", None),
    ("offspring", "gwshot.offspring:OffspringFamily", "sample_generations",
     lambda a, k, r: len(_arg(a, k, 1, "counts"))),
    ("gwi.run_coupled", "gwshot.gwi", "run_coupled", None),
    ("gwi.normalized_observable", "gwshot.gwi", "normalized_observable", None),
    ("limit.sample_shot_noise_marginal", "gwshot.limit", "sample_shot_noise_marginal",
     lambda a, k, r: len(r)),
    ("limit.sample_atoms", "gwshot.limit", "sample_atoms", lambda a, k, r: len(r)),
    ("limit.shot_noise_path", "gwshot.limit", "shot_noise_path", lambda a, k, r: len(r.breakpoints)),
    ("stats.ks_distance", "gwshot.stats", "ks_distance", lambda a, k, r: len(_arg(a, k, 0, "sample"))),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


@dataclass
class Layer:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    work: int = 0
    durations_ns: list[int] = field(default_factory=list)


class Tracer:
    """Aggregates spans per layer; one instance per traced process."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {name: Layer() for name in LAYERS}
        # One entry per open span: the time its traced children have used.
        self._children_ns: list[int] = []

    def wrap(self, layer: str, fn: Callable, count: Callable | None) -> Callable:
        stats = self.layers[layer]
        open_spans = self._children_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                stats.calls += 1
                stats.busy_ns += duration
                stats.self_ns += duration - inner
                stats.durations_ns.append(duration)
            if count is not None:
                stats.work += int(count(args, kwargs, result))
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        out = {}
        for name, stats in self.layers.items():
            d = stats.durations_ns
            out[name] = {
                "calls": stats.calls,
                "busy_s": stats.busy_ns / 1e9,
                "self_s": stats.self_ns / 1e9,
                "work": stats.work,
                "p50_ms": statistics.median(d) / 1e6 if d else 0.0,
                "p95_ms": _nearest_rank(d, 95) / 1e6 if d else 0.0,
            }
        return out


def _nearest_rank(values: list[int], percent: int) -> int:
    """The smallest value with at least `percent`% of the values at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-percent * len(ordered) // 100))
    return ordered[rank - 1]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the targets that no longer exist."""
    missing = []
    for layer, owner, attr, count in TARGETS:
        holder = _resolve(owner)
        fn = getattr(holder, attr, None) if holder is not None else None
        if fn is None:
            missing.append(f"{owner}.{attr}")
            continue
        wrapped = tracer.wrap(layer, fn, count)
        setattr(holder, attr, wrapped)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "gwshot" or name.startswith("gwshot.")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
    return missing
