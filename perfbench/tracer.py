"""Span tracing of the engine's layer boundaries, from outside the package.

`Tracer.install()` replaces each function in `TARGETS` at every `cri.*`
module attribute that refers to it, so calls through re-exports
(`cri.engine.build_pomdp`) and through imports made at call time
(`complexity_report` importing `build_pomdp`, `evaluate_countermeasure`
importing `run_campaign`) are all recorded. Spans stay in memory until
`write()`; self time and counters are derived from them afterwards.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


def _paths(result):
    return {"paths": len(result)}


def _model(result):
    return {"states": len(result.states), "actions": len(result.actions)}


def _solve(result):
    return {"beliefs": result.reachable_beliefs}


def _simulation(result):
    return {"episodes": result.num_episodes, "truncated": result.truncated_episodes}


def _campaign(result):
    return {"flows": len(result.flow_reports)}


# (module, function, layer, counters read from the return value)
TARGETS = (
    ("cri.ingest", "validate_bundle", "ingest", None),
    ("cri.ingest", "parse_network", "ingest", None),
    ("cri.ingest", "parse_policy_set", "ingest", None),
    ("cri.attack_flow", "parse_attack_flow", "ingest", None),
    ("cri.threat_intel", "load_threat_intel", "ingest", None),
    ("cri.netmodel", "physical_paths", "netmodel", _paths),
    ("cri.netmodel", "reachable_targets", "netmodel", None),
    ("cri.pomdp.build", "analyze_targets", "pomdp.build", None),
    ("cri.pomdp.build", "build_pomdp", "pomdp.build", _model),
    ("cri.pomdp.solve", "value_iteration", "pomdp.solve", _solve),
    ("cri.pomdp.solve", "milestone_probabilities", "pomdp.solve", None),
    ("cri.pomdp.complexity", "complexity_report", "pomdp.complexity", None),
    ("cri.simulate", "estimate_expected_reward", "simulate", _simulation),
    ("cri.engine", "run_campaign", "engine", _campaign),
    ("cri.index", "evaluate_countermeasure", "index", None),
    ("cri.index", "record_index", "index", None),
    ("cri.cli", "_write_reports", "cli", None),
)

ROOT = "cli.main"
LAYERS = (
    "ingest", "netmodel", "pomdp.build", "pomdp.solve", "pomdp.complexity",
    "simulate", "engine", "index", "cli",
)


def span_name(module: str, function: str) -> str:
    return f"{module.removeprefix('cri.')}.{function.lstrip('_')}"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: int
    counters: dict = field(default_factory=dict)


@dataclass
class RunStats:
    """Per-name totals over the spans of one run."""

    wall_s: float
    total_s: dict[str, float]
    self_s: dict[str, float]
    calls: dict[str, int]
    counters: dict[str, dict[str, int]]
    peak_counters: dict[str, dict[str, int]]
    layer_self_s: dict[str, float]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, time.perf_counter(), 0.0, parent, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counters = count(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "cri" or n.startswith("cri.")]
        for module_name, function, layer, count in TARGETS:
            original = getattr(sys.modules[module_name], function)
            wrapper = self._wrap(original, span_name(module_name, function), layer, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def call(self, run: int, fn, *args, **kwargs):
        """Call fn under a root span tagged with run id `run`."""
        self.run = run
        span = self._open(ROOT, "cli")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def stats(self, run: int) -> RunStats:
        indices = [i for i, s in enumerate(self.spans) if s.run == run]
        child_time = {i: 0.0 for i in indices}
        for i in indices:
            parent = self.spans[i].parent
            if parent is not None:
                child_time[parent] += self.spans[i].end - self.spans[i].start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        counters: dict[str, dict[str, int]] = {}
        peaks: dict[str, dict[str, int]] = {}
        layers = {layer: 0.0 for layer in LAYERS}
        wall = 0.0
        for i in indices:
            span = self.spans[i]
            duration = span.end - span.start
            self_time = duration - child_time[i]
            if span.parent is None:
                wall += duration
            total[span.name] = total.get(span.name, 0.0) + duration
            own[span.name] = own.get(span.name, 0.0) + self_time
            calls[span.name] = calls.get(span.name, 0) + 1
            layers[span.layer] += self_time
            for key, value in span.counters.items():
                bucket = counters.setdefault(span.name, {})
                bucket[key] = bucket.get(key, 0) + value
                peak = peaks.setdefault(span.name, {})
                peak[key] = max(peak.get(key, 0), value)
        return RunStats(wall, total, own, calls, counters, peaks, layers)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(dict(asdict(span), id=i), sort_keys=True) + "\n")
