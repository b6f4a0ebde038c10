"""Outside-in layer tracing for the end-to-end benchmark.

:data:`LAYERS` is the single definition of the benchmark's layers.  Each
layer names the public entry functions of one part of the program as
``"module:qualname"`` targets.  A traced run wraps those functions from
here, records one span per call in memory, and derives per-layer self
time (duration minus the wrapped calls made inside it).  No program
file is modified.

Wrapping rules:

* a module function is replaced, by object identity, in *every* loaded
  module that holds it -- the suite imports ``analyze_ser``,
  ``circuit_elws`` and friends by name, so patching only the defining
  module would miss those calls;
* a method is replaced on its class (``classmethod`` kept as such);
* a target that does not resolve is listed in :attr:`Tracing.missing`
  and its layer reports ``calls = 0``; it is never an error;
* a call into a layer from inside the same layer (``minobs_retiming``
  delegates to ``minobswin_retiming``) is one layer call, not two.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

#: Name of the span around a workload's whole timed region.  Its self
#: time is the run's unattributed time.
ROOT = "workload"


def _init_tally(result: Any) -> dict[str, float]:
    return {"fallback": float(result.used_fallback)}


def _solve_tally(result: Any) -> dict[str, float]:
    return {"commits": float(result.commits),
            "iterations": float(result.iterations)}


def _rebuild_tally(result: Any) -> dict[str, float]:
    return {"exact": float(result[1])}


def _guard_tally(result: Any) -> dict[str, float]:
    return {"ok": float(result.ok)}


def _elw_tally(result: Any) -> dict[str, float]:
    # circuit_elws returns the ELW map; incremental_circuit_elws returns
    # (map, reuse counters).
    if isinstance(result, tuple):
        return {"reused": float(result[1]["reused"]),
                "recomputed": float(result[1]["recomputed"])}
    return {}


@dataclass(frozen=True)
class Ratio:
    """``<layer>.<name>`` = counter ``numerator`` / sum of ``denominator``
    counters (``"calls"`` is the layer's call count); 0 when the
    denominator is 0."""

    name: str
    numerator: str
    denominator: tuple[str, ...]


@dataclass(frozen=True)
class Layer:
    """One layer: its wrapped ``targets``, an optional ``tally`` of
    counters from each call's return value with the ``ratio`` derived
    from them, and the ``callers`` whose part of this layer's self time
    the benchmark reports separately."""

    name: str
    targets: tuple[str, ...]
    tally: Callable[[Any], dict[str, float]] | None = None
    ratio: Ratio | None = None
    callers: tuple[str, ...] = ()


LAYERS: tuple[Layer, ...] = (
    Layer("netlist.parse", ("repro.netlist.bench_format:loads_bench",
                            "repro.netlist.blif_format:loads_blif")),
    Layer("graph.build",
          ("repro.graph.retiming_graph:RetimingGraph.from_circuit",)),
    Layer("graph.timing", ("repro.graph.timing:achieved_period",)),
    Layer("flatcore.lower", ("repro.flatcore.arena:lower",),
          callers=("sim.observability", "runtime.guards")),
    Layer("sim.observability", ("repro.sim.odc:observability",)),
    Layer("core.initialize", ("repro.core.initialization:initialize",),
          _init_tally, Ratio("fallback_frac", "fallback", ("calls",))),
    Layer("retime.minperiod",
          ("repro.retime.minperiod:feasible_retiming",)),
    Layer("retime.setup_hold",
          ("repro.retime.setup_hold:repair_constraints",)),
    Layer("core.solve", ("repro.core.minobswin:minobswin_retiming",
                         "repro.core.minobs:minobs_retiming"),
          _solve_tally, Ratio("commit_ratio", "commits", ("iterations",))),
    Layer("core.regular_forest",
          ("repro.core.regular_forest:RegularForest.positive_delta",)),
    Layer("core.constraints", ("repro.core.constraints:find_violations",),
          callers=("retime.setup_hold", "core.solve", "core.initialize")),
    Layer("retime.rebuild", ("repro.pipeline:rebuild_retimed_states",),
          _rebuild_tally, Ratio("exact_frac", "exact", ("calls",))),
    Layer("runtime.guards", ("repro.runtime.guards:verify_retimed",),
          _guard_tally, Ratio("ok_ratio", "ok", ("calls",))),
    Layer("retime.verify", ("repro.retime.verify:check_cycle_weights",)),
    Layer("core.elw", ("repro.core.elw:circuit_elws",
                       "repro.core.elw:incremental_circuit_elws"),
          _elw_tally,
          Ratio("reuse_ratio", "reused", ("reused", "recomputed")),
          callers=(ROOT, "ser.analysis")),
    Layer("ser.analysis", ("repro.ser.analysis:analyze_ser",)),
    Layer("runtime.manifest", ("repro.runtime.manifest:RunManifest.save",)),
)


class Recorder:
    """In-memory span store: ``[name, parent_index, t0, dur]`` per span,
    times in seconds since the recorder was created."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.spans: list[list[Any]] = []
        self.counters: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> list[Any]:
        parent = self._stack[-1] if self._stack else None
        record = [name, parent, time.perf_counter() - self.epoch, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list[Any]) -> None:
        self._stack.pop()
        record[3] = time.perf_counter() - self.epoch - record[2]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the block (used for :data:`ROOT`)."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, layer: Layer, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording a ``layer`` span around every outermost call."""
        name = layer.name
        tally = layer.tally

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack
            if stack and self.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if tally is not None:
                counts = self.counters.setdefault(name, {})
                for key, value in tally(result).items():
                    counts[key] = counts.get(key, 0.0) + value
            return result

        return wrapper


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, raw object)`` of a ``module:qualname`` target;
    raises ImportError, AttributeError or KeyError when it is gone."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracing:
    """Context manager installing the layer wrappers of a recorder.

    Everything replaced is restored on exit, so untraced code running
    later in the same process sees the original functions.
    """

    def __init__(self, recorder: Recorder,
                 layers: Iterable[Layer] = LAYERS) -> None:
        self.recorder = recorder
        self.layers = tuple(layers)
        self.missing: list[str] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracing":
        for layer in self.layers:
            for target in layer.targets:
                try:
                    owner, attr, raw = _resolve(target)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(target)
                    continue
                if isinstance(owner, type):
                    self._patch_method(layer, owner, attr, raw)
                else:
                    self._patch_function(layer, raw)
        return self

    def _patch_method(self, layer: Layer, owner: type, attr: str,
                      raw: Any) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self.recorder.wrap(layer, raw.__func__))
        else:
            wrapped = self.recorder.wrap(layer, raw)
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, raw))

    def _patch_function(self, layer: Layer, original: Any) -> None:
        wrapper = self.recorder.wrap(layer, original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._restore.append((module, key, original))

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# ----------------------------------------------------------------------
# Self time and per-layer metrics
# ----------------------------------------------------------------------

def layer_totals(spans: list[list[Any]]) -> dict[str, dict[str, Any]]:
    """Per span name: ``calls``, ``self_s`` and ``from`` (caller span
    name -> self seconds).  Self time is a span's duration minus the
    durations of its direct children."""
    child_time = [0.0] * len(spans)
    for _, parent, _, dur in spans:
        if parent is not None:
            child_time[parent] += dur
    totals: dict[str, dict[str, Any]] = {}
    for index, (name, parent, _, dur) in enumerate(spans):
        self_s = max(0.0, dur - child_time[index])
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0,
                                         "from": {}})
        entry["calls"] += 1
        entry["self_s"] += self_s
        caller = spans[parent][0] if parent is not None else ""
        entry["from"][caller] = entry["from"].get(caller, 0.0) + self_s
    return totals


def metric_names(layers: Iterable[Layer] = LAYERS) -> list[str]:
    """The per-layer metrics :func:`layer_metrics` always reports."""
    names = []
    for layer in layers:
        names += [f"{layer.name}.calls", f"{layer.name}.self_s",
                  f"{layer.name}.share"]
        if layer.ratio is not None:
            names.append(f"{layer.name}.{layer.ratio.name}")
        names += [f"{layer.name}.from.{caller}.self_s"
                  for caller in layer.callers]
    return names + ["trace.unattributed_s", "trace.unattributed_share"]


def layer_metrics(recorder: Recorder, wall_s: float,
                  layers: Iterable[Layer] = LAYERS) -> dict[str, float]:
    """Flat per-layer metrics of one traced run (see the README)."""
    totals = layer_totals(recorder.spans)
    out: dict[str, float] = {}
    for layer in layers:
        entry = totals.get(layer.name, {"calls": 0, "self_s": 0.0,
                                        "from": {}})
        out[f"{layer.name}.calls"] = float(entry["calls"])
        out[f"{layer.name}.self_s"] = entry["self_s"]
        out[f"{layer.name}.share"] = entry["self_s"] / wall_s
        for caller, self_s in entry["from"].items():
            if len(entry["from"]) > 1 or caller in layer.callers:
                out[f"{layer.name}.from.{caller}.self_s"] = self_s
        for caller in layer.callers:
            out.setdefault(f"{layer.name}.from.{caller}.self_s", 0.0)
        if layer.ratio is not None:
            counts = dict(recorder.counters.get(layer.name, {}))
            counts["calls"] = float(entry["calls"])
            denominator = sum(counts.get(key, 0.0)
                              for key in layer.ratio.denominator)
            out[f"{layer.name}.{layer.ratio.name}"] = \
                counts.get(layer.ratio.numerator, 0.0) / denominator \
                if denominator else 0.0
    root = totals.get(ROOT, {"self_s": 0.0})
    out["trace.unattributed_s"] = root["self_s"]
    out["trace.unattributed_share"] = root["self_s"] / wall_s
    return out


def write_trace(path: str, recorder: Recorder,
                meta: dict[str, Any]) -> None:
    """Write the recorded spans as a ``repro-trace`` v1 JSONL file, the
    format ``repro-ser trace summarize|top|flame`` reads."""
    from repro.telemetry.spans import TRACE_FORMAT, TRACE_VERSION

    def line(record: dict[str, Any]) -> str:
        return json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"

    with open(path, "w", encoding="utf-8") as handle:
        handle.write(line({
            "type": "trace", "format": TRACE_FORMAT,
            "version": TRACE_VERSION, "clock": "perf_counter",
            "prefix": "", "wall_time": time.time(), "meta": meta}))
        for index, (name, parent, t0, dur) in enumerate(recorder.spans):
            handle.write(line({
                "type": "span", "id": str(index + 1),
                "parent": None if parent is None else str(parent + 1),
                "name": name, "t0": t0, "dur": dur, "attrs": {}}))
