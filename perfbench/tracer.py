"""Span tracer for the benchmark's traced runs.

Wrappers are installed from here, on the classes and module globals of
``src/repro``, before any ``Testbed`` is built: the program binds some
hot methods once per instance (``Port`` keeps ``sim.schedule``), so a
method patched after construction would never be seen.  Nothing under
``src/`` is edited.

A span is ``(name, start, end, parent)``.  Three kinds are recorded:

* every simulator event: ``Simulator.schedule`` is wrapped so each
  scheduled callback runs inside a dispatch span named after the
  callback, attributed to the layer its module belongs to;
* *named* calls (``NAMED`` below), spanned on every call, because the
  benchmark reports their call counts and times;
* *boundary* calls (``BOUNDARY``), spanned only when entered from a
  different layer, so a call inside its own layer costs one frame and
  no record.

A layer is the package under ``repro``: ``sim``, ``net``, ``host``,
``lb``, ``presto``, ``fluid``, ``runner``; everything else (harness,
workloads, search, faults, metrics) is ``other``.  A layer's self time
is the sum over its spans of span time minus the time covered by child
spans, accumulated online as each span closes.  Every span is counted;
the first ``keep`` spans are also kept in memory and written out by
:meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

LAYERS = ("sim", "net", "host", "lb", "presto", "fluid", "runner")
OTHER = "other"

#: (module, attribute path) spanned on every call
NAMED: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "Simulator.run"),
    ("repro.fluid.engine", "max_min_allocation"),
    ("repro.fluid.engine", "FluidEngine.resolve_path"),
    ("repro.fluid.testbed", "FluidTestbed.run"),
    ("repro.presto.controller", "PrestoController.push_schedules"),
    ("repro.runner.jobspec", "JobSpec.hash"),
    ("repro.runner.store", "ResultStore.load_record"),
    ("repro.runner.store", "ResultStore.save"),
    ("repro.runner", "run_jobs"),
    ("repro.experiments.harness", "Testbed.run"),
    ("repro.search.fitness", "run_search_cell"),
    ("perfbench.cells", "fabric_cell"),
)

#: (module, attribute path) spanned only when entered from another layer
BOUNDARY: Tuple[Tuple[str, str], ...] = (
    ("repro.net.port", "Port.send"),
    ("repro.net.switch", "Switch.receive"),
    ("repro.net.link", "Link.set_down"),
    ("repro.net.link", "Link.set_up"),
    ("repro.net.topology", "Topology.attach_host"),
    ("repro.net.topology", "Topology.install_underlay"),
    ("repro.net.routing", "validate_trees"),
    ("repro.experiments.harness", "build_fabric"),
    ("repro.host.host", "Host.__init__"),
    ("repro.host.nic", "Nic.rx"),
    ("repro.host.nic", "Nic._on_dequeue"),
    ("repro.lb.base", "LoadBalancer.select"),
    ("repro.lb.base", "LoadBalancer.labels_for"),
    ("repro.lb.base", "LoadBalancer.set_schedule"),
    ("repro.presto.vswitch", "PrestoLb.select"),
    ("repro.presto.controller", "PrestoController.__init__"),
    ("repro.presto.controller", "PrestoController.push_all"),
    ("repro.presto.controller", "PrestoController.enable_fast_failover"),
    ("repro.fluid.engine", "FluidEngine.open_transfer"),
    ("repro.fluid.engine", "FluidEngine.schedules_changed"),
)


def layer_of(module: str) -> str:
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return OTHER


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, keep: int = 2_000_000):
        self.keep = keep
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: per name id: [count, self seconds, total seconds]
        self.stats: List[List[float]] = []
        #: open spans: [start, child seconds, layer, span index]
        self.stack: List[List[Any]] = []
        self.recorded = 0
        self.span_index = array("i")
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.origin = perf_counter()
        #: program counters read at span boundaries
        self.events_executed = 0
        self.reallocs = 0
        self.alloc_pipes = 0
        #: callback function -> (name id, layer) of its dispatch span
        self._dispatch_ids: Dict[Any, Tuple[int, str]] = {}

    # --- recording ----------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0.0, 0.0])
        return nid

    def _open(self, layer: str) -> List[Any]:
        stack = self.stack
        index = self.recorded
        self.recorded = index + 1
        frame = [perf_counter(), 0.0, layer, index]
        stack.append(frame)
        return frame

    def _close(self, nid: int, frame: List[Any]) -> None:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        dur = end - frame[0]
        parent = -1
        if stack:
            top = stack[-1]
            top[1] += dur
            parent = top[3]
        acc = self.stats[nid]
        acc[0] += 1
        acc[1] += dur - frame[1]
        acc[2] += dur
        if frame[3] < self.keep:
            self.span_index.append(frame[3])
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(frame[0] - self.origin)
            self.span_end.append(end - self.origin)

    def wrap(self, fn: Callable, layer: str, name: str,
             boundary: bool) -> Callable:
        nid = self.name_id(f"{layer}:{name}")
        stack = self.stack
        open_, close = self._open, self._close

        if boundary:
            def traced(*args, **kwargs):
                if stack and stack[-1][2] == layer:
                    return fn(*args, **kwargs)
                frame = open_(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(nid, frame)
        else:
            def traced(*args, **kwargs):
                frame = open_(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(nid, frame)
        # keep the name: JobSpec refers to job functions as module:qualname
        return functools.wraps(fn)(traced)

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        """Patch the program; call before any Testbed is built."""
        for boundary, table in ((False, NAMED), (True, BOUNDARY)):
            for module_name, path in table:
                owner, attr = importlib.import_module(module_name), path
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                # the layer is where the code lives, not where it is bound
                fn = getattr(original, "fget", original)
                layer = layer_of(fn.__module__)
                setattr(owner, attr,
                        self._wrapped(original, layer, path, boundary))
        self._install_dispatch()

    def _wrapped(self, original, layer, path, boundary):
        if isinstance(original, property):
            return property(self.wrap(original.fget, layer, path, boundary))
        fn = self.wrap(original, layer, path, boundary)
        if path == "Simulator.run":
            return self._counting(fn, lambda sim: sim, "events_executed",
                                  "events_executed")
        if path == "FluidTestbed.run":
            return self._counting(fn, lambda tb: tb.engine, "reallocs",
                                  "reallocs")
        if path == "max_min_allocation":
            def sized(flows, capacity, _fn=fn):
                self.alloc_pipes += len(flows)
                return _fn(flows, capacity)
            return sized
        return fn

    def _counting(self, fn, target, counter, total):
        """Add the delta of a program counter across each call."""
        def counted(obj, *args, **kwargs):
            src = target(obj)
            before = getattr(src, counter)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                setattr(self, total,
                        getattr(self, total) + getattr(src, counter) - before)
        return counted

    def _install_dispatch(self) -> None:
        from repro.sim.engine import Simulator

        original = Simulator.__dict__["schedule"]
        ids = self._dispatch_ids
        open_, close = self._open, self._close
        name_id = self.name_id

        def dispatch(nid, layer, fn, *args):
            frame = open_(layer)
            try:
                fn(*args)
            finally:
                close(nid, frame)

        def schedule(sim, delay, fn, *args):
            func = getattr(fn, "__func__", fn)
            entry = ids.get(func)
            if entry is None:
                layer = layer_of(getattr(func, "__module__", "") or "")
                qual = getattr(func, "__qualname__", type(func).__name__)
                entry = ids[func] = (name_id(f"{layer}:{qual}"), layer)
            return original(sim, delay, dispatch, entry[0], entry[1], fn,
                            *args)

        Simulator.schedule = schedule

    # --- readout --------------------------------------------------------

    def dispatch_count(self, qualname_suffix: str = "") -> int:
        """Dispatch spans whose callback name ends with the suffix."""
        total = 0
        for nid, _layer in self._dispatch_ids.values():
            if self.names[nid].endswith(qualname_suffix):
                total += int(self.stats[nid][0])
        return total

    def named(self, layer: str, path: str) -> Tuple[int, float]:
        """(count, total seconds) of a named span."""
        nid = self._ids.get(f"{layer}:{path}")
        if nid is None:
            return 0, 0.0
        count, _self, total = self.stats[nid]
        return int(count), total

    def self_by_layer(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS + (OTHER,)}
        for name, (_count, self_s, _total) in zip(self.names, self.stats):
            out[name.split(":", 1)[0]] += self_s
        return out

    def write(self, path_prefix: str) -> None:
        """Write kept spans (binary, struct-of-arrays) plus a JSON index
        of names and per-name counts/self/total seconds."""
        os.makedirs(os.path.dirname(path_prefix), exist_ok=True)
        kept = len(self.span_name)
        with open(path_prefix + ".bin", "wb") as fh:
            for arr in (self.span_index, self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
        meta = {
            "format": "struct of arrays, in order: span index in open "
                      "order (int32), name id (uint16), parent span index "
                      "(int32, -1 = root), start s, end s (float64, from "
                      "trace origin); records are stored in close order",
            "byteorder": sys.byteorder,
            "recorded": self.recorded,
            "kept": kept,
            "names": self.names,
            "per_name": {
                name: {"count": int(c), "self_s": s, "total_s": t}
                for name, (c, s, t) in zip(self.names, self.stats)
            },
        }
        with open(path_prefix + ".json", "w") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)
