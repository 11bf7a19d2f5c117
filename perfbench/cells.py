"""The benchmark's fabric cell: one trace-driven Testbed run.

:func:`fabric_cell` is a module-level job function so the runner can
hash, store and replay it like any experiment cell.  It follows
``repro.experiments.fabric_sweep.run_fabric_cell`` step for step —
build, tree oracle, trace workload, offered load plus drain — through
public APIs only, and additionally returns the counters the benchmark
digests plus the host time of each phase, at the reference speed of
:mod:`perfbench.probe` (as measured when no probe runs).
"""

from __future__ import annotations

import gc
from typing import Any, Dict

from repro import Testbed, TestbedConfig
from repro.metrics.streaming import StreamingQuantiles
from repro.net.routing import validate_trees
from repro.workloads.tracedriven import TraceWorkload, trace_profile

from perfbench.probe import at_ref_speed, clock


def build(cfg: TestbedConfig) -> Testbed:
    """Set-up as the benchmark times it: Testbed build plus the
    spanning-tree oracle."""
    tb = Testbed(cfg)
    validate_trees(tb.topo, tb.controller.trees)
    return tb


def counters(tb: Testbed) -> Dict[str, int]:
    """Model outputs read from public attributes after a run.  Flow
    fidelity has no packets, so its packet counters are zero."""
    out = {"pkts_tx": 0, "drops": 0, "gro_merged_pkts": 0,
           "tcp_segments": 0, "tcp_retx_bytes": 0, "tcp_timeouts": 0}
    engine = getattr(tb, "engine", None)
    if engine is not None:
        out["reallocs"] = engine.reallocs
        return out
    for link in tb.topo.links:
        for port in link.ports:
            out["pkts_tx"] += port.tx_pkts
            out["drops"] += port.queue.dropped_pkts
    for host in tb.hosts:
        out["drops"] += host.nic.ring_drops
        out["gro_merged_pkts"] += host.gro.merged_pkts
        for sender in host.senders.values():
            out["tcp_retx_bytes"] += sender.bytes_retx
            out["tcp_timeouts"] += sender.timeouts
        for receiver in host.receivers.values():
            out["tcp_segments"] += receiver.segments_received
    return out


def fabric_cell(cfg: TestbedConfig, workload: str, duration_ns: int,
                drain_ns: int) -> Dict[str, Any]:
    """Offer ``duration_ns`` of a trace workload, then drain.

    Returns ``{"stats": ..., "timing": ...}``: ``stats`` are simulated
    outputs only (deterministic per config), ``timing`` is host time.
    """
    # Testbeds are reference cycles: start from a heap without the
    # previous cell's, so its collection is not charged to this cell.
    gc.collect()
    t0 = clock()
    tb = build(cfg)
    t1 = clock()
    mice = StreamingQuantiles()
    elephants = StreamingQuantiles()
    sizes, interarrivals = trace_profile(workload)
    wl = TraceWorkload(
        tb, tb.streams.stream(f"fabric-{workload}"),
        sizes=sizes, interarrivals=interarrivals, stop_ns=duration_ns,
        mice_sink=mice.add,
        elephant_sink=lambda size, fct: elephants.add(fct),
    )
    wl.start()
    t2 = clock()
    tb.run(duration_ns + drain_ns)
    t3 = clock()
    stats = {
        "flows_started": wl.flows_started,
        "flows_completed": wl.flows_completed,
        "mice_fct": mice.summary(),
        "elephant_fct": elephants.summary(),
        "events": tb.sim.events_executed,
    }
    stats.update(counters(tb))
    return {
        "stats": stats,
        "timing": {"setup_s": at_ref_speed(t1 - t0, t0, t1),
                   "run_s": at_ref_speed(t3 - t2, t2, t3),
                   "raw_run_s": t3 - t2},
    }
