"""Datacenter-scale fabric sweep: trace + incast workloads on fat-trees.

The paper's testbed tops out at 16 hosts; this sweep is the scale-out
counterpart, driving published trace workloads (web-search / data-
mining flow-size mixes) and an incast fan-in pattern over k-ary
fat-tree and leaf-spine fabrics built from :class:`TopologySpec` —
16 hosts at k=4 up to 128 at k=8 — normally at flow fidelity, where a
128-host run is tractable.

The unit of work is one (topology, workload, scheme, seed) simulation,
:func:`run_fabric_cell`, submitted through the parallel runner like
every other sweep.  FCT populations at this scale are too large to
keep as lists, so cells aggregate on the fly with the bounded-memory
collectors in :mod:`repro.metrics.streaming` and return summaries plus
a worst-FCT top-k.

``validate=True`` arms the spanning-tree oracle inside each cell:
:func:`repro.net.routing.validate_trees` checks every tree reaches
every host and that trunk links stay disjoint across trees before any
traffic is offered.  It also arms the engine's always-on invariants
(``TestbedConfig.validate``) for the cell's run — at flow fidelity the
capacity, byte-ledger and path-reuse checks — without changing the
job's config or its store hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import SweepOptions
from repro.experiments.harness import Testbed, TestbedConfig
from repro.metrics.streaming import StreamingQuantiles, TopK
from repro.net.fabrics import TopologySpec, as_spec
from repro.net.routing import validate_trees
from repro.runner import JobSpec, ResultStore
from repro.telemetry import TelemetryConfig
from repro.units import MB, msec
from repro.workloads.tracedriven import (
    IncastWorkload,
    TraceWorkload,
    trace_profile,
)

DEFAULT_TOPOLOGIES = ("fat-tree:k=4", "fat-tree:k=8")
DEFAULT_WORKLOADS = ("websearch", "datamining", "incast")
DEFAULT_SCHEMES = ("ecmp", "presto")
DEFAULT_DURATION_NS = msec(30)

TRACE_WORKLOADS = ("websearch", "datamining", "kandula")
WORKLOADS = TRACE_WORKLOADS + ("incast",)


@dataclass
class FabricCellResult:
    """One (topology, workload, scheme, seed) cell's summaries."""

    scheme: str
    topology: str
    workload: str
    seed: int
    duration_ns: int
    flows_started: int
    flows_completed: int
    #: p50/p90/p99/p99.9 + count/mean/min/max of mice FCTs (ns);
    #: for incast, of request FCTs
    fct_summary: Dict[str, Optional[float]] = field(default_factory=dict)
    #: summary of elephant FCTs (ns); empty for incast
    elephant_summary: Dict[str, Optional[float]] = field(default_factory=dict)
    #: the k worst FCTs as (fct_ns, size_bytes) pairs, largest first
    worst_fcts: List[Tuple[float, Optional[int]]] = field(default_factory=list)
    #: True when the spanning-tree oracle ran (and passed) in this cell
    trees_validated: bool = False
    metrics: Optional[Dict] = field(
        default=None, metadata={"omit_if_none": True})


def fabric_config(
    topology: str,
    scheme: str,
    seed: int,
    fidelity: Optional[str] = "flow",
) -> TestbedConfig:
    """One cell's testbed config.  Flow fidelity is the default: a
    128-host fat-tree is far past what packet fidelity sustains."""
    return TestbedConfig(
        scheme=scheme, topology=topology, seed=seed, fidelity=fidelity,
    )


def run_fabric_cell(
    cfg: TestbedConfig,
    workload: str,
    duration_ns: int = DEFAULT_DURATION_NS,
    load_scale: float = 1.0,
    fanin: int = 8,
    request_bytes: int = 1 * MB,
    validate: bool = False,
    drain_ns: int = msec(5),
    telemetry: Optional[TelemetryConfig] = None,
) -> FabricCellResult:
    """One (topology, workload, scheme, seed) trial — the picklable
    job unit.  Offers ``duration_ns`` of load, then a ``drain_ns``
    grace window for in-flight transfers to finish."""
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown fabric workload {workload!r}; pick from {WORKLOADS}")
    if validate:
        cfg = replace(cfg, validate=True)
    tb = Testbed(cfg, telemetry=telemetry)
    trees_validated = False
    if validate:
        validate_trees(tb.topo, tb.controller.trees)
        trees_validated = True

    fcts = StreamingQuantiles()
    elephants = StreamingQuantiles()
    worst = TopK(16)
    rng = tb.streams.stream(f"fabric-{workload}")
    if workload == "incast":
        wl = IncastWorkload(
            tb, rng, fanin=fanin, request_bytes=request_bytes,
            stop_ns=duration_ns,
            sink=lambda fct: (fcts.add(fct), worst.add(fct, None)),
        )
    else:
        sizes, interarrivals = trace_profile(workload)
        wl = TraceWorkload(
            tb, rng, load_scale=load_scale,
            sizes=sizes, interarrivals=interarrivals,
            stop_ns=duration_ns,
            mice_sink=lambda fct: (fcts.add(fct), worst.add(fct, None)),
            elephant_sink=lambda size, fct: (
                elephants.add(fct), worst.add(fct, size)),
        )
    wl.start()
    tb.run(duration_ns + drain_ns)

    if workload == "incast":
        started, completed = wl.requests_started, wl.requests_completed
    else:
        started, completed = wl.flows_started, wl.flows_completed
    snapshot = tb.telemetry.snapshot() if tb.telemetry.enabled else None
    tb.telemetry.export_trace()
    return FabricCellResult(
        scheme=cfg.scheme,
        topology=cfg.topology_spec().cli(),
        workload=workload,
        seed=cfg.seed,
        duration_ns=duration_ns,
        flows_started=started,
        flows_completed=completed,
        fct_summary=fcts.summary(),
        elephant_summary=elephants.summary(),
        worst_fcts=worst.items(),
        trees_validated=trees_validated,
        metrics=snapshot,
    )


def fabric_specs(
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    seeds: Sequence[int] = (1, 2),
    duration_ns: int = DEFAULT_DURATION_NS,
    load_scale: float = 1.0,
    validate: bool = False,
    telemetry: Optional[TelemetryConfig] = None,
    fidelity: Optional[str] = "flow",
) -> List[JobSpec]:
    """The full grid as runner jobs, ordered topology > workload >
    scheme > seed.  Topology strings are validated up front so a typo
    fails before any job is queued."""
    for topology in topologies:
        as_spec(topology)
    opts = SweepOptions(telemetry=telemetry, fidelity=fidelity)
    specs = []
    for topology in topologies:
        slug = as_spec(topology).slug()
        for workload in workloads:
            for scheme in schemes:
                for seed in seeds:
                    label = f"fabric/{slug}/{workload}/{scheme}/seed{seed}"
                    specs.append(JobSpec.make(
                        run_fabric_cell,
                        cfg=fabric_config(topology, scheme, seed, fidelity),
                        label=label,
                        workload=workload,
                        duration_ns=duration_ns,
                        load_scale=load_scale,
                        validate=validate,
                        **opts.cell_kwargs(label),
                    ))
    return specs


def run_fabric_sweep(
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    seeds: Sequence[int] = (1, 2),
    duration_ns: int = DEFAULT_DURATION_NS,
    load_scale: float = 1.0,
    validate: bool = False,
    *,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    log=None,
    telemetry: Optional[TelemetryConfig] = None,
    fidelity: Optional[str] = "flow",
    service: Optional[str] = None,
) -> Dict[Tuple[str, str, str], List[FabricCellResult]]:
    """The full fabric grid, fanned out through the runner.  Keys are
    (topology CLI string, workload, scheme); values are the per-seed
    cell results."""
    opts = SweepOptions(jobs=jobs, store=store, force=force,
                        timeout_s=timeout_s, retries=retries, log=log,
                        telemetry=telemetry, fidelity=fidelity,
                        service=service)
    specs = fabric_specs(topologies, workloads, schemes, seeds, duration_ns,
                         load_scale, validate, telemetry=telemetry,
                         fidelity=fidelity)
    runs = opts.execute(specs)
    grid: Dict[Tuple[str, str, str], List[FabricCellResult]] = {}
    it = iter(runs)
    for topology in topologies:
        key_topo = as_spec(topology).cli()
        for workload in workloads:
            for scheme in schemes:
                grid[(key_topo, workload, scheme)] = [
                    next(it) for _ in seeds]
    return grid
