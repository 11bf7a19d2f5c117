"""The benchmark's three workloads and how each run is measured.

Every workload pushes cells through the runner: ``run_jobs`` into a
fresh temporary ``ResultStore`` (the *cold* work), then *warm* replays
against the filled store, which must return every cell ``cached`` with
its cold result:

``packet_k4_websearch``
    presto, websearch trace, ``fat-tree:k=4`` (16 hosts), packet
    fidelity: the per-packet path (sim, net, host).  Cells run one at
    a time in this process.
``flow_k8_websearch``
    presto, websearch trace, ``fat-tree:k=8`` (128 hosts), flow
    fidelity: the fluid allocator at scale, and ``push_schedules`` in
    set-up.  Cells run one at a time in this process.
``flow_failover_sweep``
    the ``failover`` search preset's full 5x5x5 lattice, several seeds
    per setting, as ``run_search_cell(disrupt=True)`` jobs at flow
    fidelity on the preset's 2-tier Clos, in whole passes.

Everything runs in this one process (``run_jobs(jobs=1)``): on a host
with two vCPUs, pool workers beside the coordinating process measure
the scheduler as much as the program.

Host speed on a shared machine drifts by tens of percent within
seconds, so every time is taken with :mod:`perfbench.probe` running,
on its probe-free clock, and cold work (builds, cells) is reported at
the probe's reference speed.  The short measurements (set-up builds,
warm replays) are also taken in slices between the cold units, spread
over the whole run, and reported as medians (set-up) or 10th
percentiles (warm replays, at the speed of the probe's replay gauge).

The seed given to the benchmark picks every cell's ``TestbedConfig``
seed; the run length (``--seconds``) picks how many cells (or sweep
passes) a run holds, so one (seed, seconds) pair always runs the same
cells and yields the same digest.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import resource
import shutil
import statistics
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence

import repro.runner
from repro import TestbedConfig
from repro.runner import JobOutcome, JobSpec, ResultStore
from repro.runner.serialize import canonical_json
from repro.search.driver import PRESETS
from repro.search.fitness import run_search_cell
from repro.units import msec, usec

from perfbench.cells import build, fabric_cell
from perfbench.probe import (REPLAYS_PER_CHUNK, ReplayGauge, at_ref_speed,
                             clock, cpu, cpu_at_ref_speed, spent)

#: single-cell warm replays per run, split over its slices (~3 s of
#: host time)
WARM_REPLAYS = 24_000


@dataclass(frozen=True)
class CellPlan:
    topology: str
    fidelity: Optional[str]
    trace: str
    duration_ns: int
    drain_ns: int
    #: seconds of --seconds budgeted per cell: a run holds
    #: round(seconds / cell_s) cells
    cell_s: float
    #: dedicated set-up samples per slice, on top of each cell's build
    builds_per_slice: int


@dataclass(frozen=True)
class SweepPlan:
    seeds_per_setting: int
    #: lattice values used per knob (5 = the preset's full lattice)
    values_per_knob: int
    #: seconds of --seconds budgeted per cold pass
    pass_s: float
    builds_per_slice: int
    #: runner calls one cold pass is split into, with a slice after each
    parts: int


WORKLOADS: Dict[str, Dict[str, Any]] = {
    "packet_k4_websearch": {
        "full": CellPlan("fat-tree:k=4", None, "websearch", msec(6),
                         usec(1500), cell_s=3.0, builds_per_slice=12),
        "tiny": CellPlan("fat-tree:k=4", None, "websearch", msec(1),
                         msec(1), cell_s=1.0, builds_per_slice=1),
    },
    "flow_k8_websearch": {
        "full": CellPlan("fat-tree:k=8", "flow", "websearch", usec(500),
                         usec(1500), cell_s=2.5, builds_per_slice=0),
        "tiny": CellPlan("fat-tree:k=8", "flow", "websearch", usec(300),
                         msec(1), cell_s=2.0, builds_per_slice=0),
    },
    "flow_failover_sweep": {
        "full": SweepPlan(seeds_per_setting=4, values_per_knob=5,
                          pass_s=30.0, builds_per_slice=4, parts=5),
        "tiny": SweepPlan(seeds_per_setting=2, values_per_knob=2,
                          pass_s=1.0, builds_per_slice=1, parts=2),
    },
}


@dataclass
class Measurement:
    """What one run measured; ``metrics`` are the end-to-end values."""

    metrics: Dict[str, float]
    digest: str
    attempted: int
    failed: int
    problems: List[str]
    #: inputs the traced run and the per-layer metrics need
    extras: Dict[str, Any]


def n_units(seconds: float, unit_s: float) -> int:
    return max(1, int(round(seconds / unit_s)))


def digest_of(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def peak_rss_mb() -> float:
    """Peak resident set of this process (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class ColdUnit:
    """One cold runner call; times at the probe's reference speed."""

    wall_s: float
    cpu_s: float
    #: ``elapsed_s`` of each executed cell, less probe chunks
    elapsed: List[float]
    #: the same, as measured
    raw_elapsed: List[float]


class Session:
    """One run's traffic through the runner: cold units, with slices of
    set-up builds and warm replays taken between them."""

    def __init__(self, work_dir: str, setup_cfg: TestbedConfig,
                 builds_per_slice: int, warm_slices: int):
        self.work_dir = work_dir
        self.setup_cfg = setup_cfg
        self.builds_per_slice = builds_per_slice
        self.replays_per_slice = -(-WARM_REPLAYS // warm_slices)
        self.units: List[ColdUnit] = []
        #: set-up samples and single-cell warm replay samples (s)
        self.builds: List[float] = []
        self.warm: List[float] = []
        self.retries = self.cached = self.lookups = 0
        self.failed = set()
        self.problems: List[str] = []

    def fail(self, key: str, problem: str) -> None:
        self.failed.add(key)
        self.problems.append(f"{key}: {problem}")

    @contextmanager
    def store(self) -> Iterator[ResultStore]:
        """An empty result store, removed afterwards."""
        root = tempfile.mkdtemp(prefix="store-", dir=self.work_dir)
        try:
            yield ResultStore(root)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def cold(self, store: ResultStore, specs: List[JobSpec],
             keys: List[str]) -> List[JobOutcome]:
        """Run ``specs`` into ``store``.  Each finished cell is marked
        on the probe-free clock, so its elapsed time can be cleared of
        probe chunks and scaled by the host speed while it ran."""
        marks = []

        def on_log(message: str) -> None:
            if message.startswith("["):  # "[done/total] status ..."
                marks.append((clock(), spent()))

        gc.collect()
        cpu0 = cpu()
        t0 = clock()
        start = (t0, spent())
        outcomes = repro.runner.run_jobs(specs, jobs=1, store=store,
                                         log=on_log)
        t1 = clock()
        elapsed, raw = [], []
        for outcome, (t_prev, s_prev), (t_done, s_done) in zip(
                outcomes, [start] + marks, marks):
            if outcome.status == "ok":
                raw.append(outcome.elapsed_s)
                elapsed.append(at_ref_speed(
                    outcome.elapsed_s - (s_done - s_prev), t_prev, t_done))
        self.units.append(ColdUnit(
            at_ref_speed(t1 - t0, t0, t1),
            cpu_at_ref_speed(cpu() - cpu0, t0, t1), elapsed, raw))
        self.lookups += len(specs)
        self.retries += sum(max(0, o.attempts - 1) for o in outcomes)
        for key, outcome in zip(keys, outcomes):
            if outcome.status != "ok":
                self.fail(key, f"{outcome.status}: {outcome.error}")
        return outcomes

    def slice(self, store: Optional[ResultStore] = None,
              cold: Sequence[JobOutcome] = (),
              keys: Sequence[str] = ()) -> None:
        """Set-up builds, then warm replays, one cell per runner call, of
        the cells that ran cold into ``store``; every replay must be
        cached and equal to the cold result."""
        for _ in range(self.builds_per_slice):
            gc.collect()
            t0 = clock()
            build(self.setup_cfg)
            t1 = clock()
            self.builds.append(at_ref_speed(t1 - t0, t0, t1))
        done = [(key, o) for key, o in zip(keys, cold) if o.status == "ok"]
        if not done:
            return
        gc.collect()
        gauge = ReplayGauge(self.work_dir)
        replays = []
        for i in range(self.replays_per_slice):
            if i % REPLAYS_PER_CHUNK == 0:
                gauge.sample()
            key, first = done[i % len(done)]
            t0 = clock()
            (again,) = repro.runner.run_jobs([first.spec], jobs=1,
                                             store=store)
            replays.append(clock() - t0)
            self.lookups += 1
            if again.status != "cached":
                self.fail(key, f"warm replay returned {again.status}")
            elif again.result != first.result:
                self.fail(key, "warm replay returned a result unequal to "
                               "the cold one")
            else:
                self.cached += 1
        scale = gauge.scale()
        self.warm += [t * scale for t in replays]

    def runner_extras(self) -> Dict[str, Any]:
        elapsed = [e for u in self.units for e in u.elapsed]
        return {
            "runner_cached": self.cached,
            "runner_executed": len(elapsed),
            "runner_retries": self.retries,
            "runner_lookups": self.lookups,
            "cell_p98_ms": percentile(elapsed, 0.98) * 1e3,
        }


# --- cell workloads ----------------------------------------------------------


def cell_specs(plan: CellPlan, seed: int, n_cells: int,
               inject_failure: bool) -> List[JobSpec]:
    specs = []
    for i in range(n_cells):
        cfg = TestbedConfig(scheme="presto", topology=plan.topology,
                            seed=seed * 100 + i, fidelity=plan.fidelity)
        specs.append(JobSpec.make(
            fabric_cell, cfg=cfg, label=f"cell{i}/seed{cfg.seed}",
            workload=plan.trace, duration_ns=plan.duration_ns,
            drain_ns=plan.drain_ns))
    if inject_failure:
        # an unknown trace profile raises inside the cell
        specs.append(replace(specs[0], label="injected-failure", kwargs={
            **specs[0].kwargs, "workload": "no-such-trace"}))
    return specs


def check_cell_stats(stats: Dict[str, Any], flow: bool) -> List[str]:
    problems = []
    if stats["flows_started"] <= 0:
        problems.append("no flows started")
    if not 0 < stats["flows_completed"] <= stats["flows_started"]:
        problems.append(
            f"flows completed {stats['flows_completed']} outside "
            f"(0, {stats['flows_started']}]")
    if stats["events"] <= 0:
        problems.append("no events executed")
    if flow and stats.get("reallocs", 0) <= 0:
        problems.append("no fluid reallocations")
    if not flow and stats["pkts_tx"] <= 0:
        problems.append("no packets transmitted")
    return problems


def run_cells(plan: CellPlan, seed: int, seconds: float, work_dir: str,
              inject_failure: bool = False) -> Measurement:
    specs = cell_specs(plan, seed, n_units(seconds, plan.cell_s),
                       inject_failure)
    keys = [f"cell{i}" for i in range(len(specs))]
    session = Session(work_dir, specs[0].cfg, plan.builds_per_slice,
                      warm_slices=len(specs))
    outcomes: List[JobOutcome] = []
    with session.store() as store:
        session.slice()
        for key, spec in zip(keys, specs):
            outcomes += session.cold(store, [spec], [key])
            session.slice(store, outcomes, keys)

    results = [o.result if o.status == "ok" else None for o in outcomes]
    for key, result in zip(keys, results):
        if result is not None:
            for problem in check_cell_stats(result["stats"],
                                            plan.fidelity == "flow"):
                session.fail(key, problem)
    stats = [r["stats"] for r in results if r is not None]
    timing = [r["timing"] for r in results if r is not None]
    units = session.units
    elapsed = [e for u in units for e in u.elapsed]
    metrics = {
        "setup_s": median(session.builds + [t["setup_s"] for t in timing]),
        # the mean, not the median: a cell's run time varies ~3x with
        # the elephants its seed draws, and the mean averages over them
        "run_s": statistics.fmean([t["run_s"] for t in timing]),
        "cpu_s": sum(u.cpu_s for u in units),
        "peak_rss_mb": peak_rss_mb(),
        "sweep_cold_s": sum(u.wall_s for u in units),
        "cell_p50_ms": median(elapsed) * 1e3,
        "warm_us_per_cell": percentile(session.warm, 0.10) * 1e6,
    }
    totals = {key: sum(s.get(key, 0) for s in stats)
              for key in ("flows_completed", "events", "reallocs", "pkts_tx",
                          "drops", "gro_merged_pkts", "tcp_segments",
                          "tcp_retx_bytes", "tcp_timeouts")}
    extras = {
        "kind": "cells",
        "cells": len(specs),
        "mice_fct_p50_us": median(
            [s["mice_fct"]["p50"] / 1e3 for s in stats
             if s["mice_fct"].get("p50") is not None]),
        "runner_overhead_ms_per_cell": (
            (metrics["sweep_cold_s"] - sum(elapsed)) / len(specs) * 1e3),
        "run_total_s": sum(t["run_s"] for t in timing),
        "raw_run_s": statistics.fmean([t["raw_run_s"] for t in timing]),
        **totals,
        **session.runner_extras(),
    }
    return Measurement(
        metrics=metrics,
        digest=digest_of([r["stats"] if r else None for r in results]),
        attempted=len(specs),
        failed=len(session.failed),
        problems=session.problems,
        extras=extras,
    )


# --- the failover sweep -------------------------------------------------------


def sweep_specs(plan: SweepPlan, seed: int,
                inject_failure: bool) -> List[JobSpec]:
    settings = replace(PRESETS["failover"], fidelity="flow")
    kwargs = settings.cell_kwargs()
    specs = []
    knobs = [range(min(plan.values_per_knob, len(values)))
             for values in settings.space.lattices()]
    # every cell draws its own traffic, so a run's times average over
    # hundreds of draws rather than a handful
    cell_seeds = itertools.count(seed * 10_000)
    for genome in itertools.product(*knobs):
        for cell_seed in itertools.islice(cell_seeds,
                                          plan.seeds_per_setting):
            specs.append(JobSpec.make(
                run_search_cell, cfg=settings.config(genome, cell_seed),
                label=f"failover/{'-'.join(map(str, genome))}/seed{cell_seed}",
                **kwargs))
    if inject_failure:
        # the Clos link the disruption takes down does not exist on a
        # fat-tree, so this cell raises
        specs.append(replace(
            specs[0], label="injected-failure",
            cfg=replace(specs[0].cfg, topology="fat-tree:k=4")))
    return specs


def merged(units: Sequence[ColdUnit]) -> ColdUnit:
    """One pass's cold units as one."""
    return ColdUnit(sum(u.wall_s for u in units), sum(u.cpu_s for u in units),
                    [e for u in units for e in u.elapsed],
                    [e for u in units for e in u.raw_elapsed])


def run_sweep(plan: SweepPlan, seed: int, seconds: float, work_dir: str,
              inject_failure: bool = False) -> Measurement:
    specs = sweep_specs(plan, seed, inject_failure)
    n_passes = n_units(seconds, plan.pass_s)
    session = Session(work_dir, specs[0].cfg, plan.builds_per_slice,
                      warm_slices=n_passes * plan.parts)
    session.slice()
    passes = []
    part = -(-len(specs) // plan.parts)
    for p in range(n_passes):
        keys = [f"pass{p}/cell{i}" for i in range(len(specs))]
        outcomes: List[JobOutcome] = []
        with session.store() as store:
            for lo in range(0, len(specs), part):
                outcomes += session.cold(store, specs[lo:lo + part],
                                         keys[lo:lo + part])
                session.slice(store, outcomes, keys)
        passes.append([o.result if o.status == "ok" else None
                       for o in outcomes])
    first = passes[0]
    for i, result in enumerate(first):
        if result is not None and not result.get("n_mice"):
            session.fail(f"pass0/cell{i}", "no mice completed")
    diverged = sum(results != first for results in passes[1:])
    if diverged:
        session.problems.append(
            f"{diverged} pass(es) returned results unequal to pass 0's "
            "on the same specs")

    units = [merged(session.units[i:i + plan.parts])
             for i in range(0, len(session.units), plan.parts)]
    ok = [r for r in first if r is not None]
    metrics = {
        "setup_s": median(session.builds),
        "run_s": median([sum(u.elapsed) for u in units]),
        "cpu_s": median([u.cpu_s for u in units]),
        "peak_rss_mb": peak_rss_mb(),
        "sweep_cold_s": median([u.wall_s for u in units]),
        "cell_p50_ms": median([e for u in units for e in u.elapsed]) * 1e3,
        "warm_us_per_cell": percentile(session.warm, 0.10) * 1e6,
    }
    extras = {
        "kind": "sweep",
        "cells": len(specs) * n_passes,
        "flows_completed": sum(r["n_mice"] for r in ok) * n_passes,
        "mice_fct_p50_us": median([r["mean_mice_fct_ns"] / 1e3 for r in ok
                                   if r["mean_mice_fct_ns"] is not None]),
        "runner_overhead_ms_per_cell": median(
            [(u.wall_s - sum(u.elapsed)) / len(specs) * 1e3
             for u in units]),
        # cells build their own Testbed inside the job: whole cell time
        "run_total_s": sum(sum(u.elapsed) for u in units),
        "raw_run_s": median([sum(u.raw_elapsed) for u in units]),
        **session.runner_extras(),
    }
    return Measurement(
        metrics=metrics,
        digest=digest_of(first),
        attempted=len(specs) * n_passes,
        failed=len(session.failed) + diverged,
        problems=session.problems,
        extras=extras,
    )


def run_workload(name: str, seed: int, seconds: float, work_dir: str,
                 tiny: bool = False,
                 inject_failure: bool = False) -> Measurement:
    plan = WORKLOADS[name]["tiny" if tiny else "full"]
    if isinstance(plan, SweepPlan):
        return run_sweep(plan, seed, seconds, work_dir, inject_failure)
    return run_cells(plan, seed, seconds, work_dir, inject_failure)
