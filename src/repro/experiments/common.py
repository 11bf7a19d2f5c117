"""Shared measurement scaffolding for the paper experiments.

Every experiment follows the same skeleton: build a testbed per scheme,
start elephants (and optionally mice / RTT probes), warm up so windows
converge, measure over a window, and report.  ``ElephantRun`` bundles
that skeleton; experiment modules parameterize it.

Scale note: the paper runs 10 s x 20 trials at 10 Gbps.  Packet-level
simulation in Python makes that ~10^10 events, so defaults here use
the same rates but tens-of-ms windows and a handful of seeds; every
knob is exposed for longer runs (see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import Testbed, TestbedConfig
from repro.metrics.collectors import LossAccountant, ThroughputMeter
from repro.metrics.stats import jain_fairness, mean, percentile
from repro.telemetry import TelemetryConfig, per_cell_telemetry
from repro.units import KB, msec, usec

DEFAULT_WARM_NS = msec(15)
DEFAULT_MEASURE_NS = msec(30)
START_JITTER_NS = usec(500)


@dataclass
class SweepOptions:
    """The execution + passthrough options every ``run_*`` sweep shares
    — one definition instead of the seven keyword arguments previously
    copy-pasted across ``scalability.py`` / ``oversub.py`` /
    ``synthetic.py`` (and now ``fabric_sweep.py``).

    ``cell_kwargs`` centralizes the hash-preserving rule: per-cell
    telemetry joins a JobSpec's kwargs **only when set**, so default
    sweeps keep their historical content hashes and the result-store
    cache stays warm.  ``fidelity`` (and ``topology``, for sweeps that
    take one) ride inside each cell's *config*, where their defaults
    normalize to the omitted-``None`` form for the same reason.
    """

    jobs: int = 1
    store: Optional[object] = None  # ResultStore (untyped: import cycle)
    force: bool = False
    timeout_s: Optional[float] = None
    retries: int = 1
    log: Optional[Callable[[str], None]] = None
    telemetry: Optional[TelemetryConfig] = None
    fidelity: Optional[str] = None
    #: sweep-coordinator base URL (repro.service); None = run locally
    service: Optional[str] = None

    def cell_kwargs(self, label: str) -> Dict[str, Any]:
        """Kwargs to merge into one cell's JobSpec — empty when every
        option is at its default, so spec hashes do not move."""
        if self.telemetry is None:
            return {}
        return {"telemetry": per_cell_telemetry(self.telemetry, label)}

    def runner_kwargs(self) -> Dict[str, Any]:
        """The options as ``run_jobs`` keyword arguments."""
        return dict(jobs=self.jobs, store=self.store, force=self.force,
                    timeout_s=self.timeout_s, retries=self.retries,
                    log=self.log, service=self.service)

    def execute(self, specs: Sequence[Any]) -> List[Any]:
        """Fan the specs through the runner and return their results in
        spec order."""
        from repro.runner import collect_results, run_jobs

        return collect_results(run_jobs(specs, **self.runner_kwargs()))


def int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type=`` for integer flags with a floor; argparse
    names the flag in the error and exits with status 2."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


def _positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected seconds, got {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def execution_flags() -> argparse.ArgumentParser:
    """The execution flags of every sweep-running CLI, declared once as
    an argparse parent (``parents=[execution_flags()]``); turn the
    parsed namespace into options with :func:`sweep_options`."""
    parser = argparse.ArgumentParser(add_help=False)
    group = parser.add_argument_group("execution")
    group.add_argument(
        "--jobs", type=int_at_least(1), default=None, metavar="N",
        help="worker processes (default: os.cpu_count(); 1 = in-process "
             "serial)")
    group.add_argument(
        "--force", action="store_true",
        help="invalidate the cached results of these jobs and re-run")
    group.add_argument(
        "--timeout", type=_positive_seconds, default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout; a hung job's worker is killed "
             "and the job charged one attempt")
    group.add_argument(
        "--retries", type=int_at_least(0), default=1, metavar="N",
        help="re-runs of a job that raises, loses its worker or times "
             "out before it reports failed (default: 1; see "
             "EXPERIMENTS.md 'Retries: one failure, one charge')")
    group.add_argument(
        "--service", default=None, metavar="URL",
        help="run the jobs on a sweep coordinator (python -m "
             "repro.service coordinator) instead of local workers, "
             "e.g. http://127.0.0.1:8642")
    group.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="result-store root (default: $REPRO_RESULTS_DIR or "
             "benchmarks/results); 'none' runs without a store")
    return parser


def sweep_options(
    ns: argparse.Namespace, log: Optional[Callable[[str], None]] = None
) -> SweepOptions:
    """The :class:`SweepOptions` (and result store) that a namespace
    parsed with :func:`execution_flags` asks for."""
    from repro.runner.store import open_store

    return SweepOptions(
        jobs=ns.jobs, store=open_store(ns.results_dir), force=ns.force,
        timeout_s=ns.timeout, retries=ns.retries, log=log,
        service=ns.service)


@dataclass
class RunResult:
    """Everything one (scheme, seed) elephant run produced."""

    scheme: str
    seed: int
    flow_rates_bps: Dict[int, float]
    per_pair_rates_bps: List[float]
    loss_rate: float
    rtts_ns: List[int] = field(default_factory=list)
    mice_fcts_ns: List[int] = field(default_factory=list)
    #: telemetry snapshot of the run (None when telemetry is off; the
    #: field is then omitted from serialized output entirely, keeping
    #: telemetry-off results byte-identical to older records)
    metrics: Optional[Dict] = field(
        default=None, metadata={"omit_if_none": True})

    @property
    def mean_rate_bps(self) -> float:
        return mean(self.per_pair_rates_bps)

    @property
    def fairness(self) -> float:
        return jain_fairness(self.per_pair_rates_bps)


def run_elephant_workload(
    cfg: TestbedConfig,
    pairs: Sequence[Tuple[int, int]],
    warm_ns: int = DEFAULT_WARM_NS,
    measure_ns: int = DEFAULT_MEASURE_NS,
    probe_pairs: Sequence[Tuple[int, int]] = (),
    probe_interval_ns: int = msec(1),
    mice_pairs: Sequence[Tuple[int, int]] = (),
    mice_size: int = 50 * KB,
    mice_interval_ns: int = msec(5),
    telemetry: Optional[TelemetryConfig] = None,
) -> RunResult:
    """One trial: elephants on ``pairs`` (+ optional probes and mice),
    throughput measured over [warm, warm+measure]."""
    tb = Testbed(cfg, telemetry=telemetry)
    rng = tb.streams.stream("starts")
    apps = []
    meter = ThroughputMeter()
    for src, dst in pairs:
        app = tb.add_elephant(src, dst, start_ns=rng.randrange(START_JITTER_NS))
        apps.append(app)
        meter.track(app)
    probes = [
        tb.add_probe(src, dst, interval_ns=probe_interval_ns, start_ns=warm_ns // 2)
        for src, dst in probe_pairs
    ]
    mice = [
        tb.add_mice(src, dst, size_bytes=mice_size, interval_ns=mice_interval_ns,
                    start_ns=warm_ns // 2)
        for src, dst in mice_pairs
    ]
    loss = LossAccountant(tb.topo, tb.hosts)
    tb.run(warm_ns)
    meter.mark_start(tb.sim.now)
    loss.mark_start()
    tb.run(warm_ns + measure_ns)
    meter.mark_end(tb.sim.now)

    rates = meter.flow_rates_bps()
    per_pair = [meter.transfer_rate_bps(app, rates) for app in apps]
    snapshot = tb.telemetry.snapshot() if tb.telemetry.enabled else None
    tb.telemetry.export_trace()
    return RunResult(
        scheme=cfg.scheme,
        seed=cfg.seed,
        flow_rates_bps=rates,
        per_pair_rates_bps=per_pair,
        loss_rate=loss.loss_rate(),
        rtts_ns=[r for p in probes for r in p.rtts_ns],
        mice_fcts_ns=[f for m in mice for f in m.fcts_ns],
        metrics=snapshot,
    )


def averaged_over_seeds(
    cfg: TestbedConfig,
    pairs_fn,
    seeds: Sequence[int],
    **kwargs,
) -> List[RunResult]:
    """Run the same workload under several seeds.  ``pairs_fn(cfg, seed)``
    may vary pairs per seed (random workloads)."""
    results = []
    for seed in seeds:
        seeded = replace(cfg, seed=seed)
        results.append(run_elephant_workload(seeded, pairs_fn(seeded, seed), **kwargs))
    return results


def fct_percentiles(fcts_ns: Sequence[int]) -> Dict[str, float]:
    """The paper's FCT report: p50/p90/p99/p99.9 in milliseconds."""
    if not fcts_ns:
        return {}
    return {
        "p50": percentile(fcts_ns, 50) / 1e6,
        "p90": percentile(fcts_ns, 90) / 1e6,
        "p99": percentile(fcts_ns, 99) / 1e6,
        "p99.9": percentile(fcts_ns, 99.9) / 1e6,
    }


def normalize_to(baseline: Dict[str, float], other: Dict[str, float]) -> Dict[str, float]:
    """Relative change versus a baseline, as the paper's Tables 1/2
    (-0.56 means 56% shorter FCT than the baseline)."""
    out = {}
    for key, base in baseline.items():
        if key in other and base > 0:
            out[key] = (other[key] - base) / base
    return out
