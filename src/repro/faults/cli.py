"""``python -m repro.faults`` — chaos soak + dynamic failure timelines.

Commands::

    python -m repro.faults soak --cases 20 --seed 0 --jobs 4
    python -m repro.faults soak --cases 1 --seed 7 --jobs 1 --results-dir none
    python -m repro.faults fig17 --workloads L1->L4 --seeds 1,2

``soak`` samples random self-restoring fault schedules, runs each
against a live testbed through :mod:`repro.runner` (cached in the
result store, so re-runs resume), and checks the conservation-law
invariants after every case.  Exit status is non-zero if any case
violates an invariant — CI-friendly.

``fig17`` runs the continuous symmetry -> failover -> weighted
timeline per workload and prints the per-phase means plus convergence
numbers from the single run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.experiments.common import execution_flags, sweep_options


def _csv_ints(text: Optional[str]) -> Sequence[int]:
    return tuple(int(s) for s in (text or "").split(",") if s)


def _csv_strs(text: Optional[str]) -> Sequence[str]:
    return tuple(s for s in (text or "").split(",") if s)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Fault injection: chaos soak and dynamic failure runs.",
    )
    sub = parser.add_subparsers(dest="command")

    soak = sub.add_parser(
        "soak", parents=[execution_flags()],
        help="random fault schedules x seeds, invariants after each")
    soak.add_argument("--cases", type=int, default=20, metavar="N",
                      help="number of random (schedule, seed) cases")
    soak.add_argument("--seed", type=int, default=0,
                      help="base seed all cases derive from")
    soak.add_argument("--max-faults", type=int, default=2,
                      help="max composite faults per schedule")
    soak.add_argument("--topology", default=None, metavar="SPEC",
                      help="fabric under chaos, e.g. 'fat-tree:k=4' "
                           "(default: the paper's 16-host Clos)")
    soak.add_argument("--window-ms", type=float, default=40.0,
                      help="fault window (all faults restored inside it)")
    soak.add_argument("--deadline-ms", type=float, default=500.0,
                      help="horizon by which flows + control plane must "
                           "be done and the sim quiesced")
    soak.add_argument("--quiet", action="store_true",
                      help="suppress per-case progress lines")

    fig = sub.add_parser(
        "fig17", help="continuous symmetry->failover->weighted run(s)")
    fig.add_argument("--workloads", default=None,
                     help="comma-separated workload subset")
    fig.add_argument("--seeds", default="1,2", help="comma-separated seeds")
    fig.add_argument("--warm-ms", type=float, default=15.0)
    fig.add_argument("--measure-ms", type=float, default=30.0,
                     help="per-phase measurement window, in simulated ms")
    fig.add_argument(
        "--fidelity", choices=("packet", "flow"), default=None,
        help="simulation fidelity: packet (default) or the fluid "
             "flow-level engine")
    return parser


def _cmd_soak(ns: argparse.Namespace) -> int:
    from repro.faults.soak import run_soak
    from repro.experiments.harness import format_table
    from repro.units import msec

    if ns.topology is not None:
        from repro.net.fabrics import as_spec

        try:
            as_spec(ns.topology)
        except ValueError as exc:
            print(f"bad --topology: {exc}", file=sys.stderr)
            return 2
    log = None if ns.quiet else (lambda msg: print(msg, file=sys.stderr))
    report = run_soak(
        n_cases=ns.cases,
        base_seed=ns.seed,
        fault_window_ns=msec(ns.window_ms),
        deadline_ns=msec(ns.deadline_ms),
        max_faults=ns.max_faults,
        topology=ns.topology,
        **sweep_options(ns, log).runner_kwargs(),
    )
    headers = ["case", "schedule", "verdict", "flows", "faults",
               "reactions", "violations"]
    print(format_table(headers, report.rows()))
    print(f"\n{report.n_passed}/{len(report.results)} cases passed "
          f"(base seed {report.base_seed})")
    return 0 if report.ok else 1


def _cmd_fig17(ns: argparse.Namespace) -> int:
    from repro.experiments.failure import (
        FAILURE_WORKLOADS,
        STAGES,
        run_failure_timeline,
    )
    from repro.experiments.harness import TestbedConfig, format_table
    from repro.metrics.stats import mean
    from repro.units import msec

    workloads = _csv_strs(ns.workloads) or FAILURE_WORKLOADS
    unknown = [w for w in workloads if w not in FAILURE_WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {', '.join(unknown)}; "
              f"pick from {', '.join(FAILURE_WORKLOADS)}", file=sys.stderr)
        return 2
    seeds = _csv_ints(ns.seeds) or (1,)
    rows = []
    for workload in workloads:
        timelines = [
            run_failure_timeline(
                workload, seed, warm_ns=msec(ns.warm_ms),
                measure_ns=msec(ns.measure_ms),
                cfg=(TestbedConfig(scheme="presto", seed=seed,
                                   fidelity=ns.fidelity)
                     if ns.fidelity else None))
            for seed in seeds
        ]
        per_stage = {
            stage: mean([tl.phases[stage].mean_flow_tput_bps
                         for tl in timelines])
            for stage in STAGES
        }
        rebalance = [tl.convergence.time_to_rebalance_ns for tl in timelines
                     if tl.convergence.time_to_rebalance_ns is not None]
        blackholed = mean([tl.blackholed_bytes.get("total", 0)
                           for tl in timelines])
        rows.append([
            workload,
            *(f"{per_stage[stage] / 1e9:.2f}" for stage in STAGES),
            f"{mean(rebalance) / 1e6:.1f}" if rebalance else "nan",
            f"{blackholed / 1024:.0f}",
        ])
    headers = ["workload", "symmetry Gbps", "failover Gbps",
               "weighted Gbps", "rebalance ms", "blackholed KB"]
    print(format_table(headers, rows))
    print("\none continuous run per (workload, seed): the fault and the "
          "controller's reweight\nboth happen mid-simulation "
          "(fast failover carries the failover window).")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "soak":
        return _cmd_soak(ns)
    if ns.command == "fig17":
        return _cmd_fig17(ns)
    parser.print_help()
    return 2
