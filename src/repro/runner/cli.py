"""``python -m repro.runner`` — list, run and summarize paper sweeps.

Commands::

    python -m repro.runner list
    python -m repro.runner run scalability --jobs 4
    python -m repro.runner run oversub --points 2,4 --seeds 1,2 --force
    python -m repro.runner run fabric --service http://127.0.0.1:8642
    python -m repro.runner summary
    python -m repro.runner store gc

``run`` writes the rendered table to ``<results-dir>/runner_<sweep>.txt``
and a machine-readable ``runner_<sweep>.json``; per-job results land in
``<results-dir>/store/<hash>.json``, which is what makes a re-run
resume instead of re-simulate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.experiments.common import execution_flags, sweep_options
from repro.runner.serialize import to_jsonable
from repro.runner.store import ResultStore


def _csv_strs(text: Optional[str]) -> Sequence[str]:
    return tuple(s for s in (text or "").split(",") if s) or ()


def _csv_ints(text: Optional[str]) -> Sequence[int]:
    return tuple(int(s) for s in (text or "").split(",") if s)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Parallel sweep runner with a persistent, resumable "
                    "result store.",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list the available sweeps")

    run = sub.add_parser("run", parents=[execution_flags()],
                         help="run one sweep through the job pool")
    run.add_argument(
        "sweep", nargs="?", default=None,
        help="sweep name (see `list`); defaults to 'fabric' when "
             "--topology is given",
    )
    run.add_argument(
        "--schemes", default=None,
        help="comma-separated scheme subset (default: the figure's four)",
    )
    run.add_argument(
        "--points", default=None,
        help="comma-separated sweep points (path counts / pair counts)",
    )
    run.add_argument("--seeds", default="1,2", help="comma-separated seeds")
    run.add_argument(
        "--fidelity", choices=("packet", "flow"), default=None,
        help="engine fidelity for every cell: 'packet' (default) queues "
             "frames, 'flow' runs the fluid engine (repro.fluid)",
    )
    run.add_argument(
        "--topology", action="append", default=None, metavar="SPEC",
        help="fabric spec, repeatable — e.g. 'fat-tree:k=8', "
             "'leaf-spine:pods=8,oversub=2', "
             "'clos:spines=4,leaves=4,hosts=4' (fabric sweep only; "
             "implies `run fabric` when the sweep name is omitted)",
    )
    run.add_argument(
        "--validate", action="store_true",
        help="arm the spanning-tree oracle in every cell: trees must "
             "reach every host and stay link-disjoint; also arms the "
             "engine's always-on invariants (fabric sweep only)",
    )
    run.add_argument(
        "--warm-ms", type=float, default=15.0,
        help="warmup window before measurement, in simulated ms",
    )
    run.add_argument(
        "--measure-ms", type=float, default=25.0,
        help="measurement window, in simulated ms",
    )
    run.add_argument(
        "--trace", action="store_true",
        help="record per-cell event traces; Chrome/Perfetto-loadable "
             "JSON lands in <results-dir>/traces/ (implies metric "
             "snapshots in each stored result)",
    )
    run.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="collect per-cell metric snapshots (counters/gauges/"
             "histograms) and write them to FILE as JSON",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )

    summary = sub.add_parser(
        "summary", help="show what the result store already holds"
    )
    summary.add_argument("--results-dir", default=None, metavar="DIR")

    store = sub.add_parser(
        "store", help="result-store maintenance (currently: gc)"
    )
    store.add_argument(
        "action", choices=("gc",),
        help="gc: remove orphaned *.tmp files left by killed writers "
             "and structurally-corrupt records",
    )
    store.add_argument("--results-dir", default=None, metavar="DIR")

    perf = sub.add_parser(
        "perf",
        help="run the perf benchmark suite and write BENCH_perf.json",
    )
    perf.add_argument(
        "--benches", default=None,
        help="comma-separated bench subset (default: all; 'micro' and "
             "'macro' select those groups)",
    )
    perf.add_argument(
        "--rounds", type=int, default=3, metavar="N",
        help="timing rounds per bench; the fastest round is kept",
    )
    perf.add_argument(
        "--scale", type=float, default=1.0, metavar="F",
        help="workload scale factor (CI smoke uses e.g. 0.25)",
    )
    perf.add_argument(
        "--out", default="BENCH_perf.json", metavar="FILE",
        help="machine-readable output path (default: ./BENCH_perf.json)",
    )
    perf.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline JSON to compare events/sec against (default: "
             "benchmarks/perf/baseline.json when it exists)",
    )
    perf.add_argument(
        "--update-baseline", action="store_true",
        help="also overwrite the baseline file with this run's numbers",
    )
    perf.add_argument(
        "--check", action="store_true",
        help="exit non-zero if any micro bench drops >20%% below baseline",
    )
    perf.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="also copy BENCH_perf.json into this results root",
    )
    perf.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    return parser


def _cmd_list() -> int:
    from repro.runner.sweeps import SWEEPS

    width = max(len(name) for name in SWEEPS)
    for name, sweep in SWEEPS.items():
        print(f"{name.ljust(width)}  {sweep.description}")
    return 0


def _cmd_run(ns: argparse.Namespace) -> int:
    from repro.experiments.harness import format_table
    from repro.runner.sweeps import SWEEPS
    from repro.units import msec

    sweep_name = ns.sweep
    if sweep_name is None:
        if not ns.topology:
            print("a sweep name is required (or pass --topology to imply "
                  f"'fabric'); available: {', '.join(SWEEPS)}",
                  file=sys.stderr)
            return 2
        sweep_name = "fabric"
    sweep = SWEEPS.get(sweep_name)
    if sweep is None:
        print(f"unknown sweep {sweep_name!r}; available: {', '.join(SWEEPS)}",
              file=sys.stderr)
        return 2
    if (ns.topology or ns.validate) and not sweep.accepts_topology:
        print(f"--topology/--validate only apply to sweeps over fabrics "
              f"(e.g. 'fabric'), not {sweep_name!r}", file=sys.stderr)
        return 2
    if ns.topology:
        from repro.net.fabrics import as_spec

        try:
            for spec in ns.topology:
                as_spec(spec)
        except ValueError as exc:
            print(f"bad --topology: {exc}", file=sys.stderr)
            return 2
    try:
        points = _csv_ints(ns.points) or tuple(sweep.default_points)
        seeds = _csv_ints(ns.seeds)
    except ValueError as exc:
        print(f"--points/--seeds must be comma-separated integers: {exc}",
              file=sys.stderr)
        return 2
    if not seeds:
        print("--seeds must name at least one seed", file=sys.stderr)
        return 2
    schemes = _csv_strs(ns.schemes)
    if sweep.scheme_vocab is not None:
        vocab = list(sweep.scheme_vocab())
        unknown = [s for s in schemes if s not in vocab]
        if unknown:
            print(f"unknown preset(s) {', '.join(unknown)}; "
                  f"pick from {', '.join(vocab)}", file=sys.stderr)
            return 2
    else:
        from repro.experiments.harness import SCHEMES

        unknown = [s for s in schemes if s not in SCHEMES]
        if unknown:
            print(f"unknown scheme(s) {', '.join(unknown)}; "
                  f"pick from {', '.join(SCHEMES)}", file=sys.stderr)
            return 2

    log = None if ns.quiet else (lambda msg: print(msg, file=sys.stderr))
    opts = sweep_options(ns, log)
    store = opts.store
    if store is None and (ns.trace or ns.metrics_out):
        print("--trace/--metrics-out keep their output in the result "
              "store; they cannot run with --results-dir none",
              file=sys.stderr)
        return 2
    telemetry = None
    if ns.trace or ns.metrics_out:
        from repro.telemetry import TelemetryConfig

        telemetry = TelemetryConfig(
            metrics=True,
            trace=bool(ns.trace),
            trace_dir=os.path.join(store.root, "traces") if ns.trace else None,
        )
    extra = {}
    if sweep.accepts_topology:
        extra = {"topologies": tuple(ns.topology or ()),
                 "validate": ns.validate}
    report = sweep.run(
        schemes,
        points,
        seeds,
        msec(ns.warm_ms),
        msec(ns.measure_ms),
        telemetry=telemetry,
        fidelity=ns.fidelity,
        **opts.runner_kwargs(),
        **extra,
    )
    table = format_table(report.headers, report.rows)
    print(table)
    if store is None:
        return 0

    os.makedirs(store.root, exist_ok=True)
    txt_path = os.path.join(store.root, f"runner_{report.name}.txt")
    with open(txt_path, "w") as fh:
        fh.write(table + "\n")
    json_path = os.path.join(store.root, f"runner_{report.name}.json")
    with open(json_path, "w") as fh:
        json.dump(
            {"name": report.name, "table": table,
             "data": to_jsonable(report.payload)},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    print(f"saved {txt_path} and {json_path}", file=sys.stderr)

    if ns.metrics_out:
        _write_metrics_out(store, report.name, ns.metrics_out)
    if telemetry is not None and telemetry.trace:
        print(f"traces in {os.path.join(store.root, 'traces')} "
              "(load a .trace.json at https://ui.perfetto.dev)",
              file=sys.stderr)
    return 0


def _write_metrics_out(store: ResultStore, sweep_name: str, path: str) -> None:
    """Collect each stored cell's metric snapshot into one JSON file.

    Scans the result store for this sweep's labels; cells recorded
    without telemetry carry no snapshot and are skipped.
    """
    cells = {}
    for record in store.records():
        label = record.get("label", "")
        if not label.startswith(f"{sweep_name}/"):
            continue
        metrics = record.get("result", {}).get("fields", {}).get("metrics")
        if metrics is not None:
            cells[label] = metrics
    with open(path, "w") as fh:
        json.dump({"sweep": sweep_name, "cells": cells},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"saved metric snapshots for {len(cells)} cell(s) to {path}",
          file=sys.stderr)


def _cmd_perf(ns: argparse.Namespace) -> int:
    from repro.perf import (
        load_baseline,
        render_table,
        results_payload,
        run_suite,
        write_bench_json,
    )
    from repro.perf.report import DEFAULT_BASELINE_RELPATH, check_regression
    from repro.perf.suite import MACRO_BENCHES, MICRO_BENCHES

    names = []
    for token in _csv_strs(ns.benches):
        if token == "micro":
            names.extend(MICRO_BENCHES)
        elif token == "macro":
            names.extend(MACRO_BENCHES)
        else:
            names.append(token)
    if ns.rounds < 1:
        print(f"--rounds must be >= 1, got {ns.rounds}", file=sys.stderr)
        return 2
    if ns.scale <= 0:
        print(f"--scale must be positive, got {ns.scale}", file=sys.stderr)
        return 2
    log = None if ns.quiet else (lambda msg: print(msg, file=sys.stderr))
    try:
        results = run_suite(
            names or None, rounds=ns.rounds, scale=ns.scale, log=log)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    baseline_path = ns.baseline or DEFAULT_BASELINE_RELPATH
    baseline = load_baseline(baseline_path)
    if ns.baseline and baseline is None:
        print(f"baseline {ns.baseline!r} missing or invalid", file=sys.stderr)
        return 2
    payload = results_payload(results, baseline)
    print(render_table(payload))
    write_bench_json(payload, ns.out)
    print(f"saved {ns.out}", file=sys.stderr)
    if ns.results_dir:
        os.makedirs(ns.results_dir, exist_ok=True)
        copy = os.path.join(ns.results_dir, "BENCH_perf.json")
        write_bench_json(payload, copy)
        print(f"saved {copy}", file=sys.stderr)
    if ns.update_baseline:
        os.makedirs(os.path.dirname(baseline_path) or ".", exist_ok=True)
        write_bench_json(results_payload(results), baseline_path)
        print(f"updated baseline {baseline_path}", file=sys.stderr)
    if ns.check:
        failures = check_regression(payload)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        if baseline is None:
            print("perf --check: no baseline to compare against",
                  file=sys.stderr)
    return 0


def _cmd_store(ns: argparse.Namespace) -> int:
    store = ResultStore(ns.results_dir)
    stats = store.gc()
    print(f"store gc at {store.store_dir}: "
          f"removed {stats['tmp_removed']} orphaned tmp file(s) and "
          f"{stats['corrupt_removed']} corrupt record(s); "
          f"{stats['kept']} record(s) kept")
    return 0


def _cmd_summary(ns: argparse.Namespace) -> int:
    from repro.experiments.harness import format_table

    store = ResultStore(ns.results_dir)
    rows: List[List[object]] = []
    total_elapsed = 0.0
    for record in store.records():
        total_elapsed += record.get("elapsed_s", 0.0)
        rows.append([
            record.get("hash", "?"),
            record.get("label", "?"),
            f"{record.get('elapsed_s', 0.0):.1f}s",
            record.get("attempts", "?"),
        ])
    if not rows:
        print(f"result store at {store.store_dir} is empty")
        return 0
    print(format_table(["hash", "job", "elapsed", "attempts"], rows))
    print(f"\n{len(rows)} cached job(s), "
          f"{total_elapsed:.1f}s of simulation on disk "
          f"({store.store_dir})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        parser.print_help()
        return 0
    if ns.command == "list":
        return _cmd_list()
    if ns.command == "run":
        return _cmd_run(ns)
    if ns.command == "summary":
        return _cmd_summary(ns)
    if ns.command == "store":
        return _cmd_store(ns)
    if ns.command == "perf":
        return _cmd_perf(ns)
    parser.error(f"unknown command {ns.command!r}")
    return 2
