"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload packet_k4_websearch \\
        --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing, with the
host-speed probe of :mod:`perfbench.probe` running, so that the times
of cold work are at the probe's reference speed.  ``--trace 1`` first
runs the same workload untraced in a child process (for the digest
comparison and the tracing overhead), then installs
the span wrappers of :mod:`perfbench.tracer` before any Testbed is
built, runs it again traced (with no probe, so its times are as
measured), and prints the per-layer metrics.  Spans are written under
``.perfbench/trace/``.

Before the result, stdout carries one ``perfbench-digest`` line (a
hash of every simulated output the run produced; identical for every
run of one seed and run length, traced or not) and one
``perfbench-extras`` line.  The last line is the result object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: a traced run's child must leave time for the traced half
CHILD_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale: minimal cells and lattice")
    parser.add_argument("--inject-failure", action="store_true",
                        help="add one cell that raises (smoke test)")
    return parser.parse_args(argv)


def emit(tag: str, payload) -> None:
    print(f"{tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def declared(kind: str):
    """(name, unit) of every metric of one kind in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def result_line(correct: bool, attempted: int, failed: int,
                values: dict, kind: str) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared(kind)},
    })


def report_problems(problems) -> None:
    for problem in problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"perfbench: ... and {len(problems) - 20} more",
              file=sys.stderr)


def untraced(args, work_dir: str) -> None:
    from perfbench.probe import REF_CHUNK_S, running
    from perfbench.workloads import percentile, run_workload

    with running() as probe:
        m = run_workload(args.workload, args.seed, args.seconds, work_dir,
                         tiny=args.tiny, inject_failure=args.inject_failure)
    chunks = probe.speeds()
    m.extras["probe"] = {
        "chunks": len(chunks),
        "ref_chunk_ms": REF_CHUNK_S * 1e3,
        **{f"chunk_p{q}_ms": percentile(chunks, q / 100)
           for q in (10, 50, 90)},
    }
    report_problems(m.problems)
    emit("perfbench-digest", {"workload": args.workload, "seed": args.seed,
                              "digest": m.digest})
    emit("perfbench-extras", m.extras)
    print(result_line(m.failed == 0, m.attempted, m.failed, m.metrics,
                      "end_to_end"))


def run_child(argv) -> dict:
    """The untraced twin of a traced run, in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__)] + argv
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced run failed with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    out = {"result": json.loads(lines[-1])}
    for line in lines:
        tag, _, payload = line.partition(" ")
        if tag in ("perfbench-digest", "perfbench-extras"):
            out[tag] = json.loads(payload)
    return out


def traced(args, work_dir: str) -> None:
    child_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", "0"]
    child_argv += ["--tiny"] * args.tiny
    child_argv += ["--inject-failure"] * args.inject_failure
    twin = run_child(child_argv)

    from perfbench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from perfbench.workloads import run_workload

    m = run_workload(args.workload, args.seed, args.seconds, work_dir,
                     tiny=args.tiny, inject_failure=args.inject_failure)
    values, check_failures = layer_metrics(tracer, m, twin)
    report_problems(m.problems + check_failures)
    failed = m.failed + len(check_failures)
    tracer.write(os.path.join(work_dir, "trace",
                              f"{args.workload}-seed{args.seed}"))
    emit("perfbench-digest", {"workload": args.workload, "seed": args.seed,
                              "digest": m.digest})
    emit("perfbench-extras", m.extras)
    print(result_line(failed == 0, m.attempted, failed, values, "per_layer"))


def layer_metrics(tracer, m, twin):
    """Per-layer values of a traced run, and the cross-checks that the
    wrappers saw every call the program counted."""
    x, base = m.extras, twin["perfbench-extras"]
    problems = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    check(m.digest == twin["perfbench-digest"]["digest"],
          "traced digest differs from the untraced run's")
    dispatched = tracer.dispatch_count()
    check(dispatched == tracer.events_executed,
          f"{dispatched} dispatch spans, but the simulators executed "
          f"{tracer.events_executed} events")
    realloc_spans = tracer.dispatch_count("FluidEngine._run_realloc")
    check(realloc_spans == tracer.reallocs,
          f"{realloc_spans} realloc spans, but the fluid engines counted "
          f"{tracer.reallocs} reallocations")
    cells = x["kind"] == "cells"
    if cells:
        check(x["events"] == tracer.events_executed,
              f"cells report {x['events']} events, spans saw "
              f"{tracer.events_executed}")
        check(x["reallocs"] == tracer.reallocs,
              f"cells report {x['reallocs']} reallocs, spans saw "
              f"{tracer.reallocs}")
    saves, save_s = tracer.named("runner", "ResultStore.save")
    check(saves == x["runner_executed"],
          f"{saves} store-save spans for {x['runner_executed']} executed cells")
    loads, load_s = tracer.named("runner", "ResultStore.load_record")
    check(loads == x["runner_lookups"],
          f"{loads} store-load spans for {x['runner_lookups']} lookups")

    layers = tracer.self_by_layer()
    alloc_calls, alloc_s = tracer.named("fluid", "max_min_allocation")
    resolve_calls, resolve_s = tracer.named("fluid",
                                            "FluidEngine.resolve_path")
    push_calls, push_s = tracer.named("presto",
                                      "PrestoController.push_schedules")
    _hashes, hash_s = tracer.named("runner", "JobSpec.hash")
    segments = x.get("tcp_segments", 0)
    # the traced run has no probe: compare with the twin's raw run time
    overhead = m.metrics["run_s"] / base["raw_run_s"]
    values = {
        "sim.events": tracer.events_executed,
        "sim.events_per_s": tracer.events_executed / base["run_total_s"],
        "sim.flows_completed": x["flows_completed"],
        "sim.mice_fct_p50_us": x["mice_fct_p50_us"],
        "net.pkts_tx": x.get("pkts_tx", 0),
        "net.drops": x.get("drops", 0),
        "host.gro_pkts_per_segment": (x["gro_merged_pkts"] / segments
                                      if segments else 0.0),
        "host.tcp_retx_bytes": x.get("tcp_retx_bytes", 0),
        "host.tcp_timeouts": x.get("tcp_timeouts", 0),
        "presto.push_schedules_s": push_s,
        "presto.push_schedules_calls": push_calls,
        "fluid.reallocs": tracer.reallocs,
        "fluid.alloc_s": alloc_s,
        "fluid.alloc_pipes_mean": (tracer.alloc_pipes / alloc_calls
                                   if alloc_calls else 0.0),
        "fluid.resolve_path_calls": resolve_calls,
        "fluid.resolve_path_s": resolve_s,
        "runner.hash_s": hash_s,
        "runner.store_load_s": load_s,
        "runner.store_save_s": save_s,
        "runner.overhead_ms_per_cell": base["runner_overhead_ms_per_cell"],
        "runner.cached": base["runner_cached"],
        "runner.executed": base["runner_executed"],
        "runner.retries": base["runner_retries"],
        "runner.cell_p98_ms": base["cell_p98_ms"],
        "trace.overhead_ratio": overhead,
    }
    for layer, self_s in layers.items():
        values[f"{layer}.self_s"] = self_s
    return values, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src/repro; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_dir, exist_ok=True)
    if args.trace:
        traced(args, work_dir)
    else:
        untraced(args, work_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
