"""The benchmark's own smoke test, at tiny scale (about 80 s).

Run from the repository root::

    python3 perfbench/smoke.py

It checks that

1. every metric named in ``BENCHMARK.json`` prints, with its unit, in
   untraced (end-to-end) and traced (per-layer) runs of each workload,
   which report no failed operation;
2. the digest depends on the seed (so comparing digests is not
   vacuous), and is equal between a traced and an untraced run;
3. the warm pass returns every cell ``cached``;
4. a deliberately failing cell is counted in the failed operations;
5. a directory holding only ``BENCHMARK.json`` and the benchmark's own
   files makes the benchmark exit non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args, cwd=ROOT):
    """(exit code, tagged lines, result object or None) of one run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--seconds", "1", "--tiny", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    lines = proc.stdout.splitlines()
    tagged = {}
    for line in lines:
        tag, _, payload = line.partition(" ")
        if tag.startswith("perfbench-"):
            tagged[tag] = json.loads(payload)
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, tagged, result


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"smoke: FAILED {what}", file=sys.stderr)
        sys.exit(1)
    print(f"smoke: ok {what}")


def check_metrics(result, declared, what: str) -> None:
    expect(result is not None
           and set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result object has exactly the four keys")
    printed = result["metrics"]
    wrong = [spec["name"] for spec in declared
             if printed.get(spec["name"], {}).get("unit") != spec["unit"]
             or not isinstance(printed[spec["name"]]["value"], (int, float))]
    expect(not wrong and set(printed) == {s["name"] for s in declared},
           f"{what}: all {len(declared)} declared metrics printed with "
           f"their units and nothing else (wrong: {wrong})")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        code, tagged, result = run("--workload", workload, "--seed", "1",
                                   "--trace", "0")
        expect(code == 0, f"{workload}: untraced run exits 0")
        check_metrics(result, bench["end_to_end"], f"{workload} untraced")
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] >= 1,
               f"{workload}: no failed operation")
        extras = tagged["perfbench-extras"]
        expect(extras["runner_cached"]
               == extras["runner_lookups"] - extras["cells"],
               f"{workload}: warm pass returned every cell cached")
        digest = tagged["perfbench-digest"]["digest"]

        _, other, _ = run("--workload", workload, "--seed", "2",
                          "--trace", "0")
        expect(other["perfbench-digest"]["digest"] != digest,
               f"{workload}: another seed gives another digest")

        code, tagged, result = run("--workload", workload, "--seed", "1",
                                   "--trace", "1")
        expect(code == 0, f"{workload}: traced run exits 0")
        check_metrics(result, bench["per_layer"], f"{workload} traced")
        expect(result["correct"] and result["failed"] == 0,
               f"{workload}: traced run passes its digest and span-count "
               "cross-checks")
        expect(tagged["perfbench-digest"]["digest"] == digest,
               f"{workload}: traced digest equals the untraced one")

    for workload in ("packet_k4_websearch", "flow_failover_sweep"):
        code, tagged, result = run("--workload", workload, "--seed", "1",
                                   "--trace", "0", "--inject-failure")
        expect(code == 0 and result is not None
               and not result["correct"] and result["failed"] >= 1,
               f"{workload}: an injected failing cell counts as failed")

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT,
                                                             ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, _, result = run("--workload", "packet_k4_websearch",
                              "--seed", "1", "--trace", "0", cwd=bare)
        expect(code != 0 and result is None,
               "without the program's source the benchmark fails, "
               "printing no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
