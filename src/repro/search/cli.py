"""``python -m repro.search`` — run or list parameter searches.

Mirrors the tournament CLI's artifact contract: ``run`` writes (or,
with ``--check``, byte-compares) the committed ``SEARCH.json``;
``--markdown`` adds the human report.  The shared execution flags
(:func:`repro.experiments.common.execution_flags`) pass straight
through to the fitness sweeps.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional, Sequence, Tuple

from repro.experiments.common import execution_flags, sweep_options
from repro.search.driver import (
    PRESETS,
    SearchSettings,
    render_markdown,
    run_search,
    search_json,
)

SEARCH_PATH = "SEARCH.json"


def _csv_ints(text: Optional[str]) -> Tuple[int, ...]:
    return tuple(int(s) for s in (text or "").split(",") if s)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.search",
        description="Closed-loop GA + successive-halving search over "
                    "the Presto design space (ROADMAP item 5).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list", help="show the available presets")
    lister.set_defaults(command="list")

    run = sub.add_parser(
        "run", parents=[execution_flags()],
        help="run a search and write (or --check) SEARCH.json")
    run.add_argument(
        "--preset", default="paper", choices=sorted(PRESETS),
        help="search preset (default: paper — the committed artifact)")
    run.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="GA seed (default: the preset's)")
    run.add_argument(
        "--population", type=int, default=None, metavar="N",
        help="candidates per generation (default: the preset's)")
    run.add_argument(
        "--generations", type=int, default=None, metavar="N",
        help="GA generations (default: the preset's)")
    run.add_argument(
        "--eta", type=int, default=None, metavar="N",
        help="halving rate (default: the preset's)")
    run.add_argument(
        "--base-seeds", type=int, default=None, metavar="N",
        help="seeds per candidate on the first rung (default: preset)")
    run.add_argument(
        "--eval-seeds", default=None, metavar="S1,S2,...",
        help="simulator seeds per full fitness evaluation "
             "(default: the preset's)")
    run.add_argument(
        "--fidelity", choices=("packet", "flow"), default=None,
        help="fitness-cell engine fidelity (default: the preset's)")
    run.add_argument(
        "--out", default=SEARCH_PATH, metavar="FILE",
        help=f"artifact path (default: {SEARCH_PATH})")
    run.add_argument(
        "--check", action="store_true",
        help="compare against the committed --out file instead of "
             "writing it; exit 1 on any drift")
    run.add_argument(
        "--markdown", default=None, metavar="FILE",
        help="also write the markdown report to FILE")
    run.add_argument(
        "--quiet", action="store_true",
        help="suppress per-job progress lines")
    return parser


def settings_from_args(ns) -> SearchSettings:
    settings = PRESETS[ns.preset]
    overrides = {}
    if ns.seed is not None:
        overrides["ga_seed"] = ns.seed
    if ns.population is not None:
        overrides["population"] = ns.population
    if ns.generations is not None:
        overrides["generations"] = ns.generations
    if ns.eta is not None:
        overrides["eta"] = ns.eta
    if ns.base_seeds is not None:
        overrides["base_seeds"] = ns.base_seeds
    if ns.eval_seeds is not None:
        overrides["eval_seeds"] = _csv_ints(ns.eval_seeds)
    if ns.fidelity is not None:
        overrides["fidelity"] = ns.fidelity
    return replace(settings, **overrides) if overrides else settings


def _run(ns) -> int:
    try:
        settings = settings_from_args(ns)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    log = None if ns.quiet else (lambda msg: print(msg, file=sys.stderr))
    try:
        result, stats = run_search(
            settings, **sweep_options(ns, log).runner_kwargs())
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    payload = search_json(result)
    report = render_markdown(result)
    print(report)
    print(f"runner: {stats.submitted} submitted, {stats.executed} "
          f"executed, {stats.cached} store hits", file=sys.stderr)
    if ns.markdown:
        with open(ns.markdown, "w") as fh:
            fh.write(report)
        print(f"saved {ns.markdown}", file=sys.stderr)

    if ns.check:
        try:
            with open(ns.out) as fh:
                committed = fh.read()
        except OSError as exc:
            print(f"--check: cannot read {ns.out}: {exc}", file=sys.stderr)
            return 1
        if committed == payload:
            print(f"--check: {ns.out} reproduced byte-for-byte",
                  file=sys.stderr)
            return 0
        old = json.loads(committed)
        new = json.loads(payload)
        for key in ("preset", "ga_seed", "evaluated"):
            a = old.get("fields", old).get(key)
            b = new.get("fields", new).get(key)
            if a != b:
                print(f"--check: {key} drifted: committed {a!r} != "
                      f"new {b!r}", file=sys.stderr)
        print(f"--check: {ns.out} drifted from this run "
              f"(regenerate with the same flags and review the diff)",
              file=sys.stderr)
        return 1

    with open(ns.out, "w") as fh:
        fh.write(payload)
    print(f"saved {ns.out}", file=sys.stderr)
    return 0


def _list() -> int:
    for name in sorted(PRESETS):
        settings = PRESETS[name]
        knobs = ", ".join(p.name for p in settings.space.params)
        fidelity = settings.fidelity or "packet"
        extras = ", link-failure scenario" if settings.disrupt else ""
        print(f"{name:10s} scheme={settings.scheme} fidelity={fidelity} "
              f"pop={settings.population}x{settings.generations} "
              f"seeds={','.join(str(s) for s in settings.eval_seeds)} "
              f"knobs=[{knobs}]{extras}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    if ns.command == "list":
        return _list()
    return _run(ns)


if __name__ == "__main__":
    raise SystemExit(main())
