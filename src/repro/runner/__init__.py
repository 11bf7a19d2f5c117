"""repro.runner — a parallel sweep runner with a persistent result store.

Every paper figure is a sweep over (scheme x seed x sweep-point), and
the simulator is fully deterministic, so sweep cells are embarrassingly
parallel and cacheable.  This package provides the three layers:

``JobSpec``
    One unit of work: a picklable (experiment fn, TestbedConfig,
    kwargs) triple with a stable content hash.

``run_jobs`` (:mod:`repro.runner.pool`)
    Forked worker processes, one job each at a time, with per-job
    wall-clock timeouts and bounded retry charged to exactly the job a
    crashed or hung worker held, and graceful degradation to
    in-process serial execution when ``jobs=1`` or fork is unavailable.

``ResultStore``
    Persists each job's structured result as JSON under
    ``benchmarks/results/store/`` keyed by spec hash, so re-running a
    sweep skips completed jobs (resume) and ``--force`` invalidates.

The CLI entrypoint is ``python -m repro.runner`` (see
:mod:`repro.runner.cli`); experiment modules submit through
:func:`run_jobs` directly (``run_scalability(..., jobs=4)``).
"""

from repro.runner.jobspec import JobSpec
from repro.runner.pool import JobOutcome, run_jobs, collect_results
from repro.runner.serialize import (
    canonical_json,
    from_jsonable,
    ref_of,
    resolve_ref,
    to_jsonable,
)
from repro.runner.store import ResultStore

__all__ = [
    "JobSpec",
    "JobOutcome",
    "ResultStore",
    "run_jobs",
    "collect_results",
    "to_jsonable",
    "from_jsonable",
    "canonical_json",
    "ref_of",
    "resolve_ref",
]
