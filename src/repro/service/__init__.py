"""Sweep-as-a-service: coordinator/worker execution for paper sweeps.

The worker pool in :mod:`repro.runner.pool` parallelizes a sweep
across one machine's cores; this package stretches the same job model
across machines with nothing but the standard library (``http.server``
+ ``urllib``):

* **coordinator** — owns the :class:`~repro.runner.lease.LeaseQueue`
  (the exact class the pool uses), the
  :class:`~repro.runner.store.ResultStore` and the dashboard;
* **workers** — poll ``/claim`` for leases, execute through the same
  ``_execute_payload`` entry the pool's workers run, heartbeat while
  running, and ``POST /complete`` their results;
* **clients** — any ``run_jobs(..., service=URL)`` caller, including
  every sweep/validate/faults CLI via ``--service``.  The parameter
  search (``python -m repro.search run --service URL``) is the
  heaviest client: each GA rung fans its fitness cells through the
  coordinator, and because promoted candidates resubmit their
  earlier-seed jobs, the coordinator's store-hit path (not the
  workers) absorbs the halving ladder's structural re-submissions.

A worker that dies mid-job simply stops heartbeating; its lease
expires and that one job is charged a retry, exactly as the pool
charges the job a dead local worker held.  Nothing else is requeued.
Results land in the coordinator's store byte-identical (modulo
timestamps) to a local ``run_jobs`` run of the same specs.

Start with ``python -m repro.service coordinator`` and see
EXPERIMENTS.md "Sweep-as-a-service" for the full workflow.
"""

from repro.service.protocol import (
    DEFAULT_LEASE_TTL_S,
    DEFAULT_MAX_QUEUE,
    DEFAULT_PORT,
    Backpressure,
    ServiceError,
)

__all__ = [
    "Backpressure",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_PORT",
    "ServiceError",
]
