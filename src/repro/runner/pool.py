"""Worker-process job execution with timeouts, retries and resume.

``run_jobs`` is the single entry point every sweep goes through:

* ``jobs > 1`` (and fork available): ``jobs`` forked worker processes,
  each holding at most one :class:`~repro.runner.lease.LeaseQueue`
  lease and talking to the parent over its own pipe.  The parent
  waits on every pipe and process sentinel, with the nearest lease
  deadline as its timeout.
* ``jobs = 1`` or no fork: the same semantics in-process (no workers,
  no pickling overhead); per-job timeouts cannot be enforced without
  preemption and are ignored with a log note.

Failure handling has one rule: a failure is charged to exactly the
lease its worker held, and nothing else is requeued.  A job that
raises, a worker that dies (segfault, ``os._exit``) and a worker
killed for running past ``timeout_s`` each charge that one job's
retry budget; the job requeues until ``retries`` is spent, then
reports failed in its outcome — it never kills the sweep.  A dead or
killed worker is replaced by a fresh fork; every other in-flight job
keeps running untouched.  The same rule governs the distributed
coordinator (:mod:`repro.service`); it is documented in EXPERIMENTS.md
("Retries: one failure, one charge").

``run_jobs(..., service="http://host:port")`` hands the non-cached
jobs to a sweep coordinator instead of a local pool: specs are
submitted over HTTP, executed by remote workers through the same
``_execute_payload`` path, and the outcomes (and local store records)
are indistinguishable from a local run.

Results always round-trip through the JSON encoding
(:mod:`repro.runner.serialize`) — in the serial path too — so cached,
serial and parallel runs of the same spec are byte-identical.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runner.jobspec import JobSpec
from repro.runner.lease import Lease, LeaseQueue
from repro.runner.serialize import from_jsonable, to_jsonable
from repro.runner.store import ResultStore

#: statuses a finished job can report
STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"

Logger = Optional[Callable[[str], None]]


@dataclass
class JobOutcome:
    """What happened to one submitted :class:`JobSpec`."""

    spec: JobSpec
    status: str
    result: Any = None
    error: Optional[str] = None
    attempts: int = 0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_CACHED)


def _execute_payload(payload: Dict[str, Any]) -> Any:
    """Worker-side entry: decode the spec, run it, encode the result.

    Takes/returns plain JSON-able dicts so the pickle layer never sees
    experiment objects and the transcript matches what the store holds.
    """
    spec = from_jsonable(payload)
    return to_jsonable(spec.execute())


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def run_jobs(
    specs: Sequence[JobSpec],
    *,
    jobs: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    store: Optional[ResultStore] = None,
    force: bool = False,
    log: Logger = None,
    service: Optional[str] = None,
) -> List[JobOutcome]:
    """Run ``specs``; returns one :class:`JobOutcome` per spec, in order.

    ``jobs=None`` means ``os.cpu_count()``.  With a ``store``, completed
    hashes are loaded instead of re-run (``force=True`` invalidates and
    re-runs).  Failures are contained: inspect ``outcome.status``, or
    use :func:`collect_results` to raise on any failure.

    ``service`` is a coordinator base URL (``http://host:port``): the
    non-cached jobs run on that coordinator's workers instead of a
    local pool (``jobs``/``timeout_s`` then govern the coordinator's
    side, not this process).
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if timeout_s is not None and timeout_s <= 0:
        # A non-positive timeout would mark every in-flight job timed
        # out on the first poll.
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")

    def _log(msg: str) -> None:
        if log is not None:
            log(msg)

    total = len(specs)
    outcomes: Dict[int, JobOutcome] = {}
    todo: List[Tuple[int, JobSpec]] = []
    for i, spec in enumerate(specs):
        if store is not None and force:
            store.invalidate(spec)
        record = store.load_record(spec) if store is not None and not force else None
        if record is not None:
            outcomes[i] = JobOutcome(
                spec=spec,
                status=STATUS_CACHED,
                result=from_jsonable(record["result"]),
                attempts=0,
                elapsed_s=0.0,
            )
            _log(f"[{len(outcomes)}/{total}] cached {spec.display}")
        else:
            todo.append((i, spec))

    def _finish(idx: int, outcome: JobOutcome) -> None:
        outcomes[idx] = outcome
        note = f" ({outcome.error})" if outcome.error else ""
        _log(
            f"[{len(outcomes)}/{total}] {outcome.status} "
            f"{outcome.spec.display} ({outcome.elapsed_s:.1f}s)"
            f"{note}"
        )

    if todo:
        if service is not None:
            # Local import: repro.service imports repro.runner.
            from repro.service.client import run_via_service

            run_via_service(
                todo, service, retries=retries, force=force,
                store=store, finish=_finish, log=_log,
            )
            return [outcomes[i] for i in range(total)]
        use_pool = jobs > 1 and _fork_available()
        if jobs > 1 and not use_pool:
            _log("fork start method unavailable; degrading to serial execution")
        if use_pool:
            _run_pool(
                todo, jobs=jobs, timeout_s=timeout_s, retries=retries,
                store=store, finish=_finish, log=_log,
            )
        else:
            _run_serial(
                todo, timeout_s=timeout_s, retries=retries,
                store=store, finish=_finish, log=_log,
            )

    return [outcomes[i] for i in range(total)]


def collect_results(outcomes: Sequence[JobOutcome]) -> List[Any]:
    """Results in submission order; raises if any job failed."""
    failed = [o for o in outcomes if not o.ok]
    if failed:
        details = "; ".join(f"{o.spec.display}: {o.error}" for o in failed)
        raise RuntimeError(f"{len(failed)} job(s) failed: {details}")
    return [o.result for o in outcomes]


# --- serial fallback ---------------------------------------------------------


def _run_serial(
    todo: Sequence[Tuple[int, JobSpec]],
    *,
    timeout_s: Optional[float],
    retries: int,
    store: Optional[ResultStore],
    finish: Callable[[int, JobOutcome], None],
    log: Callable[[str], None],
) -> None:
    if timeout_s is not None:
        log("note: per-job timeouts are not enforced in serial mode")
    for index, spec in todo:
        attempts = 0
        t0 = time.monotonic()
        while True:
            attempts += 1
            try:
                payload = to_jsonable(spec.execute())
            except Exception as exc:  # noqa: BLE001 — job errors must not kill the sweep
                err = f"{type(exc).__name__}: {exc}"
                if attempts <= retries:
                    log(f"retrying {spec.display} "
                        f"(attempt {attempts + 1}/{retries + 1}): {err}")
                    continue
                finish(index, JobOutcome(
                    spec=spec, status=STATUS_FAILED, error=err,
                    attempts=attempts, elapsed_s=time.monotonic() - t0,
                ))
                break
            elapsed = time.monotonic() - t0
            if store is not None:
                store.save(spec, payload, elapsed, attempts)
            finish(index, JobOutcome(
                spec=spec, status=STATUS_OK, result=from_jsonable(payload),
                attempts=attempts, elapsed_s=elapsed,
            ))
            break


# --- worker processes ------------------------------------------------------


def _worker_loop(conn: Connection) -> None:
    """Forked worker: run each payload the parent sends and reply with
    ``(True, result)`` or ``(False, error text)``; ``None`` means stop."""
    for payload in iter(conn.recv, None):
        try:
            reply = (True, _execute_payload(payload))
        except Exception as exc:  # noqa: BLE001 — reported, not fatal
            reply = (False, f"{type(exc).__name__}: {exc}")
        conn.send(reply)


@dataclass
class _Worker:
    """One forked worker process, its pipe, and the lease it holds."""

    proc: Any
    conn: Connection
    lease: Optional[Lease] = None

    def stop(self) -> None:
        """Ask an idle worker to exit; kill a busy (hung or dead) one."""
        if self.lease is None:
            try:
                self.conn.send(None)
            except OSError:
                pass
        else:
            self.proc.kill()
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        self.conn.close()


def _run_pool(
    todo: Sequence[Tuple[int, JobSpec]],
    *,
    jobs: int,
    timeout_s: Optional[float],
    retries: int,
    store: Optional[ResultStore],
    finish: Callable[[int, JobOutcome], None],
    log: Callable[[str], None],
) -> None:
    ctx = multiprocessing.get_context("fork")
    queue = LeaseQueue(retries=retries)
    for index, spec in todo:
        queue.add(index, spec)
    workers: List[_Worker] = []

    def spawn() -> _Worker:
        conn, child = ctx.Pipe()
        proc = ctx.Process(target=_worker_loop, args=(child,), daemon=True)
        proc.start()
        child.close()
        workers.append(_Worker(proc, conn))
        return workers[-1]

    def fail(lease: Lease, err: str) -> None:
        status, _ = queue.fail(lease.lease_id)
        if status == "retry":
            log(f"retrying {lease.spec.display} "
                f"(attempt {lease.attempts + 1}/{retries + 1}): {err}")
        else:
            finish(lease.index, JobOutcome(
                spec=lease.spec, status=STATUS_FAILED, error=err,
                attempts=lease.attempts,
                elapsed_s=time.monotonic() - lease.started,
            ))

    def retire(worker: _Worker, err: str) -> None:
        """Stop a dead or hung worker; only the lease it held is charged.
        Its slot is refilled by a fresh fork when work is next handed out."""
        workers.remove(worker)
        worker.stop()
        if worker.lease is not None:
            fail(worker.lease, err)

    def settle(worker: _Worker) -> None:
        try:
            ok, value = worker.conn.recv()
        except (EOFError, OSError):
            retire(worker, "worker process died")
            return
        lease, worker.lease = worker.lease, None
        if not ok:
            fail(lease, value)
            return
        queue.complete(lease.lease_id)
        elapsed = time.monotonic() - lease.started
        if store is not None:
            store.save(lease.spec, value, elapsed, lease.attempts)
        finish(lease.index, JobOutcome(
            spec=lease.spec, status=STATUS_OK, result=from_jsonable(value),
            attempts=lease.attempts, elapsed_s=elapsed,
        ))

    try:
        while not queue.idle:
            while queue.pending:
                worker = next((w for w in workers if w.lease is None), None)
                if worker is None:
                    if len(workers) >= jobs:
                        break
                    worker = spawn()
                worker.lease = queue.claim(ttl_s=timeout_s)
                try:
                    worker.conn.send(to_jsonable(worker.lease.spec))
                except OSError:
                    retire(worker, "worker process died")

            busy = [w for w in workers if w.lease is not None]
            if not busy:
                continue
            poll = None
            if timeout_s is not None:
                nearest = min(w.lease.deadline for w in busy)
                poll = max(0.0, nearest - time.monotonic())
            ready = set(wait([w.conn for w in busy]
                             + [w.proc.sentinel for w in workers], poll))
            for worker in list(workers):
                if worker.conn in ready:
                    settle(worker)
                elif worker.proc.sentinel in ready:
                    retire(worker, "worker process died")
            for lease in queue.expired():
                worker = next(w for w in workers if w.lease is lease)
                retire(worker, f"timed out after {timeout_s:.1f}s")
    finally:
        for worker in workers:
            worker.stop()
