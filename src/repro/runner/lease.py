"""Lease-based job accounting shared by the worker pool and the service.

Both executors — the forked workers of :mod:`repro.runner.pool` and
the HTTP coordinator in :mod:`repro.service` — face the same
bookkeeping problem: a queue of jobs, each "checked out" by one worker
for a while, where workers can crash, hang or vanish.
:class:`LeaseQueue` is that bookkeeping, with one rule: a failure is
charged to exactly the lease its worker held.  ``fail`` — the job
raised, its worker died, or its lease passed its deadline — charges
that job's retry budget; the job requeues at the back until the budget
is spent, then reports failed.  Nothing else is requeued.

The queue is deliberately synchronous and lock-free; callers that need
thread safety (the HTTP coordinator) hold their own lock around it.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

@dataclass
class Lease:
    """One claim of one job by one worker, valid until ``deadline``."""

    lease_id: str
    index: int
    #: opaque job payload — a JobSpec in the pool, a JSON dict in the
    #: service; the queue never looks inside it
    spec: Any
    #: attempts including this one (1 on the first claim)
    attempts: int
    worker: str = ""
    started: float = field(default_factory=time.monotonic)
    #: monotonic time after which the lease is expired; None = forever
    deadline: Optional[float] = None

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline


@dataclass
class _Entry:
    index: int
    spec: Any
    attempts: int  # completed attempts so far (0 before the first claim)


class LeaseQueue:
    """Pending jobs + in-flight leases + the retry budget rule."""

    def __init__(
        self,
        retries: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self._clock = clock
        self._pending: Deque[_Entry] = deque()
        self._leases: Dict[str, Lease] = {}
        self._entries: Dict[str, _Entry] = {}  # lease_id -> entry
        self._seq = itertools.count(1)

    # --- introspection ------------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def in_flight(self) -> int:
        return len(self._leases)

    @property
    def depth(self) -> int:
        """Jobs the queue is still responsible for (pending + leased)."""
        return len(self._pending) + len(self._leases)

    @property
    def idle(self) -> bool:
        return not self._pending and not self._leases

    def leases(self) -> List[Lease]:
        return list(self._leases.values())

    def get(self, lease_id: str) -> Optional[Lease]:
        return self._leases.get(lease_id)

    # --- lifecycle ----------------------------------------------------------

    def add(self, index: int, spec: Any, attempts: int = 0) -> None:
        """Enqueue a job at the back of the pending queue."""
        self._pending.append(_Entry(index, spec, attempts))

    def claim(
        self, worker: str = "", ttl_s: Optional[float] = None
    ) -> Optional[Lease]:
        """Check out the next pending job, charging one attempt.

        Returns None when nothing is pending.  ``ttl_s`` sets the lease
        deadline; expired leases surface via :meth:`expired`.
        """
        if not self._pending:
            return None
        entry = self._pending.popleft()
        entry.attempts += 1
        now = self._clock()
        lease = Lease(
            lease_id=f"L{next(self._seq)}",
            index=entry.index,
            spec=entry.spec,
            attempts=entry.attempts,
            worker=worker,
            started=now,
            deadline=now + ttl_s if ttl_s is not None else None,
        )
        self._leases[lease.lease_id] = lease
        self._entries[lease.lease_id] = entry
        return lease

    def renew(self, lease_id: str, ttl_s: float) -> bool:
        """Push a live lease's deadline out (heartbeat); False if stale."""
        lease = self._leases.get(lease_id)
        if lease is None:
            return False
        lease.deadline = self._clock() + ttl_s
        return True

    def complete(self, lease_id: str) -> Optional[Lease]:
        """Retire a finished lease; None if it was already expired/stale."""
        lease = self._leases.pop(lease_id, None)
        self._entries.pop(lease_id, None)
        return lease

    def fail(self, lease_id: str) -> Tuple[str, Optional[Lease]]:
        """The lease's job failed (raised, lost its worker, or expired):
        charge its budget, then retry or give up.

        Returns ``("retry", lease)`` when the job requeued (at the
        back), ``("failed", lease)`` when its budget is spent, or
        ``("stale", None)`` when the lease was already gone.
        """
        lease = self._leases.pop(lease_id, None)
        entry = self._entries.pop(lease_id, None)
        if lease is None or entry is None:
            return ("stale", None)
        if entry.attempts <= self.retries:
            self._pending.append(entry)
            return ("retry", lease)
        return ("failed", lease)

    def expired(self, now: Optional[float] = None) -> List[Lease]:
        """In-flight leases past their deadline (not yet failed)."""
        now = self._clock() if now is None else now
        return [l for l in self._leases.values() if l.expired(now)]
