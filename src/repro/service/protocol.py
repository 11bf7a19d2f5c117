"""Wire protocol shared by the sweep coordinator, workers and clients.

Everything rides JSON over HTTP/1.1 (stdlib ``http.server`` +
``urllib``; no new dependencies).  Job payloads are the exact
``to_jsonable(JobSpec)`` dicts the local worker pool pickles — the worker
feeds them to the same ``_execute_payload`` entry, so a job's result
bytes do not depend on where it ran.

Endpoints (all bodies JSON)::

    POST /submit     {"specs": [payload...], "force": bool}
                     -> {"jobs": [{"id", "status"}...]}; 429 + Retry-After
                        when the queue is at --max-queue
    POST /claim      {"worker": name}
                     -> {"job": {"id","lease","payload","label",
                                 "ttl_s","attempts"}} or {"job": null}
    POST /heartbeat  {"worker": name, "leases": [lease_id...]}
                     -> {"renewed": [...], "stale": [...]}
    POST /complete   {"lease": id, "worker": name, "ok": bool,
                      "result": payload | "error": str, "elapsed_s": f}
                     -> {"accepted": bool}
    POST /results    {"ids": [job_id...]}
                     -> {"jobs": {id: {"status", ...}}}
    POST /shutdown   {} -> {"ok": true}; the server exits afterwards
    GET  /api/progress -> the dashboard/status snapshot
    GET  /healthz      -> {"ok": true}
    GET  /             -> the HTML dashboard
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Dict, Optional, Tuple

DEFAULT_PORT = 8642
DEFAULT_LEASE_TTL_S = 30.0
DEFAULT_MAX_QUEUE = 1024

#: job lifecycle states reported by /results and /api/progress
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CACHED = "cached"
TERMINAL = (DONE, FAILED, CACHED)


class ServiceError(RuntimeError):
    """The coordinator is unreachable or answered nonsense."""


class Backpressure(Exception):
    """HTTP 429: the coordinator's queue is full; retry later."""

    def __init__(self, retry_after_s: float):
        super().__init__(f"coordinator queue full; retry in {retry_after_s}s")
        self.retry_after_s = retry_after_s


def request_json(
    base_url: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
    timeout_s: float = 30.0,
) -> Tuple[int, Any]:
    """One JSON round-trip: POST ``payload`` (or GET when None).

    Returns ``(status_code, decoded_body)``.  Raises
    :class:`Backpressure` on 429 and :class:`ServiceError` when the
    coordinator is unreachable or replies with a non-JSON body.
    """
    url = base_url.rstrip("/") + path
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            body = resp.read()
            status = resp.status
    except urllib.error.HTTPError as exc:
        if exc.code == 429:
            try:
                retry_after = float(exc.headers.get("Retry-After", "1"))
            except ValueError:
                retry_after = 1.0
            exc.close()
            raise Backpressure(retry_after) from None
        body = exc.read()
        status = exc.code
        exc.close()
    except (urllib.error.URLError, ConnectionError, TimeoutError, OSError) as exc:
        raise ServiceError(f"coordinator unreachable at {url}: {exc}") from exc
    if not body:
        return status, None
    try:
        return status, json.loads(body)
    except json.JSONDecodeError as exc:
        raise ServiceError(
            f"coordinator at {url} replied non-JSON "
            f"(status {status}): {body[:200]!r}") from exc
