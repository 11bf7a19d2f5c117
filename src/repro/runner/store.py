"""Persistent, resumable result store keyed by job-spec hash.

Each completed job becomes one JSON file
``benchmarks/results/store/<hash>.json`` holding the spec, the encoded
result and execution metadata.  Re-running a sweep loads matching
hashes instead of re-simulating (resume); ``--force`` invalidates.
Writes are atomic (tempfile + ``os.replace``) so a killed sweep never
leaves a half-written record that would poison a resume.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict, Iterator, Optional

from repro.runner.jobspec import JobSpec
from repro.runner.serialize import to_jsonable

#: env var overriding the default results root (useful for tests/CI)
RESULTS_DIR_ENV = "REPRO_RESULTS_DIR"
DEFAULT_RESULTS_DIR = os.path.join("benchmarks", "results")


class ResultStore:
    """Content-addressed JSON store under ``<root>/store/``."""

    def __init__(self, root: Optional[str] = None):
        if root is None:
            root = os.environ.get(RESULTS_DIR_ENV) or DEFAULT_RESULTS_DIR
        self.root = root
        self.store_dir = os.path.join(root, "store")

    def path_for(self, spec: JobSpec) -> str:
        return os.path.join(self.store_dir, f"{spec.hash}.json")

    @staticmethod
    def _structurally_ok(record: Any) -> bool:
        """The one corruption check every read path applies: a record
        must be a dict that kept its ``result`` (a truncated write or
        hand-edit that lost it is treated as absent everywhere)."""
        return isinstance(record, dict) and "result" in record

    def load_record(self, spec: JobSpec) -> Optional[Dict[str, Any]]:
        """The stored record for ``spec``, or None on miss/corruption.

        Corruption covers structure, not just syntax: a record that
        parses but lost its ``result`` (truncated write, hand-edit) is
        a cache miss — the job re-runs and overwrites it.
        """
        try:
            with open(self.path_for(spec)) as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not self._structurally_ok(record):
            return None
        return record

    def save(
        self,
        spec: JobSpec,
        result_jsonable: Any,
        elapsed_s: float,
        attempts: int = 1,
    ) -> str:
        """Atomically persist one job's encoded result; returns the path."""
        os.makedirs(self.store_dir, exist_ok=True)
        record = {
            "hash": spec.hash,
            "label": spec.display,
            "spec": to_jsonable(spec),
            "result": result_jsonable,
            "elapsed_s": round(elapsed_s, 6),
            "attempts": attempts,
            "created_unix": time.time(),
        }
        path = self.path_for(spec)
        fd, tmp = tempfile.mkstemp(dir=self.store_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def invalidate(self, spec: JobSpec) -> bool:
        """Drop the cached record for ``spec``; True if one existed."""
        try:
            os.unlink(self.path_for(spec))
            return True
        except FileNotFoundError:
            return False

    def records(self) -> Iterator[Dict[str, Any]]:
        """All readable records, ordered by filename (= hash).

        Applies the same structural-corruption check as
        :meth:`load_record`: a record that parses but lost its
        ``result`` is skipped, not yielded half-formed.
        """
        if not os.path.isdir(self.store_dir):
            return
        for name in sorted(os.listdir(self.store_dir)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.store_dir, name)) as fh:
                    record = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
            if self._structurally_ok(record):
                yield record

    def gc(self) -> Dict[str, int]:
        """Remove debris a SIGKILLed or buggy writer can leave behind.

        Deletes orphaned ``*.tmp`` files (a writer died between
        ``mkstemp`` and ``os.replace``) and ``*.json`` records that are
        unparsable or structurally corrupt (they are cache misses
        anyway — dropping them just makes that visible).  Returns
        ``{"tmp_removed": n, "corrupt_removed": n, "kept": n}``.
        """
        stats = {"tmp_removed": 0, "corrupt_removed": 0, "kept": 0}
        if not os.path.isdir(self.store_dir):
            return stats
        for name in sorted(os.listdir(self.store_dir)):
            path = os.path.join(self.store_dir, name)
            if name.endswith(".tmp"):
                os.unlink(path)
                stats["tmp_removed"] += 1
                continue
            if not name.endswith(".json"):
                continue
            try:
                with open(path) as fh:
                    record = json.load(fh)
            except (OSError, json.JSONDecodeError):
                record = None
            if self._structurally_ok(record):
                stats["kept"] += 1
            else:
                os.unlink(path)
                stats["corrupt_removed"] += 1
        return stats

    def __len__(self) -> int:
        """Record-file count — O(directory), no parsing.  May include
        structurally-corrupt files :meth:`records` would skip; run
        :meth:`gc` to reconcile."""
        if not os.path.isdir(self.store_dir):
            return 0
        return sum(1 for name in os.listdir(self.store_dir)
                   if name.endswith(".json"))


def open_store(results_dir: Optional[str]) -> Optional[ResultStore]:
    """``ResultStore(results_dir)``, or None for the literal ``none`` —
    the one way every CLI says "run without a store"."""
    if (results_dir or "").lower() == "none":
        return None
    return ResultStore(results_dir)
