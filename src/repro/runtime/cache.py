"""Content-addressed result cache.

Serialized :class:`~repro.experiments.results.ExperimentResult` payloads
are stored one JSON file per task key under
``<cache-dir>/objects/<key[:2]>/<key>.json``; the key (see
:mod:`repro.runtime.fingerprint`) covers the experiment id, sweep mode,
package version, and the source digest of everything the experiment can
execute, so a lookup either misses or returns exactly what a fresh run
would print. The default location is ``~/.cache/opm-repro``, overridable
via ``--cache-dir`` or the ``OPM_REPRO_CACHE_DIR`` environment variable.

Every object has one layout, ``{"schema", "key", "kind", <meta>...,
"payload"}``, read by :meth:`ResultCache.get_payload` and written by
:meth:`ResultCache.put_payload` alone. An experiment's payload is exactly
``ExperimentResult.as_dict()``, so a ``run`` batch and the serve
service's ``/v1/experiment`` share each other's entries.

Alongside the objects the cache keeps ``stats.json`` with lifetime and
last-run hit/miss counts; ``opm-repro cache stats`` renders it and CI
asserts on it. Writes are atomic (tempfile + ``os.replace``), so
concurrent batches at worst redo one put; the stats read-modify-write is
additionally serialized through a lock file so concurrent writers cannot
lose each other's counts, and a corrupt or partial stats file reads as
empty counts instead of tracebacking.

:class:`SharedResultCache` promotes the store to a concurrency-safe
shared backend for the :mod:`repro.serve` service: every write takes the
lock file, and an in-process LRU hot tier in front of the on-disk
objects serves repeat hits without touching disk.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import dataclasses
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Iterator

try:  # pragma: no cover - always present on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.experiments.results import ExperimentResult

#: Environment variable overriding the default cache directory.
ENV_CACHE_DIR = "OPM_REPRO_CACHE_DIR"

#: Bump when the payload layout changes; older entries read as misses.
SCHEMA_VERSION = 1


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "opm-repro"


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """A snapshot of the on-disk cache state."""

    cache_dir: Path
    entries: int
    total_bytes: int
    last_run_hits: int
    last_run_misses: int
    lifetime_hits: int
    lifetime_misses: int

    @property
    def last_run_hit_rate(self) -> float:
        looked_up = self.last_run_hits + self.last_run_misses
        return self.last_run_hits / looked_up if looked_up else 0.0

    def render(self) -> str:
        return "\n".join(
            [
                f"cache dir: {self.cache_dir}",
                f"entries: {self.entries} "
                f"({self.total_bytes / 2**20:.2f} MiB)",
                f"last run: {self.last_run_hits} hits, "
                f"{self.last_run_misses} misses "
                f"(hit rate {self.last_run_hit_rate:.1%})",
                f"lifetime: {self.lifetime_hits} hits, "
                f"{self.lifetime_misses} misses",
            ]
        )


class ResultCache:
    """Filesystem-backed, content-addressed store of experiment results."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    # -- object store --------------------------------------------------------

    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def get(self, key: str) -> ExperimentResult | None:
        """The cached result for ``key``, or None on miss/corruption."""
        payload = self.get_payload(key)
        if payload is None:
            return None
        try:
            return ExperimentResult.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            return None

    def put(
        self,
        key: str,
        result: ExperimentResult,
        *,
        quick: bool,
        wall_time_s: float | None = None,
    ) -> Path:
        """Store ``result`` under ``key`` atomically; returns the path."""
        return self.put_payload(
            key,
            result.as_dict(),
            kind="experiment",
            experiment_id=result.experiment_id,
            quick=quick,
            wall_time_s=wall_time_s,
        )

    def get_payload(self, key: str) -> dict[str, Any] | None:
        """The JSON payload stored under ``key``, or None."""
        path = self._object_path(key)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if doc.get("schema") != SCHEMA_VERSION or "payload" not in doc:
            return None
        payload = doc["payload"]
        return payload if isinstance(payload, dict) else None

    def put_payload(
        self,
        key: str,
        payload: dict[str, Any],
        *,
        kind: str = "payload",
        **meta: Any,
    ) -> Path:
        """Store a JSON document under ``key`` atomically.

        ``meta`` keywords (``quick``, ``wall_time_s``, ...) describe the
        entry beside the payload; readers only ever see ``payload``.
        """
        doc: dict[str, Any] = {
            **meta,
            "schema": SCHEMA_VERSION,
            "key": key,
            "kind": kind,
            "created_unix_s": time.time(),
            "payload": payload,
        }
        path = self._object_path(key)
        _atomic_write_json(path, doc)
        return path

    def entries(self) -> list[Path]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every cached object and the stats file; returns count."""
        entries = self.entries()
        for path in entries:
            try:
                path.unlink()
            except OSError:
                pass
        stats = self.root / "stats.json"
        try:
            stats.unlink()
        except OSError:
            pass
        return len(entries)

    # -- hit/miss accounting -------------------------------------------------

    def record_run(self, *, hits: int, misses: int) -> None:
        """Fold one batch's hit/miss counts into ``stats.json``.

        The read-modify-write is serialized through a lock file so two
        concurrent batches (or serve workers) cannot interleave and lose
        each other's lifetime counts; a corrupt or partially written
        stats file resets the counts instead of raising.
        """
        with file_lock(self.root / "stats.lock"):
            counts = self._read_counts()
            counts["lifetime_hits"] = counts.get("lifetime_hits", 0) + hits
            counts["lifetime_misses"] = (
                counts.get("lifetime_misses", 0) + misses
            )
            counts["last_run_hits"] = hits
            counts["last_run_misses"] = misses
            _atomic_write_json(self.root / "stats.json", counts)

    def _read_counts(self) -> dict[str, int]:
        """Counts from ``stats.json``; corruption resets to empty."""
        try:
            data = json.loads(
                (self.root / "stats.json").read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return {}
        if not isinstance(data, dict):
            return {}
        return {
            k: v
            for k, v in data.items()
            if isinstance(k, str) and isinstance(v, int)
        }

    def stats(self) -> CacheStats:
        entries = self.entries()
        total_bytes = 0
        for p in entries:
            try:
                total_bytes += p.stat().st_size
            except OSError:  # deleted by a concurrent clear()
                pass
        counts = self._read_counts()
        return CacheStats(
            cache_dir=self.root,
            entries=len(entries),
            total_bytes=total_bytes,
            last_run_hits=counts.get("last_run_hits", 0),
            last_run_misses=counts.get("last_run_misses", 0),
            lifetime_hits=counts.get("lifetime_hits", 0),
            lifetime_misses=counts.get("lifetime_misses", 0),
        )


@contextlib.contextmanager
def file_lock(path: Path, *, timeout_s: float = 30.0) -> Iterator[None]:
    """Advisory inter-process lock held for the duration of the block.

    Uses ``fcntl.flock`` on the given lock file. On platforms without
    ``fcntl`` the lock degrades to a best-effort spin on exclusive
    creation; either way the object writes it guards remain individually
    atomic, so the worst outcome of a lost lock is a redone write.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    if fcntl is not None:
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            # Closing drops the flock; the lock file itself is left in
            # place so waiters never race a concurrent unlink.
            os.close(fd)
        return
    deadline = time.monotonic() + timeout_s  # pragma: no cover - non-POSIX
    sidecar = path.with_suffix(path.suffix + ".x")  # pragma: no cover
    while True:  # pragma: no cover
        try:
            fd = os.open(sidecar, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            if time.monotonic() >= deadline:
                yield  # proceed unlocked rather than deadlock
                return
            time.sleep(0.005)
    try:  # pragma: no cover
        yield
    finally:  # pragma: no cover
        os.close(fd)
        with contextlib.suppress(OSError):
            os.unlink(sidecar)


class _LruTier:
    """Bounded in-process LRU of deep-copied JSON payloads (thread-safe)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = max(0, int(capacity))
        self._entries: collections.OrderedDict[str, Any] = (
            collections.OrderedDict()
        )
        self._lock = threading.Lock()

    def get(self, key: str) -> Any | None:
        with self._lock:
            if key not in self._entries:
                return None
            self._entries.move_to_end(key)
            return copy.deepcopy(self._entries[key])

    def put(self, key: str, value: Any) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = copy.deepcopy(value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class SharedResultCache(ResultCache):
    """Concurrency-safe cache front for the serve layer.

    Two hardenings over the base store:

    * **lock-file-guarded writes** — every ``put_payload`` (and so every
      ``put``) takes the cache-wide lock file, so N serve workers and a
      concurrent ``run all`` batch can share one directory without
      interleaving (stats updates already lock in the base class);
    * **LRU hot tier** — the last ``hot_capacity`` objects read or
      written stay in process memory, so repeat hits never touch disk.

    Tier accounting (``hot_hits`` / ``disk_hits`` / ``misses``) is kept
    on the instance; the serve app publishes it as ``serve.cache.*``
    counters.
    """

    def __init__(
        self, root: str | Path | None = None, *, hot_capacity: int = 256
    ) -> None:
        super().__init__(root)
        self._hot = _LruTier(hot_capacity)
        self._tier_lock = threading.Lock()
        self.hot_hits = 0
        self.disk_hits = 0
        self.misses = 0

    @property
    def _write_lock_path(self) -> Path:
        return self.root / "objects.lock"

    def _count(self, tier: str) -> None:
        with self._tier_lock:
            if tier == "hot":
                self.hot_hits += 1
            elif tier == "disk":
                self.disk_hits += 1
            else:
                self.misses += 1

    def get_payload(self, key: str) -> dict[str, Any] | None:
        hot = self._hot.get(key)
        if isinstance(hot, dict):
            self._count("hot")
            return hot
        payload = super().get_payload(key)
        if payload is None:
            self._count("miss")
            return None
        self._hot.put(key, payload)
        self._count("disk")
        return payload

    def put_payload(
        self,
        key: str,
        payload: dict[str, Any],
        *,
        kind: str = "payload",
        **meta: Any,
    ) -> Path:
        with file_lock(self._write_lock_path):
            path = super().put_payload(key, payload, kind=kind, **meta)
        self._hot.put(key, payload)
        return path

    def clear(self) -> int:
        self._hot.clear()
        with file_lock(self._write_lock_path):
            return super().clear()

    @property
    def hot_entries(self) -> int:
        return len(self._hot)


def _atomic_write_json(path: Path, payload: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
