"""GraphStore: fingerprint-keyed persistence for compiled graphs.

Cold start is the serving stack's remaining big constant: compiling the
CSR arrays, solving the spectral ``c``, and spawning the worker pool
cost ~9 s at n = 20k (BENCH_session.json) while a warm detect takes a
fraction of a second — and a restarted process pays all of it again for
every graph it has ever seen.  This module closes that gap by making
the expensive per-graph artifacts *survive the process*: a
:class:`GraphStore` saves a :class:`~repro.graph.CompiledGraph` (the
int32 ``indptr``/``indices``/``degrees`` arrays, the label table, and
the spectral cache) under its content fingerprint, and loads it back
with the arrays **memory-mapped read-only** — so a freshly started
process reaches warm-session throughput after one mmap instead of one
compile-plus-solve.

Disk layout (one entry per fingerprint, sharded by prefix)::

    store_root/
      access.json                   # {fingerprint: last-access unix time}
      tmp/                          # manifest staging (same filesystem)
      ab/                           # fingerprint[:2] shard
        ab…64 hex….json             # manifest — the atomic commit point
        ab…64 hex…-<nonce>/         # payload directory the manifest names
          indptr.npy
          indices.npy
          degrees.npy
          labels.json               # only for non-identity label tables

Write protocol — last-writer-wins, readers never see partial entries:

1. the payload directory is written first under a fresh nonce;
2. the manifest (format version, payload name, per-file SHA-256
   digests, combined checksum, spectral cache, sizes) is staged in
   ``tmp/`` and committed with :func:`os.replace` — the *only* step a
   reader can observe.  Two processes saving the same fingerprint each
   write their own payload directory and race only on the manifest
   rename, which POSIX makes atomic; the loser's payload becomes an
   orphan that :meth:`GraphStore.prune` sweeps later.

Read protocol — never serve a wrong graph:

* the manifest's format version and fingerprint must match;
* every array is mmap-loaded, then its dtype, shape, and SHA-256 are
  verified against the manifest *before* the graph is handed out; the
  combined payload checksum is re-derived and compared too.  Any
  mismatch (truncated file, flipped byte, version bump, hand-edited
  manifest) raises nothing: the entry is discarded with a single
  :func:`warnings.warn` and ``load`` returns ``None`` so the caller
  falls back to a plain recompile — the next ``save`` overwrites the
  bad entry.

The store is a **pure cache**: deleting its directory loses no data,
only warm-start time.  ``prune(max_bytes)`` is the size-budgeted GC —
least-recently-*accessed* entries (per the persisted ``access.json``
log, which also drives :class:`~repro.store.StoreWarmer`) are removed
first.  Entries mmap'd into live sessions stay valid after pruning:
POSIX keeps unlinked pages mapped until the arrays are collected.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
import uuid
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..graph.csr import CompiledGraph, compile_graph
from ..observability import (
    NULL_EVENT_LOG,
    MetricsRegistry,
    StatsView,
    counter,
    gauge,
    histogram,
)
from ..serving.fingerprint import graph_fingerprint

__all__ = ["GraphStore", "STORE_FORMAT_VERSION"]

#: Bump whenever the on-disk layout or manifest schema changes: entries
#: written under any other version are treated as cache misses (with a
#: warning), never reinterpreted.  Version 2 records the spectral solver
#: with each cached ``c``; a version-1 ``c`` has no solver and is
#: recompiled rather than guessed at.
STORE_FORMAT_VERSION = 2

#: The three CSR arrays every entry persists, in manifest order.
_ARRAY_NAMES = ("indptr", "indices", "degrees")

#: Label types the JSON label table can round-trip exactly.  Anything
#: else (tuples, frozensets, …) makes the graph unpersistable — ``save``
#: declines rather than risking a lossy re-encoding.
_LABEL_TYPES = {"int": int, "str": str}

#: Unreferenced payload directories younger than this are left alone by
#: the orphan sweep: they may belong to a concurrent writer that has
#: staged its arrays but not yet committed its manifest.
_ORPHAN_GRACE_SECONDS = 300.0


def _digest_array(array: np.ndarray) -> str:
    """SHA-256 over an array's raw bytes (dtype/shape checked separately)."""
    return hashlib.sha256(np.ascontiguousarray(array).data).hexdigest()


def _digest_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _combined_checksum(parts: Dict[str, str]) -> str:
    """One payload checksum derived from the per-file digests."""
    joined = "|".join(f"{name}:{parts[name]}" for name in sorted(parts))
    return hashlib.sha256(joined.encode()).hexdigest()


def _encode_labels(labels: List[Any]) -> Optional[List[List[Any]]]:
    """The JSON label table, or ``None`` when a label can't round-trip."""
    encoded: List[List[Any]] = []
    for label in labels:
        name = type(label).__name__
        if name not in _LABEL_TYPES:
            return None
        encoded.append([name, label])
    return encoded


def _decode_labels(encoded: List[List[Any]]) -> List[Any]:
    return [_LABEL_TYPES[name](value) for name, value in encoded]


class _CorruptEntry(Exception):
    """Internal: an entry failed validation (reason in ``args[0]``)."""


_REQUESTS = counter(
    "repro_store_requests_total", "Store load outcomes per request", "outcome"
)

#: The store's instruments, by ``stats`` name.  ``corrupt`` loads found
#: an entry but discarded it (checksum, truncation, format);
#: ``saves_skipped`` declined to persist.
STORE_METRICS = {
    "hits": _REQUESTS.labels(outcome="hit"),
    "misses": _REQUESTS.labels(outcome="miss"),
    "corrupt": _REQUESTS.labels(outcome="corrupt"),
    "saves": counter("repro_store_saves_total", "Compiled graphs persisted"),
    "saves_skipped": counter(
        "repro_store_saves_skipped_total",
        "Saves declined (unpersistable label table) or failed on IO",
    ),
    "load_bytes": counter(
        "repro_store_load_bytes_total", "Payload bytes mmap-loaded from the store"
    ),
    "save_bytes": counter(
        "repro_store_save_bytes_total", "Payload bytes written to the store"
    ),
    "pruned": counter(
        "repro_store_pruned_total", "Entries removed by the size-budgeted GC"
    ),
    "pruned_bytes": counter(
        "repro_store_pruned_bytes_total",
        "Payload bytes reclaimed by the size-budgeted GC",
    ),
    "load_seconds": histogram(
        "repro_store_load_seconds",
        "Wall-clock of successful store loads (mmap + verify)",
    ),
    "save_seconds": histogram(
        "repro_store_save_seconds",
        "Wall-clock of store saves (arrays + manifest commit)",
    ),
    "entries": gauge("repro_store_entries", "Entries currently committed in the store"),
    "bytes": gauge("repro_store_bytes", "Summed payload bytes of committed entries"),
}


class GraphStore:
    """Persist compiled graphs under their fingerprints; load them mmap'd.

    Parameters
    ----------
    root:
        Store directory (created if absent).  Safe to share between
        processes — writes are atomic-rename committed — and safe to
        delete wholesale: the store is a cache, never the only copy.
    max_bytes:
        Optional size budget.  After every save the store prunes
        least-recently-accessed entries until the summed payload bytes
        fit; ``None`` means unbounded (prune manually via
        :meth:`prune`).
    registry:
        The :class:`~repro.observability.MetricsRegistry` the store
        publishes hit/miss/save/byte counters and load/save-seconds
        histograms into; ``None`` creates a private one.
    events:
        The :class:`~repro.observability.EventLog` receiving a
        ``store_corrupt`` event whenever a persisted entry fails
        validation and is discarded (the caller recompiles); defaults
        to the inert :data:`~repro.observability.NULL_EVENT_LOG`.
    """

    def __init__(
        self,
        root,
        max_bytes: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[Any] = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ConfigurationError(
                f"max_bytes must be positive, got {max_bytes}"
            )
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.root.mkdir(parents=True, exist_ok=True)
        self._tmp = self.root / "tmp"
        self._tmp.mkdir(exist_ok=True)
        self._access_path = self.root / "access.json"
        self._access_lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.events = events if events is not None else NULL_EVENT_LOG
        self._metrics = self.registry.bind(STORE_METRICS)
        self._metrics.entries.set_function(lambda: len(self.fingerprints()))
        self._metrics.bytes.set_function(self.total_bytes)
        self.stats = StatsView(
            self._metrics,
            hit_rate=lambda view: view.hits
            / max(1, view.hits + view.misses + view.corrupt),
        )

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _shard(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2]

    def _manifest_path(self, fingerprint: str) -> Path:
        return self._shard(fingerprint) / f"{fingerprint}.json"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def manifest(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The committed manifest for a fingerprint, or ``None``."""
        try:
            return json.loads(self._manifest_path(fingerprint).read_text())
        except (OSError, ValueError):
            return None

    def fingerprints(self) -> List[str]:
        """Every committed fingerprint (fresh directory scan)."""
        found: List[str] = []
        try:
            shards = list(self.root.iterdir())
        except OSError:
            return found
        for shard in shards:
            if not shard.is_dir() or shard.name == "tmp":
                continue
            for manifest in shard.glob("*.json"):
                found.append(manifest.stem)
        return sorted(found)

    def __contains__(self, fingerprint: object) -> bool:
        return (
            isinstance(fingerprint, str)
            and self._manifest_path(fingerprint).is_file()
        )

    def entry_bytes(self, fingerprint: str) -> Optional[int]:
        """The payload bytes a committed entry occupies, or ``None``."""
        manifest = self.manifest(fingerprint)
        return None if manifest is None else int(manifest.get("nbytes", 0))

    def total_bytes(self) -> int:
        """Summed payload bytes of every committed entry."""
        return sum(
            self.entry_bytes(fingerprint) or 0
            for fingerprint in self.fingerprints()
        )

    def __len__(self) -> int:
        return len(self.fingerprints())

    # ------------------------------------------------------------------
    # Access log (drives LRU pruning and the startup warmer)
    # ------------------------------------------------------------------
    def _read_access(self) -> Dict[str, float]:
        try:
            log = json.loads(self._access_path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(log, dict):
            return {}
        return {
            key: float(value)
            for key, value in log.items()
            if isinstance(key, str) and isinstance(value, (int, float))
        }

    def _touch(self, fingerprint: str) -> None:
        """Record an access; best-effort (a lost update only skews LRU)."""
        with self._access_lock:
            log = self._read_access()
            log[fingerprint] = time.time()
            try:
                staged = self._tmp / f"access-{uuid.uuid4().hex[:8]}.json"
                staged.write_text(json.dumps(log, sort_keys=True))
                os.replace(staged, self._access_path)
            except OSError:
                pass

    def _forget(self, fingerprint: str) -> None:
        with self._access_lock:
            log = self._read_access()
            if log.pop(fingerprint, None) is None:
                return
            try:
                staged = self._tmp / f"access-{uuid.uuid4().hex[:8]}.json"
                staged.write_text(json.dumps(log, sort_keys=True))
                os.replace(staged, self._access_path)
            except OSError:
                pass

    def recent(self, limit: Optional[int] = None) -> List[str]:
        """Committed fingerprints, most recently accessed first.

        Entries never seen in the access log (written by another
        process, or the log was lost) sort by their manifest's creation
        time instead, so a fresh process can still pre-warm a store it
        did not write.
        """
        log = self._read_access()

        def key(fingerprint: str) -> float:
            recorded = log.get(fingerprint)
            if recorded is not None:
                return recorded
            manifest = self.manifest(fingerprint)
            return float(manifest.get("created_unix", 0)) if manifest else 0.0

        ordered = sorted(self.fingerprints(), key=key, reverse=True)
        return ordered if limit is None else ordered[:limit]

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(self, graph: Any, fingerprint: Optional[str] = None) -> bool:
        """Persist a graph's compiled form; returns whether it was stored.

        Accepts a :class:`~repro.graph.CompiledGraph` or anything
        :func:`~repro.graph.compile_graph` accepts.  The spectral cache
        travels with the arrays, so a later :meth:`load` skips both the
        compile *and* the solve.  Declines (``False``, counted in
        ``saves_skipped``) when the label table cannot round-trip
        through JSON or the write fails on IO — a cache must never turn
        a serving request into an error.
        """
        started = time.perf_counter()
        compiled = compile_graph(graph)
        key = fingerprint if fingerprint is not None else graph_fingerprint(compiled)
        labels_encoded: Optional[List[List[Any]]] = None
        if not compiled.identity_labels:
            labels_encoded = _encode_labels(compiled.labels)
            if labels_encoded is None:
                self._metrics.saves_skipped.inc()
                return False
        try:
            nbytes = self._write_entry(compiled, key, labels_encoded)
        except OSError as error:
            warnings.warn(
                f"repro graph store: save of {key[:12]}… failed ({error}); "
                "serving continues without persistence",
                RuntimeWarning,
            )
            self._metrics.saves_skipped.inc()
            return False
        self._metrics.saves.inc()
        self._metrics.save_bytes.inc(nbytes)
        self._metrics.save_seconds.observe(time.perf_counter() - started)
        self._touch(key)
        if self.max_bytes is not None:
            self.prune(self.max_bytes)
        return True

    def _write_entry(
        self,
        compiled: CompiledGraph,
        fingerprint: str,
        labels_encoded: Optional[List[List[Any]]],
    ) -> int:
        shard = self._shard(fingerprint)
        shard.mkdir(exist_ok=True)
        nonce = uuid.uuid4().hex[:12]
        payload_dir = shard / f"{fingerprint}-{nonce}"
        payload_dir.mkdir()

        digests: Dict[str, str] = {}
        arrays_meta: Dict[str, Dict[str, Any]] = {}
        nbytes = 0
        for name in _ARRAY_NAMES:
            array = getattr(compiled, name)
            # A store-loaded (memmap) array re-persists byte-identically;
            # ascontiguousarray is a no-op for the arrays we build.
            np.save(payload_dir / f"{name}.npy", np.ascontiguousarray(array))
            digests[name] = _digest_array(array)
            arrays_meta[name] = {
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "sha256": digests[name],
            }
            nbytes += int(array.nbytes)

        labels_meta: Optional[Dict[str, Any]] = None
        if labels_encoded is not None:
            blob = json.dumps(labels_encoded).encode()
            (payload_dir / "labels.json").write_bytes(blob)
            digests["labels"] = _digest_bytes(blob)
            labels_meta = {
                "file": "labels.json",
                "sha256": digests["labels"],
                "count": len(labels_encoded),
            }
            nbytes += len(blob)

        # Only the shared_admissible_c key shape is persisted; any future
        # cache entry under a different key silently stays process-local
        # rather than corrupting the manifest schema.
        persistable = [
            (key, c)
            for key, c in compiled.spectral_cache.items()
            if isinstance(key, tuple)
            and len(key) == 4
            and key[0] == "admissible_c"
        ]
        spectral = [
            [str(key[1]), float(key[2]), int(key[3]), float(c)]
            for key, c in sorted(persistable)
        ]
        manifest = {
            "format_version": STORE_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "payload": payload_dir.name,
            "nodes": compiled.number_of_nodes(),
            "edges": compiled.number_of_edges(),
            "arrays": arrays_meta,
            "labels": labels_meta,
            "spectral": spectral,
            "checksum": _combined_checksum(digests),
            "nbytes": nbytes,
            "created_unix": time.time(),
        }
        # The manifest rename is the commit point: stage it on the same
        # filesystem, fsync, then os.replace — a reader either sees the
        # previous complete entry or this one, never a mixture.  (The
        # array files themselves are not fsynced: a torn payload after a
        # crash fails its checksum at load and falls back to recompile.)
        staged = self._tmp / f"manifest-{fingerprint[:16]}-{nonce}.json"
        with open(staged, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staged, self._manifest_path(fingerprint))
        return nbytes

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load(self, fingerprint: str) -> Optional[CompiledGraph]:
        """The stored compiled graph for a fingerprint, or ``None``.

        On a hit the returned graph's CSR arrays are read-only memory
        maps over the store files, its spectral cache is pre-populated,
        and its fingerprint is pinned — binding it into a
        :class:`~repro.detectors.GraphSession` runs neither the CSR
        build nor any spectral solver.  A missing entry is a clean
        miss; a failed validation discards the entry with one warning
        and also returns ``None`` (the caller recompiles).
        """
        started = time.perf_counter()
        manifest_path = self._manifest_path(fingerprint)
        try:
            text = manifest_path.read_text()
        except OSError:
            self._metrics.misses.inc()
            return None
        try:
            compiled, nbytes = self._validate_and_map(fingerprint, text)
        except Exception as error:
            reason = (
                error.args[0]
                if isinstance(error, _CorruptEntry)
                else f"{type(error).__name__}: {error}"
            )
            warnings.warn(
                f"repro graph store: discarding corrupt entry "
                f"{fingerprint[:12]}… ({reason}); recompiling",
                RuntimeWarning,
            )
            self._metrics.corrupt.inc()
            self.events.emit(
                "store_corrupt",
                fingerprint=fingerprint,
                reason=str(reason),
                fallback="recompile",
            )
            try:
                manifest_path.unlink()
            except OSError:
                pass
            return None
        self._metrics.hits.inc()
        self._metrics.load_bytes.inc(nbytes)
        self._metrics.load_seconds.observe(time.perf_counter() - started)
        self._touch(fingerprint)
        return compiled

    def _validate_and_map(
        self, fingerprint: str, manifest_text: str
    ) -> Tuple[CompiledGraph, int]:
        manifest = json.loads(manifest_text)
        version = manifest.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise _CorruptEntry(
                f"format version {version!r} != {STORE_FORMAT_VERSION}"
            )
        if manifest.get("fingerprint") != fingerprint:
            raise _CorruptEntry("manifest fingerprint mismatch")
        payload_dir = self._shard(fingerprint) / str(manifest["payload"])

        digests: Dict[str, str] = {}
        loaded: Dict[str, np.ndarray] = {}
        for name in _ARRAY_NAMES:
            spec = manifest["arrays"][name]
            array = np.load(payload_dir / f"{name}.npy", mmap_mode="r")
            if str(array.dtype) != spec["dtype"] or list(array.shape) != list(
                spec["shape"]
            ):
                raise _CorruptEntry(f"{name} dtype/shape mismatch")
            digests[name] = _digest_array(array)
            if digests[name] != spec["sha256"]:
                raise _CorruptEntry(f"{name} checksum mismatch")
            loaded[name] = array

        labels: Optional[List[Any]] = None
        labels_meta = manifest.get("labels")
        if labels_meta is not None:
            blob = (payload_dir / str(labels_meta["file"])).read_bytes()
            digests["labels"] = _digest_bytes(blob)
            if digests["labels"] != labels_meta["sha256"]:
                raise _CorruptEntry("label table checksum mismatch")
            labels = _decode_labels(json.loads(blob))
            if len(labels) != len(loaded["degrees"]):
                raise _CorruptEntry("label table length mismatch")

        if _combined_checksum(digests) != manifest.get("checksum"):
            raise _CorruptEntry("payload checksum mismatch")

        spectral = {
            ("admissible_c", str(solver), float(tol), int(iterations)): float(c)
            for solver, tol, iterations, c in manifest.get("spectral", [])
        }
        compiled = CompiledGraph.from_shared(
            indptr=loaded["indptr"],
            indices=loaded["indices"],
            degrees=loaded["degrees"],
            labels=labels,
            spectral=spectral,
        )
        compiled._fingerprint = fingerprint
        return compiled, int(manifest.get("nbytes", 0))

    # ------------------------------------------------------------------
    # GC
    # ------------------------------------------------------------------
    def remove(self, fingerprint: str) -> bool:
        """Delete one entry (manifest first, then payload); idempotent."""
        manifest = self.manifest(fingerprint)
        try:
            self._manifest_path(fingerprint).unlink()
        except OSError:
            return False
        if manifest is not None:
            payload_dir = self._shard(fingerprint) / str(
                manifest.get("payload", "")
            )
            shutil.rmtree(payload_dir, ignore_errors=True)
        self._forget(fingerprint)
        return True

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-accessed entries until the budget holds.

        Returns the payload bytes reclaimed.  Also sweeps orphaned
        payload directories (losers of concurrent-writer races, and
        payloads of removed entries) once they are old enough that no
        in-flight writer can still be about to commit them.  With no
        budget (``None`` here and at construction) only the orphan
        sweep runs.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget is not None and budget < 0:
            raise ConfigurationError(f"max_bytes must be >= 0, got {budget}")
        reclaimed = 0
        if budget is not None:
            log = self._read_access()
            entries: List[Tuple[float, str, int]] = []
            for fingerprint in self.fingerprints():
                manifest = self.manifest(fingerprint)
                if manifest is None:
                    continue
                accessed = log.get(
                    fingerprint, float(manifest.get("created_unix", 0))
                )
                entries.append(
                    (accessed, fingerprint, int(manifest.get("nbytes", 0)))
                )
            total = sum(nbytes for _, _, nbytes in entries)
            for accessed, fingerprint, nbytes in sorted(entries):
                if total <= budget:
                    break
                if self.remove(fingerprint):
                    total -= nbytes
                    reclaimed += nbytes
                    self._metrics.pruned.inc()
                    self._metrics.pruned_bytes.inc(nbytes)
        self._sweep_orphans()
        return reclaimed

    def _sweep_orphans(self) -> None:
        """Delete payload directories no committed manifest references."""
        now = time.time()
        try:
            shards = list(self.root.iterdir())
        except OSError:
            return
        for shard in shards:
            if not shard.is_dir() or shard.name == "tmp":
                continue
            referenced = set()
            for manifest_path in shard.glob("*.json"):
                manifest = self.manifest(manifest_path.stem)
                if manifest is not None:
                    referenced.add(str(manifest.get("payload", "")))
            for entry in shard.iterdir():
                if not entry.is_dir() or entry.name in referenced:
                    continue
                try:
                    age = now - entry.stat().st_mtime
                except OSError:
                    continue
                if age >= _ORPHAN_GRACE_SECONDS:
                    shutil.rmtree(entry, ignore_errors=True)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"GraphStore(root={str(self.root)!r}, "
            f"entries={len(self.fingerprints())}, "
            f"bytes={self.total_bytes()}, max_bytes={self.max_bytes})"
        )
