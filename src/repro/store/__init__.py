"""Warm-start persistence: compiled graphs that survive the process.

The serving stack's expensive per-graph artifacts — the compiled CSR
arrays, the label table, and the cached spectral ``c`` — used to live
only in process memory: every restart, and every newly spawned shard,
paid the full compile-plus-solve cold start (~9 s at n = 20k) for every
graph again.  This package is the persistence layer that closes the
gap:

* :mod:`~repro.store.store` — :class:`GraphStore`, a fingerprint-keyed
  on-disk store of compiled graphs: atomically committed manifests,
  per-file SHA-256 validation before any entry is served, read-only
  mmap loads, a persisted access log, and a size-budgeted LRU GC
  (:meth:`GraphStore.prune`);
* :mod:`~repro.store.warmer` — :class:`StoreWarmer`, which pre-warms
  the top-N most-recently-used fingerprints into a
  :class:`~repro.serving.SessionManager` at startup, so a restarted
  server answers its first popular-graph request warm.

Quickstart::

    from repro.serving import SessionManager
    from repro.store import GraphStore, StoreWarmer

    store = GraphStore("var/graph-store", max_bytes=512 * 1024 * 1024)
    with SessionManager(max_sessions=4, store=store) as manager:
        StoreWarmer(store, manager).warm()        # restart -> warm
        result = manager.detect(graph, "oca", seed=7)
        result.stats["session_source"]            # "warm" | "store" | "compiled"

The store is a **pure cache**: covers served from store-loaded graphs
are byte-identical to freshly compiled ones (pinned by the acceptance
matrix in ``tests/store/``), and deleting the store directory costs
only warm-start time.
"""

from .store import STORE_FORMAT_VERSION, GraphStore
from .warmer import StoreWarmer

__all__ = [
    "GraphStore",
    "StoreWarmer",
    "STORE_FORMAT_VERSION",
]
