"""Zero-copy shared-memory shipping of compiled CSR graphs.

A process pool that does not ``fork`` would ship a
:class:`~repro.graph.csr.CompiledGraph` to every worker by pickling it
through the pool initializer: three int32 arrays (plus the label table)
serialised, copied through a pipe, and deserialised once per worker.  This module replaces that copy with
``multiprocessing.shared_memory``: the driver *exports* the compiled
arrays once into named segments (:func:`export_shared`), and each worker
*attaches* to them by name (:func:`attach_shared`) — an O(1) ``mmap``
regardless of graph size — wrapping the mapped buffers in a
:class:`~repro.graph.csr.CompiledGraph` without copying a byte.

The attached arrays are locked read-only, the same immutability contract
the compiled form already promises (scipy matrix aliasing depends on it),
so every worker on the host shares one physical copy of the graph.

Lifecycle
---------
Segments are owned by whoever called :func:`export_shared` — in practice
the :class:`~repro.engine.ExecutionEngine` behind a session's persistent
pool.  :meth:`SharedGraphSegments.close` unlinks them; the engine calls
it *after* the worker pool has been joined, so no racing attach can hit
a vanished segment.  A :mod:`weakref` finalizer guards the owner path:
segments abandoned without ``close()`` are force-unlinked (at garbage
collection or interpreter exit) with a :class:`ResourceWarning` rather
than leaking ``/dev/shm`` entries.

Workers attach through a per-process cache keyed by segment names, so a
pool that re-ships an identical descriptor attaches exactly once; the
mapping stays valid even if the owner unlinks while a worker still holds
it (POSIX keeps the pages until the last unmap).  Attaching *after* the
owner unlinked raises :class:`~repro.errors.SessionClosedError` — the
segment's session is gone, and so is the graph.

On platforms without ``multiprocessing.shared_memory`` (or without a
usable ``/dev/shm``), :func:`shm_available` reports ``False`` and the
engine falls back to pickle shipping; nothing here is a hard
dependency.
"""

from __future__ import annotations

import os
import pickle
import secrets
import threading
import warnings
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import GraphError, SessionClosedError
from .csr import CompiledGraph

__all__ = [
    "shm_available",
    "ShmGraphDescriptor",
    "SharedGraphSegments",
    "export_shared",
    "attach_shared",
    "live_segment_names",
]

try:  # pragma: no cover - import guard exercised only where absent
    from multiprocessing.shared_memory import SharedMemory as _SharedMemory
except ImportError:  # pragma: no cover
    _SharedMemory = None

#: Every segment this module creates carries this prefix, so leak checks
#: (tests, CI's post-test /dev/shm assertion) can tell ours apart.
SEGMENT_PREFIX = "repro_shm_"

#: The CSR arrays are int32 by construction (see repro.graph.csr).
_DTYPE = np.int32

#: Names of owner-side segments currently linked in this process; the
#: accounting the lifecycle tests (and __repr__ debugging) read.
_LIVE_SEGMENTS: "set[str]" = set()
_LIVE_LOCK = threading.Lock()

_available: Optional[bool] = None


def shm_available() -> bool:
    """Whether shared-memory shipping can work in this process.

    Probes once (create + attach + unlink of a one-page segment) and
    caches the verdict: importability alone is not enough — containers
    occasionally mount ``/dev/shm`` unwritable.
    """
    global _available
    if _available is None:
        if _SharedMemory is None:
            _available = False
        else:
            try:
                probe = _SharedMemory(
                    create=True, size=1, name=_new_segment_name()
                )
                probe.close()
                probe.unlink()
                _available = True
            except OSError:
                _available = False
    return _available


def _new_segment_name() -> str:
    return SEGMENT_PREFIX + secrets.token_hex(8)


def _attach_segment(name: str) -> "_SharedMemory":
    """Attach to a named segment without adopting its lifetime.

    ``SharedMemory(create=False)`` registers the segment with the
    resource tracker on every Python up to 3.12; 3.13 grew
    ``track=False`` to skip that.  On older versions the duplicate
    registration is harmless *in our architecture*: attachers are
    always pool workers, which inherit the exporting driver's tracker
    (both fork and spawn pass the tracker fd down), and its cache is a
    set — the owner's unlink-time unregister still balances it.  Do
    NOT "fix" this by unregistering here: that would strip the owner's
    crash-safety registration from the shared tracker.
    """
    if _SharedMemory is None:
        raise GraphError(
            "multiprocessing.shared_memory is unavailable on this platform"
        )
    try:
        try:
            return _SharedMemory(name=name, create=False, track=False)
        except TypeError:  # Python < 3.13: no track parameter
            return _SharedMemory(name=name, create=False)
    except FileNotFoundError:
        raise SessionClosedError(
            f"shared-memory segment {name!r} has been unlinked; the "
            "session that exported it is closed"
        ) from None


def _neuter(segment: "_SharedMemory") -> None:
    """Detach a segment handle from its cleanup duties.

    After the numpy arrays are wrapped over ``segment.buf``, the mapping
    is kept alive by the arrays' base memoryview; the ``SharedMemory``
    wrapper's own ``__del__`` would only try to ``close()`` underneath
    live exports and spray ``BufferError: cannot close exported
    pointers exist`` at interpreter exit.  Dropping its fd and buffer
    references makes its destructor inert — the pages are released when
    the last array unmaps, the name when the owner unlinks.
    """
    fd = getattr(segment, "_fd", -1)
    if fd >= 0:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass
        segment._fd = -1
    segment._buf = None
    segment._mmap = None


@dataclass(frozen=True)
class ShmGraphDescriptor:
    """The picklable recipe for attaching one exported compiled graph.

    A few strings and integers — *this* is what crosses the process
    boundary instead of the arrays.  ``spectral`` carries the compiled
    graph's spectral cache inline (a handful of floats; shipping them
    saves every attaching worker a full power-method run, exactly like
    the pickle path does).

    Hashable, so it doubles as the worker-side attach-cache key.
    """

    indptr: Tuple[str, int]
    indices: Tuple[str, int]
    degrees: Tuple[str, int]
    labels: Optional[Tuple[str, int]]
    spectral: Tuple[Tuple[tuple, float], ...] = ()

    @property
    def segment_names(self) -> Tuple[str, ...]:
        """Every segment name this descriptor references."""
        names = [self.indptr[0], self.indices[0], self.degrees[0]]
        if self.labels is not None:
            names.append(self.labels[0])
        return tuple(names)

    def nodes(self) -> int:
        """Node count, recovered from the degrees segment length."""
        return self.degrees[1]


class SharedGraphSegments:
    """Owner handle over one exported graph's shared-memory segments.

    Created by :func:`export_shared`; owns the segments until
    :meth:`close` unlinks them.  The finalizer guard means an abandoned
    instance still cleans up ``/dev/shm`` — loudly, with a
    :class:`ResourceWarning`, because the owner was supposed to call
    :meth:`close` after joining its workers.
    """

    def __init__(
        self,
        descriptor: ShmGraphDescriptor,
        segments: List["_SharedMemory"],
        nbytes: int,
    ) -> None:
        self.descriptor = descriptor
        self.nbytes = nbytes
        self._segments = segments
        self._closed = False
        names = descriptor.segment_names
        with _LIVE_LOCK:
            _LIVE_SEGMENTS.update(names)
        self._finalizer = weakref.finalize(
            self, _force_unlink, list(segments), names
        )

    @property
    def closed(self) -> bool:
        """Whether the segments have been unlinked."""
        return self._closed

    def close(self) -> None:
        """Unlink every segment; idempotent.

        Callers must only do this once no more attaches can race in —
        for the engine that means after the worker pool has been joined.
        Workers already attached keep their (now anonymous) mapping; the
        pages are released when the last of them unmaps.
        """
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _release(self._segments)
        with _LIVE_LOCK:
            _LIVE_SEGMENTS.difference_update(self.descriptor.segment_names)
        self._segments = []

    def __repr__(self) -> str:
        state = "closed" if self._closed else "linked"
        return (
            f"SharedGraphSegments(n={self.descriptor.nodes()}, "
            f"nbytes={self.nbytes}, {state})"
        )


def _release(segments: List["_SharedMemory"]) -> None:
    for segment in segments:
        try:
            segment.close()
            segment.unlink()
        except OSError:  # pragma: no cover - already gone
            pass


def _force_unlink(segments: List["_SharedMemory"], names: Tuple[str, ...]) -> None:
    """Finalizer body: reclaim abandoned segments, but complain.

    Runs at garbage collection or interpreter shutdown when the owner
    never called :meth:`SharedGraphSegments.close`.  A warning, not a
    crash: by the time this fires the only useful action left is to
    stop the leak.
    """
    warnings.warn(
        "shared-memory graph segments "
        + ", ".join(names)
        + " were never released; force-unlinking (the owning engine or "
        "session should have been closed)",
        ResourceWarning,
        stacklevel=2,
    )
    _release(segments)
    with _LIVE_LOCK:
        _LIVE_SEGMENTS.difference_update(names)


def live_segment_names() -> "set[str]":
    """Owner-side segments currently linked by this process.

    Empty whenever every export has been closed — the assertion the
    lifecycle tests (and CI's post-test leak check) make.
    """
    with _LIVE_LOCK:
        return set(_LIVE_SEGMENTS)


def _export_array(array: np.ndarray) -> Tuple["_SharedMemory", Tuple[str, int]]:
    segment = _SharedMemory(
        create=True, size=max(1, array.nbytes), name=_new_segment_name()
    )
    view = np.frombuffer(segment.buf, dtype=_DTYPE, count=len(array))
    view[:] = array
    return segment, (segment.name, len(array))


def export_shared(compiled: CompiledGraph) -> SharedGraphSegments:
    """Copy a compiled graph's arrays into named shared-memory segments.

    One O(n + m) copy, paid once per (graph, pool); every worker attach
    after it is O(1).  The label table (for non-identity labels) ships
    as a fourth, pickled segment; the spectral cache rides inline on the
    descriptor.
    """
    if not shm_available():
        raise GraphError(
            "shared-memory shipping is unavailable on this platform "
            "(multiprocessing.shared_memory missing or /dev/shm unusable)"
        )
    segments: List["_SharedMemory"] = []
    try:
        indptr_seg, indptr_spec = _export_array(compiled.indptr)
        segments.append(indptr_seg)
        indices_seg, indices_spec = _export_array(compiled.indices)
        segments.append(indices_seg)
        degrees_seg, degrees_spec = _export_array(compiled.degrees)
        segments.append(degrees_seg)
        labels_spec = None
        if not compiled.identity_labels:
            blob = pickle.dumps(compiled.labels, pickle.HIGHEST_PROTOCOL)
            labels_seg = _SharedMemory(
                create=True, size=max(1, len(blob)), name=_new_segment_name()
            )
            labels_seg.buf[: len(blob)] = blob
            segments.append(labels_seg)
            labels_spec = (labels_seg.name, len(blob))
    except BaseException:
        _release(segments)
        raise
    descriptor = ShmGraphDescriptor(
        indptr=indptr_spec,
        indices=indices_spec,
        degrees=degrees_spec,
        labels=labels_spec,
        spectral=tuple(sorted(compiled.spectral_cache.items())),
    )
    nbytes = sum(segment.size for segment in segments)
    return SharedGraphSegments(descriptor, segments, nbytes)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-process attach cache: one CompiledGraph per descriptor, so a pool
#: that re-ships the same graph (worker respawn, context re-send) maps
#: the segments exactly once per process.
_ATTACHED: Dict[ShmGraphDescriptor, CompiledGraph] = {}
_ATTACHED_LOCK = threading.Lock()


def _wrap_segment(segment: "_SharedMemory", length: int) -> np.ndarray:
    array = np.frombuffer(segment.buf, dtype=_DTYPE, count=length)
    array.setflags(write=False)
    return array


def attach_shared(descriptor: ShmGraphDescriptor) -> CompiledGraph:
    """A zero-copy :class:`CompiledGraph` over exported segments.

    The returned graph's arrays alias the shared pages directly (no
    copy, read-only) and keep the mappings alive for the graph's
    lifetime.  Raises :class:`~repro.errors.SessionClosedError` when the
    owner has already unlinked the segments.
    """
    with _ATTACHED_LOCK:
        cached = _ATTACHED.get(descriptor)
        if cached is not None:
            return cached
    segments: List["_SharedMemory"] = []
    try:
        indptr_seg = _attach_segment(descriptor.indptr[0])
        segments.append(indptr_seg)
        indices_seg = _attach_segment(descriptor.indices[0])
        segments.append(indices_seg)
        degrees_seg = _attach_segment(descriptor.degrees[0])
        segments.append(degrees_seg)
        labels: Optional[list] = None
        if descriptor.labels is not None:
            name, blob_len = descriptor.labels
            labels_seg = _attach_segment(name)
            try:
                labels = pickle.loads(bytes(labels_seg.buf[:blob_len]))
            finally:
                # The label table is copied out; its segment need not
                # stay mapped in this process.
                labels_seg.close()
        compiled = CompiledGraph.from_shared(
            indptr=_wrap_segment(indptr_seg, descriptor.indptr[1]),
            indices=_wrap_segment(indices_seg, descriptor.indices[1]),
            degrees=_wrap_segment(degrees_seg, descriptor.degrees[1]),
            labels=labels,
            spectral={key: value for key, value in descriptor.spectral},
            retained=tuple(segments),
        )
        # From here the arrays own the mappings; the handles must not
        # try to close underneath them at garbage collection.
        for segment in segments:
            _neuter(segment)
    except BaseException:
        for segment in segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover
                pass
        raise
    with _ATTACHED_LOCK:
        return _ATTACHED.setdefault(descriptor, compiled)
