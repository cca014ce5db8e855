"""Shared-memory graph shipping: export, attach, lifecycle, leaks."""

import gc
import os
import pickle
import warnings

import numpy as np
import pytest

from repro.errors import SessionClosedError
from repro.generators import ring_of_cliques
from repro.graph import Graph, compile_graph
from repro.graph.shm import (
    SEGMENT_PREFIX,
    ShmGraphDescriptor,
    attach_shared,
    export_shared,
    live_segment_names,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable on this platform"
)


def _dev_shm_entries():
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)
        }
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture()
def compiled():
    graph, _ = ring_of_cliques(4, 5)
    return compile_graph(graph)


@pytest.fixture()
def compiled_str():
    graph, _ = ring_of_cliques(4, 5)
    renamed = Graph(
        edges=[(f"n{u}", f"n{v}") for u, v in graph.edges()]
    )
    return compile_graph(renamed)


class TestExportAttach:
    def test_roundtrip_arrays_and_labels(self, compiled_str):
        segments = export_shared(compiled_str)
        try:
            attached = attach_shared(segments.descriptor)
            np.testing.assert_array_equal(attached.indptr, compiled_str.indptr)
            np.testing.assert_array_equal(attached.indices, compiled_str.indices)
            np.testing.assert_array_equal(attached.degrees, compiled_str.degrees)
            assert list(attached.labels) == list(compiled_str.labels)
        finally:
            segments.close()

    def test_identity_labels_skip_the_label_segment(self, compiled):
        segments = export_shared(compiled)
        try:
            assert segments.descriptor.labels is None
            assert len(segments.descriptor.segment_names) == 3
            attached = attach_shared(segments.descriptor)
            assert attached.identity_labels
        finally:
            segments.close()

    def test_attached_arrays_are_read_only(self, compiled):
        segments = export_shared(compiled)
        try:
            attached = attach_shared(segments.descriptor)
            with pytest.raises((ValueError, RuntimeError)):
                attached.indices[0] = 99
        finally:
            segments.close()

    @pytest.mark.parametrize("cliques, size", [(3, 3), (4, 5), (200, 20)])
    def test_attach_maps_the_exported_pages_without_copying(self, cliques, size):
        """A value written through the exporter's buffer shows up in the
        attached arrays, at every size: attach maps the segments and
        never copies them, so its cost does not grow with the graph."""
        compiled = compile_graph(ring_of_cliques(cliques, size)[0])
        segments = export_shared(compiled)
        try:
            attached = attach_shared(segments.descriptor)
            owned = {segment.name: segment for segment in segments._segments}
            for field in ("indptr", "indices", "degrees"):
                name, length = getattr(segments.descriptor, field)
                written = np.frombuffer(owned[name].buf, np.int32, count=length)
                try:
                    written[-1] += 1
                    expected = getattr(compiled, field)[-1] + 1
                    assert getattr(attached, field)[-1] == expected, field
                    written[-1] -= 1
                finally:
                    del written  # the buffer must be free before close
        finally:
            segments.close()

    def test_spectral_cache_ships_inline(self, compiled):
        compiled.spectral_cache[(0.001, 100, "power")] = 1.234
        segments = export_shared(compiled)
        try:
            attached = attach_shared(segments.descriptor)
            assert attached.spectral_cache[(0.001, 100, "power")] == 1.234
        finally:
            segments.close()

    def test_attach_cache_returns_one_graph_per_descriptor(self, compiled):
        segments = export_shared(compiled)
        try:
            first = attach_shared(segments.descriptor)
            second = attach_shared(segments.descriptor)
            assert first is second
        finally:
            segments.close()

    def test_descriptor_is_picklable_and_hashable(self, compiled_str):
        segments = export_shared(compiled_str)
        try:
            descriptor = segments.descriptor
            clone = pickle.loads(pickle.dumps(descriptor))
            assert clone == descriptor
            assert hash(clone) == hash(descriptor)
            assert clone.nodes() == compiled_str.number_of_nodes()
        finally:
            segments.close()


class TestLifecycle:
    def test_close_unlinks_every_segment(self, compiled_str):
        before = _dev_shm_entries()
        segments = export_shared(compiled_str)
        created = _dev_shm_entries() - before
        assert created == set(segments.descriptor.segment_names)
        segments.close()
        assert segments.closed
        assert _dev_shm_entries() == before
        assert not live_segment_names() & created

    def test_close_is_idempotent(self, compiled):
        segments = export_shared(compiled)
        segments.close()
        segments.close()
        assert segments.closed

    def test_attach_after_unlink_raises_session_closed(self, compiled):
        segments = export_shared(compiled)
        descriptor = segments.descriptor
        segments.close()
        with pytest.raises(SessionClosedError, match="unlinked"):
            attach_shared(descriptor)

    def test_attached_graph_survives_the_owner_unlink(self, compiled):
        # POSIX semantics: the pages live until the last unmap, so a
        # worker mid-detect keeps a valid graph even if the driver
        # unlinks early (the engine never does — it joins first — but
        # the mapping contract must hold regardless).
        segments = export_shared(compiled)
        attached = attach_shared(segments.descriptor)
        expected = np.asarray(compiled.indices).copy()
        segments.close()
        np.testing.assert_array_equal(attached.indices, expected)

    def test_abandoned_segments_warn_and_unlink(self, compiled):
        before = _dev_shm_entries()
        segments = export_shared(compiled)
        names = set(segments.descriptor.segment_names)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del segments
            gc.collect()
        assert any(
            issubclass(w.category, ResourceWarning)
            and "never released" in str(w.message)
            for w in caught
        )
        assert _dev_shm_entries() == before
        assert not live_segment_names() & names

    def test_live_segment_names_tracks_open_exports(self, compiled):
        segments = export_shared(compiled)
        assert set(segments.descriptor.segment_names) <= live_segment_names()
        segments.close()
        assert not set(segments.descriptor.segment_names) & live_segment_names()


class TestDescriptor:
    def test_segment_names_cover_all_segments(self, compiled_str):
        segments = export_shared(compiled_str)
        try:
            names = segments.descriptor.segment_names
            assert len(names) == 4  # three arrays + the label table
            assert all(name.startswith(SEGMENT_PREFIX) for name in names)
        finally:
            segments.close()

    def test_nodes_matches_the_compiled_graph(self, compiled):
        segments = export_shared(compiled)
        try:
            assert segments.descriptor.nodes() == compiled.number_of_nodes()
        finally:
            segments.close()

    def test_frozen(self):
        descriptor = ShmGraphDescriptor(
            indptr=("a", 1), indices=("b", 0), degrees=("c", 0), labels=None
        )
        with pytest.raises(Exception):
            descriptor.indptr = ("x", 2)
