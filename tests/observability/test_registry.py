"""MetricsRegistry unit contract: instruments, labels, rendering.

The registry is the single source of truth every serving layer
publishes into, so its semantics are pinned tightly: get-or-create
identity, type/label/bucket mismatch rejection, thread-safe counting,
gauge callbacks that survive failing owners, cumulative histogram
rendering in the Prometheus text format, and the no-op twin reading
all-zero.  Instruments are made the one way the program makes them:
by binding a table of rows.
"""

import math
import threading

import pytest

from repro.errors import ConfigurationError
from repro.observability import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    NullMetricsRegistry,
    counter,
    gauge,
    histogram,
)


def bind(registry, family):
    """Bind a one-row table: its series, or its family if a label is open."""
    return registry.bind({"row": family}).row


class TestCounters:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        total = bind(registry, counter("requests_total", "requests"))
        total.inc()
        total.inc(4)
        assert total.value == 5

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = bind(registry, counter("x_total", "x"))
        second = bind(registry, counter("x_total", "x"))
        assert first is second

    def test_labeled_children_are_independent_series(self):
        registry = MetricsRegistry()
        family = bind(registry, counter("rejects_total", "rejects", "reason"))
        family.labels(reason="full").inc(2)
        family.labels(reason="closed").inc()
        assert family.labels(reason="full").value == 2
        assert family.labels(reason="closed").value == 1

    def test_labels_by_position_and_keyword_hit_same_child(self):
        registry = MetricsRegistry()
        family = bind(registry, counter("y_total", "y", "kind"))
        family.labels("a").inc()
        family.labels(kind="a").inc()
        assert family.labels("a").value == 2

    def test_unlabeled_access_on_labeled_family_rejected(self):
        registry = MetricsRegistry()
        family = bind(registry, counter("z_total", "z", "kind"))
        with pytest.raises(ConfigurationError):
            family.labels().inc()
        assert not hasattr(family, "inc")  # a family is written per series

    def test_concurrent_increments_do_not_lose_counts(self):
        registry = MetricsRegistry()
        total = bind(registry, counter("c_total", "c"))

        def spin():
            for _ in range(1000):
                total.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert total.value == 8000


class TestRegistryIdentity:
    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        bind(registry, counter("thing", "as counter"))
        with pytest.raises(ConfigurationError):
            bind(registry, gauge("thing", "as gauge"))

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        bind(registry, counter("t_total", "t", "a"))
        with pytest.raises(ConfigurationError):
            bind(registry, counter("t_total", "t", "b"))

    def test_bucket_mismatch_rejected(self):
        registry = MetricsRegistry()
        bind(registry, histogram("b_seconds", "b", buckets=(0.1, 1.0)))
        bind(registry, histogram("b_seconds", "b", buckets=(0.1, 1.0)))
        with pytest.raises(ConfigurationError, match="buckets"):
            bind(registry, histogram("b_seconds", "b", buckets=(0.1, 0.3, 1.0)))
        with pytest.raises(ConfigurationError, match="buckets"):
            bind(registry, histogram("b_seconds", "b"))

    def test_default_buckets_match_themselves(self):
        registry = MetricsRegistry()
        bind(registry, histogram("d_seconds", "d"))
        bind(registry, histogram("d_seconds", "d", buckets=DEFAULT_LATENCY_BUCKETS))

    def test_bad_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            bind(registry, counter("bad-name", "hyphens are not allowed"))

    def test_registries_are_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        bind(a, counter("n_total", "n")).inc()
        assert bind(b, counter("n_total", "n")).value == 0


class TestGauges:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        level = bind(registry, gauge("depth", "depth"))
        level.set(5)
        level.inc(2)
        level.dec()
        assert level.value == 6

    def test_set_max_tracks_high_water(self):
        registry = MetricsRegistry()
        level = bind(registry, gauge("peak", "peak"))
        level.set_max(3)
        level.set_max(1)
        assert level.value == 3

    def test_callback_backed_reads(self):
        registry = MetricsRegistry()
        level = bind(registry, gauge("live", "live"))
        box = {"value": 7}
        level.set_function(lambda: box["value"])
        assert level.value == 7
        box["value"] = 9
        assert level.value == 9

    def test_failing_callback_degrades_to_zero(self):
        """A callback racing its component's shutdown must not take
        down a scrape."""
        registry = MetricsRegistry()
        level = bind(registry, gauge("racy", "racy"))

        def explode():
            raise RuntimeError("owner is gone")

        level.set_function(explode)
        assert level.value == 0.0
        assert "racy 0" in registry.render()


class TestHistograms:
    def test_observe_sum_count(self):
        registry = MetricsRegistry()
        dist = bind(registry, histogram("lat", "lat", buckets=(0.1, 1.0)))
        dist.observe(0.05)
        dist.observe(0.5)
        dist.observe(10.0)
        assert dist.count == 3
        assert dist.sum == pytest.approx(10.55)

    def test_cumulative_bucket_rendering(self):
        registry = MetricsRegistry()
        dist = bind(registry, histogram("lat", "lat", buckets=(0.1, 1.0)))
        for value in (0.05, 0.5, 10.0):
            dist.observe(value)
        text = registry.render()
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_inf_bucket_appended_automatically(self):
        registry = MetricsRegistry()
        bind(registry, histogram("h", "h", buckets=(1.0,)))
        (family,) = registry.instruments()
        assert family.buckets[-1] == math.inf

    def test_non_increasing_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            bind(registry, histogram("h", "h", buckets=(1.0, 1.0)))

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.001
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 30.0


class TestRendering:
    def test_help_type_and_samples(self):
        registry = MetricsRegistry()
        bind(registry, counter("a_total", "what a counts")).inc(3)
        family = bind(registry, counter("b_total", "b", "kind"))
        family.labels(kind="x").inc()
        text = registry.render()
        assert "# HELP a_total what a counts" in text
        assert "# TYPE a_total counter" in text
        assert "a_total 3" in text
        assert 'b_total{kind="x"} 1' in text
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        family = bind(registry, counter("e_total", "e", "path"))
        family.labels(path='a"b\\c\nd').inc()
        assert 'path="a\\"b\\\\c\\nd"' in registry.render()

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""

    def test_snapshot_flattens_series(self):
        registry = MetricsRegistry()
        bind(registry, counter("a_total", "a")).inc(2)
        family = bind(registry, counter("b_total", "b", "k"))
        family.labels(k="v").inc()
        bind(registry, histogram("h", "h", buckets=(1.0,))).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["a_total"] == 2
        assert snapshot['b_total{k="v"}'] == 1
        assert snapshot["h_count"] == 1
        assert snapshot["h_sum"] == pytest.approx(0.5)


class TestNullRegistry:
    def test_writes_accepted_reads_zero(self):
        registry = NullMetricsRegistry()
        total = bind(registry, counter("n_total", "n"))
        total.inc(100)
        assert total.value == 0
        level = bind(registry, gauge("g", "g"))
        level.set(5)
        assert level.value == 0
        dist = bind(registry, histogram("h", "h"))
        dist.observe(1.0)
        assert dist.count == 0

    def test_labels_and_render_are_inert(self):
        family = bind(NULL_REGISTRY, counter("l_total", "l", "k"))
        family.labels(k="x").inc()
        assert NULL_REGISTRY.render() == ""
        assert NULL_REGISTRY.snapshot() == {}


class TestThreadStorm:
    def test_concurrent_render_under_mutation(self):
        """Scrapes must survive a write storm: concurrent render() and
        snapshot() while counters increment, gauges move, histograms
        observe, and *new* label children appear — no exceptions, and
        every successive read of one counter is monotone."""
        registry = MetricsRegistry()
        total = bind(registry, counter("storm_total", "storm writes"))
        labeled = bind(
            registry,
            counter("storm_labeled_total", "storm labeled writes", "worker"),
        )
        level = bind(registry, gauge("storm_gauge", "storm gauge"))
        dist = bind(registry, histogram("storm_seconds", "storm latencies"))
        stop = threading.Event()
        errors = []

        def write(worker):
            i = 0
            try:
                while not stop.is_set():
                    total.inc()
                    labeled.labels(worker=f"w{worker}-{i % 50}").inc()
                    level.set(i)
                    dist.observe(i * 1e-4)
                    i += 1
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        def read():
            last = -1.0
            try:
                for _ in range(200):
                    text = registry.render()
                    assert "storm_total" in text
                    value = registry.snapshot()["storm_total"]
                    assert value >= last, "counter went backwards"
                    last = value
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        writers = [
            threading.Thread(target=write, args=(w,)) for w in range(4)
        ]
        readers = [threading.Thread(target=read) for _ in range(4)]
        for t in writers + readers:
            t.start()
        for t in readers:
            t.join()
        stop.set()
        for t in writers:
            t.join()
        assert errors == []
        # The final render is well-formed Prometheus text.
        for line in registry.render().splitlines():
            assert line.startswith("#") or " " in line
