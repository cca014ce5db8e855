"""SLO contract: spec grammar, and objectives read from the service's series.

The tracker keeps no account of its own: its quantile is
``histogram_quantile`` over ``repro_service_latency_seconds``, its
within-target flag is exact at each declared target (a bucket edge),
and its availability and budget are the ok/error counters of
``repro_service_responses_total``.
"""

import bisect
import json
import math
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.generators import ring_of_cliques
from repro.observability import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    SloTracker,
    parse_slo_spec,
)
from repro.observability.slo import latency_buckets
from repro.serving import ServingService
from repro.serving.service import SERVICE_METRICS


# ----------------------------------------------------------------------
# Spec grammar
# ----------------------------------------------------------------------
class TestParseSloSpec:
    def test_full_grammar(self):
        parsed = parse_slo_spec("p99:0.5s,availability:99.9")
        assert parsed["latency"] == [("p99", 0.99, 0.5)]
        assert parsed["availability"] == 99.9

    def test_unit_suffix_is_optional(self):
        assert parse_slo_spec("p99:0.5")["latency"] == [("p99", 0.99, 0.5)]

    def test_multiple_latency_objectives(self):
        parsed = parse_slo_spec("p50:0.1s,p99.9:2s")
        names = [(name, target) for name, _q, target in parsed["latency"]]
        assert names == [("p50", 0.1), ("p99.9", 2.0)]
        quantiles = [q for _n, q, _t in parsed["latency"]]
        assert quantiles == [pytest.approx(0.5), pytest.approx(0.999)]
        assert parsed["availability"] is None

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "p99",
            "p0:1s",            # quantile of zero
            "p100:1s",          # three digits / quantile of one
            "p99:-1s",
            "p99:fast",
            "availability:101",
            "availability:nope",
            "p99:0.5s,p99:1s",  # duplicate objective
            "latency:0.5s",
        ],
    )
    def test_rejects_bad_grammar(self, bad):
        with pytest.raises(ConfigurationError):
            parse_slo_spec(bad)


# ----------------------------------------------------------------------
# The tracker over bound service series
# ----------------------------------------------------------------------
def _tracker(spec):
    """A tracker over a fresh registry, bound as the service binds it."""
    objectives = parse_slo_spec(spec)
    latency = SERVICE_METRICS["latency_seconds"]
    table = {
        **SERVICE_METRICS,
        "latency_seconds": latency._replace(buckets=latency_buckets(objectives)),
    }
    registry = MetricsRegistry()
    series = registry.bind(table)
    return SloTracker(objectives, series, registry), series, registry


def _serve(series, latencies, errors=0):
    """Write what the service writes: ok latencies, then the outcomes."""
    for latency in latencies:
        series.latency_seconds.observe(latency)
        series.ok.inc()
    for _ in range(errors):
        series.error.inc()


def _edges(histogram):
    return tuple(bound for bound, _count in histogram.cumulative())


def _nearest_rank(q, latencies):
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class TestQuantileEstimate:
    @settings(max_examples=200, deadline=None)
    @given(
        latencies=st.lists(
            st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=60
        ),
        percent=st.sampled_from([50, 90, 99, 99.9]),
    )
    def test_estimate_lies_in_the_exact_quantiles_bucket(self, latencies, percent):
        tracker, series, _registry = _tracker(f"p{percent}:0.3s")
        _serve(series, latencies)
        exact = _nearest_rank(percent / 100.0, latencies)
        edges = _edges(series.latency_seconds)
        index = bisect.bisect_left(edges, exact)  # the le bucket holding it
        lower = edges[index - 1] if index else 0.0
        upper = edges[index]
        estimate = tracker.quantile(f"p{percent}")
        assert lower <= estimate <= upper
        if upper != math.inf:
            assert abs(estimate - exact) <= upper - lower

    def test_inf_bucket_reads_the_last_finite_edge(self):
        tracker, series, _registry = _tracker("p50:0.3s")
        _serve(series, [45.0, 50.0, 55.0])
        assert tracker.quantile("p50") == 30.0

    def test_no_ok_response_is_nan_and_within_target(self):
        tracker, _series, registry = _tracker("p99:0.5s")
        assert math.isnan(tracker.quantile("p99"))
        assert tracker.within_target("p99") is True
        snapshot = registry.snapshot()
        assert snapshot['repro_slo_latency_seconds{objective="p99"}'] == 0.0
        assert snapshot['repro_slo_latency_within_target{objective="p99"}'] == 1.0


class TestWithinTarget:
    """``p99:0.3s``: 0.3 is not a default edge, so the service adds it."""

    def test_target_becomes_a_bucket_edge(self):
        _tracker_, series, _registry = _tracker("p99:0.3s")
        assert 0.3 not in DEFAULT_LATENCY_BUCKETS
        assert 0.3 in _edges(series.latency_seconds)

    def test_exactly_the_quantile_at_the_target_is_within(self):
        tracker, series, _registry = _tracker("p99:0.3s")
        _serve(series, [0.3] * 99 + [0.31])
        assert _nearest_rank(0.99, [0.3] * 99 + [0.31]) == 0.3
        assert tracker.within_target("p99") is True
        assert "p99=" in tracker.summary() and "VIOLATED" not in tracker.summary()

    def test_one_response_past_the_target_violates(self):
        tracker, series, _registry = _tracker("p99:0.3s")
        _serve(series, [0.3] * 98 + [0.31] * 2)
        assert _nearest_rank(0.99, [0.3] * 98 + [0.31] * 2) == 0.31
        assert tracker.within_target("p99") is False
        assert "VIOLATED" in tracker.summary()

    def test_target_off_every_bucket_edge_is_refused(self):
        registry = MetricsRegistry()
        series = registry.bind(SERVICE_METRICS)
        with pytest.raises(ConfigurationError, match="bucket edge"):
            SloTracker(parse_slo_spec("p99:0.3s"), series, registry)


class TestAvailability:
    def test_read_from_the_outcome_counters(self):
        tracker, series, _registry = _tracker("p50:1s,availability:99.0")
        _serve(series, [0.2] * 99, errors=1)
        assert tracker.counts() == (99, 1)
        assert tracker.availability_percent() == pytest.approx(99.0)
        # Budget exactly consumed: 1% allowed, 1% observed.
        assert tracker.error_budget_remaining() == pytest.approx(0.0, abs=1e-9)

    def test_idle_service_is_fully_available(self):
        tracker, _series, _registry = _tracker("availability:99.9")
        assert tracker.availability_percent() == 100.0
        assert tracker.error_budget_remaining() == 1.0

    def test_errors_do_not_feed_latency(self):
        tracker, series, _registry = _tracker("p50:1s")
        _serve(series, [], errors=3)
        assert math.isnan(tracker.quantile("p50"))
        assert tracker.counts() == (0, 3)

    def test_availability_gauges_only_with_an_availability_objective(self):
        _tracker_, _series, registry = _tracker("p99:0.5s")
        assert "repro_slo_availability_percent" not in registry.render()
        _tracker_, _series, registry = _tracker("p99:0.5s,availability:99.9")
        assert "repro_slo_availability_percent 100" in registry.render()


# ----------------------------------------------------------------------
# On a service: one source for gauges, snapshot() and the buckets
# ----------------------------------------------------------------------
_BUCKET = re.compile(r'^repro_service_latency_seconds_bucket\{le="([^"]+)"\} (\d+)$')


def _quantile_from_scrape(text, q):
    """``histogram_quantile`` recomputed from the rendered bucket lines."""
    buckets = [
        (float(match.group(1).replace("+Inf", "inf")), int(match.group(2)))
        for match in map(_BUCKET.match, text.splitlines())
        if match
    ]
    rank = q * buckets[-1][1]
    lower, below = 0.0, 0
    for upper, total in buckets:
        if total >= rank:
            if upper == math.inf:
                return lower
            return lower + (upper - lower) * (rank - below) / (total - below)
        lower, below = upper, total


def test_gauges_snapshot_and_buckets_read_the_same_numbers():
    graph, _ = ring_of_cliques(4, 5)
    good = json.dumps({"graph": {"edges": [[u, v] for u, v in graph.edges()]}, "seed": 1})
    bad = json.dumps({"graph": {"edges": [[0, 1]]}, "algorithm": "nope"})
    with ServingService(slo="p50:0.3s,p99:0.5s,availability:99.9") as service:
        responses = list(service.handle_lines([good] * 6 + [bad]))
        text = service.registry.render()
        samples = service.registry.snapshot()
        snapshot = service.slo.snapshot()
    assert [response["ok"] for response in responses] == [True] * 6 + [False]
    assert 'repro_service_latency_seconds_bucket{le="0.3"}' in text
    for name, q in (("p50", 0.5), ("p99", 0.99)):
        from_buckets = _quantile_from_scrape(text, q)
        assert snapshot["latency"][name]["estimate_seconds"] == pytest.approx(from_buckets)
        assert samples[f'repro_slo_latency_seconds{{objective="{name}"}}'] == pytest.approx(
            from_buckets
        )
        within = samples[f'repro_slo_latency_within_target{{objective="{name}"}}']
        assert within == float(snapshot["latency"][name]["within_target"])
    assert samples['repro_service_responses_total{status="ok"}'] == snapshot["availability"]["ok"] == 6
    assert samples['repro_service_responses_total{status="error"}'] == snapshot["availability"]["error"] == 1
    assert samples["repro_slo_availability_percent"] == pytest.approx(600 / 7)
    assert samples["repro_slo_availability_percent"] == snapshot["availability"]["percent"]
    assert samples["repro_slo_error_budget_remaining"] == 0.0
    assert samples["repro_service_latency_seconds_count"] == 6


def test_service_without_slo_binds_the_default_buckets():
    with ServingService() as service:
        assert service.slo is None
        edges = _edges(service._metrics.latency_seconds)
    assert edges == DEFAULT_LATENCY_BUCKETS + (math.inf,)


def test_bucket_clash_on_a_shared_registry_starts_nothing():
    registry = MetricsRegistry()
    with ServingService(registry=registry):
        pass
    threads = threading.active_count()
    with pytest.raises(ConfigurationError, match="buckets"):
        ServingService(registry=registry, slo="p99:0.3s")
    assert threading.active_count() == threads


def test_slo_on_a_null_registry_is_refused():
    with pytest.raises(ConfigurationError, match="NullMetricsRegistry"):
        ServingService(registry=NULL_REGISTRY, slo="p99:0.5s")
