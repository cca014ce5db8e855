"""SLO reads: declared objectives evaluated over the service's own series.

An operator declares objectives with ``--slo``; :class:`SloTracker`
answers "is p99 inside its target, and how much error budget is left?"
by reading three series the serving stack already writes: the
``repro_service_latency_seconds`` histogram (ok responses only) and the
``ok`` / ``error`` children of ``repro_service_responses_total``.  It
keeps no state of its own, so its ``repro_slo_*`` gauges, the
``--stats-interval`` summary and the histogram's ``_bucket`` lines on
``GET /metrics`` read one source.

* **Quantile estimate** — ``histogram_quantile`` semantics: linear
  interpolation inside the first bucket whose cumulative count reaches
  ``q * count`` (from 0 in the first bucket); in the ``+Inf`` bucket,
  the last finite edge.  The exact nearest-rank quantile (the
  ``ceil(q * count)``-th smallest latency) lies in that same bucket, so
  the estimate is off by at most the bucket's width — and, in the
  ``+Inf`` bucket, is a lower bound.
* **Within target** — exact, not estimated: ``cumulative(le=target) >=
  q * count``.  The service buckets its latencies by
  :func:`latency_buckets`, so each declared target is a bucket edge.
* **Availability and error budget** — from the outcome counters over
  the service's lifetime; a scraper windows them with ``rate()`` over
  ``repro_service_responses_total``.

Objective grammar (comma-separated, case-insensitive):

=======================  ==============================================
clause                   meaning
=======================  ==============================================
``pNN[.N]:<seconds>[s]`` latency objective: the NN-th percentile should
                         stay at or under ``<seconds>`` (``p99:0.5s``,
                         ``p50:0.1``); quantile strictly in (0, 100)
``availability:<pct>``   success-rate objective in percent
                         (``availability:99.9``); in (0, 100]
=======================  ==============================================
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from .registry import DEFAULT_LATENCY_BUCKETS, Instruments, MetricsRegistry, gauge

__all__ = [
    "SLO_METRICS",
    "SloTracker",
    "latency_buckets",
    "parse_slo_spec",
]

#: The ``repro_slo_*`` gauges: reads over the service's series, bound
#: once per tracker.  The availability rows are bound only when an
#: availability objective is declared.
SLO_METRICS = {
    "latency": gauge(
        "repro_slo_latency_seconds",
        "Bucket-interpolated latency quantile of ok responses per "
        "declared objective",
        "objective",
    ),
    "target": gauge(
        "repro_slo_latency_target_seconds",
        "Declared latency target per objective",
        "objective",
    ),
    "within_target": gauge(
        "repro_slo_latency_within_target",
        "1 when the objective's share of ok responses finished within "
        "its target (exact: the target is a bucket edge), else 0",
        "objective",
    ),
    "availability": gauge(
        "repro_slo_availability_percent",
        "Lifetime success rate in percent, from "
        "repro_service_responses_total",
    ),
    "availability_target": gauge(
        "repro_slo_availability_target_percent",
        "Declared availability objective in percent",
    ),
    "error_budget_remaining": gauge(
        "repro_slo_error_budget_remaining",
        "Fraction of the lifetime error budget still unspent",
    ),
}


_LATENCY_CLAUSE = re.compile(r"^p(\d{1,2}(?:\.\d+)?)$")


def parse_slo_spec(spec: str) -> Dict[str, Any]:
    """Parse the ``--slo`` grammar into an objective dict.

    Returns ``{"latency": [(name, quantile, target_seconds), ...],
    "availability": percent_or_None}``.  Raises
    :class:`~repro.errors.ConfigurationError` on bad grammar.
    """
    latency: List[Tuple[str, float, float]] = []
    availability: Optional[float] = None
    seen = set()
    for raw_clause in spec.split(","):
        clause = raw_clause.strip()
        if not clause:
            continue
        if ":" not in clause:
            raise ConfigurationError(
                f"bad SLO clause {clause!r}: expected 'pNN:<seconds>' or "
                "'availability:<percent>'"
            )
        key, _, raw_target = clause.partition(":")
        key = key.strip().lower()
        raw_target = raw_target.strip()
        if key in seen:
            raise ConfigurationError(f"duplicate SLO objective {key!r}")
        seen.add(key)
        if key == "availability":
            try:
                percent = float(raw_target)
            except ValueError:
                raise ConfigurationError(
                    f"bad availability target {raw_target!r}: expected a "
                    "percentage like 99.9"
                ) from None
            if not 0.0 < percent <= 100.0:
                raise ConfigurationError(
                    f"availability target must be in (0, 100], got {percent}"
                )
            availability = percent
            continue
        match = _LATENCY_CLAUSE.match(key)
        if match is None:
            raise ConfigurationError(
                f"bad SLO objective {key!r}: expected 'pNN' (e.g. p99) or "
                "'availability'"
            )
        percent = float(match.group(1))
        if not 0.0 < percent < 100.0:
            raise ConfigurationError(
                f"latency quantile must be in (0, 100), got p{percent:g}"
            )
        if raw_target.endswith("s"):
            raw_target = raw_target[:-1]
        try:
            target = float(raw_target)
        except ValueError:
            raise ConfigurationError(
                f"bad latency target for {key!r}: expected seconds like "
                "'0.5s', got " + repr(raw_target)
            ) from None
        if target <= 0:
            raise ConfigurationError(
                f"latency target for {key!r} must be > 0, got {target}"
            )
        latency.append((key, percent / 100.0, target))
    if not latency and availability is None:
        raise ConfigurationError(
            f"SLO spec {spec!r} declares no objectives"
        )
    return {"latency": latency, "availability": availability}


def latency_buckets(objectives: Dict[str, Any]) -> Tuple[float, ...]:
    """The latency histogram's buckets under ``objectives``: the defaults
    plus each latency target, so :meth:`SloTracker.within_target` is exact."""
    targets = {target for _name, _q, target in objectives["latency"]}
    return tuple(sorted(targets.union(DEFAULT_LATENCY_BUCKETS)))


def _bucket_quantile(q: float, cumulative: List[Tuple[float, int]]) -> float:
    """``histogram_quantile`` over ``(upper_bound, cumulative_count)`` pairs."""
    rank = q * cumulative[-1][1]
    lower, below = 0.0, 0
    for upper, total in cumulative:
        if total >= rank:
            break
        lower, below = upper, total
    if total == 0:
        return math.nan
    if upper == math.inf:
        return lower
    # min: rounding can put lower + (upper - lower) a hair above upper.
    return min(upper, lower + (upper - lower) * (rank - below) / (total - below))


class SloTracker:
    """Declared objectives, read from the service's latency and outcome series.

    ``objectives`` is what :func:`parse_slo_spec` returns.  ``responses``
    is the service's bound ``SERVICE_METRICS``: the tracker reads its
    ``latency_seconds`` histogram (ok responses only, bucketed by
    :func:`latency_buckets`) and its ``ok`` and ``error`` counters.
    The :data:`SLO_METRICS` gauges are bound on ``registry``, each read
    through a callback.
    """

    def __init__(
        self,
        objectives: Dict[str, Any],
        responses: Instruments,
        registry: MetricsRegistry,
    ) -> None:
        #: objective name -> (quantile, target seconds), in spec order.
        self.latency: Dict[str, Tuple[float, float]] = {
            name: (q, target) for name, q, target in objectives["latency"]
        }
        self.availability_target: Optional[float] = objectives["availability"]
        self._latency = responses.latency_seconds
        self._ok = responses.ok
        self._error = responses.error
        edges = {bound for bound, _count in self._latency.cumulative()}
        for name, (_q, target) in self.latency.items():
            if target not in edges:
                raise ConfigurationError(
                    f"latency target {target:g}s of {name!r} is not a bucket "
                    "edge of the latency histogram"
                )
        self._export(registry)

    def quantile(self, name: str) -> float:
        """Bucket-interpolated latency estimate (NaN before any ok response)."""
        return _bucket_quantile(self.latency[name][0], self._latency.cumulative())

    def within_target(self, name: str) -> bool:
        """Whether at least the objective's share of ok responses finished
        within its target (True before any ok response)."""
        q, target = self.latency[name]
        cumulative = self._latency.cumulative()
        return dict(cumulative)[target] >= q * cumulative[-1][1]

    def counts(self) -> Tuple[int, int]:
        """``(ok, error)`` responses over the service's lifetime."""
        return int(self._ok.value), int(self._error.value)

    def availability_percent(self) -> float:
        """Lifetime success rate in percent (100.0 before any response)."""
        ok, error = self.counts()
        return 100.0 * ok / (ok + error) if ok + error else 100.0

    def error_budget_remaining(self) -> float:
        """Fraction of the allowed error rate still unspent.

        With target availability A, the budget is a ``1 - A/100`` error
        rate; the remaining fraction is ``1 - observed_rate / budget``,
        clamped to [0, 1] (0 means exhausted or overdrawn).  Returns 1.0
        when no availability objective is declared or no response has
        been rendered.
        """
        ok, error = self.counts()
        if self.availability_target is None or ok + error == 0:
            return 1.0
        budget = 1.0 - self.availability_target / 100.0
        if budget <= 0.0:
            return 0.0 if error else 1.0
        return max(0.0, min(1.0, 1.0 - error / (ok + error) / budget))

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view of every objective and its current state."""
        latency = {}
        for name, (_q, target) in self.latency.items():
            estimate = self.quantile(name)
            latency[name] = {
                "estimate_seconds": None if math.isnan(estimate) else estimate,
                "target_seconds": target,
                "within_target": self.within_target(name),
            }
        ok, error = self.counts()
        return {
            "latency": latency,
            "availability": {
                "percent": self.availability_percent(),
                "target_percent": self.availability_target,
                "ok": ok,
                "error": error,
                "error_budget_remaining": self.error_budget_remaining(),
            },
        }

    def summary(self) -> str:
        """One-line operator summary for the ``--stats-interval`` line.

        e.g. ``slo p99=0.412s/0.500s ok | avail 100.00%/99.9% budget=1.00``.
        """
        parts: List[str] = []
        for name, (_q, target) in self.latency.items():
            estimate = self.quantile(name)
            if math.isnan(estimate):
                parts.append(f"{name}=-/{target:.3f}s")
            else:
                flag = "ok" if self.within_target(name) else "VIOLATED"
                parts.append(f"{name}={estimate:.3f}s/{target:.3f}s {flag}")
        if self.availability_target is not None:
            parts.append(
                f"avail {self.availability_percent():.2f}%/"
                f"{self.availability_target:g}% "
                f"budget={self.error_budget_remaining():.2f}"
            )
        return "slo " + " | ".join(parts)

    def _export(self, registry: MetricsRegistry) -> None:
        table = SLO_METRICS
        if self.availability_target is None:
            # The latency rows are the ones with the ``objective`` label.
            table = {row: family for row, family in table.items() if family.labelnames}
        gauges = registry.bind(table)
        for name, (_q, target) in self.latency.items():
            gauges.latency.labels(objective=name).set_function(
                lambda name=name: _or_zero(self.quantile(name))
            )
            gauges.target.labels(objective=name).set(target)
            gauges.within_target.labels(objective=name).set_function(
                lambda name=name: float(self.within_target(name))
            )
        if self.availability_target is not None:
            gauges.availability.set_function(self.availability_percent)
            gauges.availability_target.set(self.availability_target)
            gauges.error_budget_remaining.set_function(
                self.error_budget_remaining
            )


def _or_zero(value: float) -> float:
    return 0.0 if math.isnan(value) else value
