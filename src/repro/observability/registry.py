"""MetricsRegistry: process-wide counters, gauges, and histograms.

The serving stack already *computes* everything an operator needs —
queue admission, session-cache outcomes, front-end traffic, engine
timings.  The registry gives those numbers one home with one contract:

* **instruments** — :class:`Counter` (monotone totals),
  :class:`Gauge` (set / add / tracked maxima / callback-backed reads),
  and :class:`Histogram` (fixed buckets, cumulative counts + sum) —
  created once by name and shared by every holder of the same registry;
* **labels** — a family may declare label names
  (``counter("x_total", "…", "reason")``); each distinct label-value
  tuple gets its own child series, rendered Prometheus-style as
  ``x_total{reason="full"} 3``;
* **rendering** — :meth:`MetricsRegistry.render` emits the Prometheus
  text exposition format (``# HELP`` / ``# TYPE`` / samples; histograms
  as cumulative ``_bucket{le=…}`` plus ``_sum`` / ``_count``), which is
  exactly what the HTTP front-end's ``GET /metrics`` serves — no client
  library dependency, the format is plain text;
* **snapshots** — :meth:`MetricsRegistry.snapshot` returns the same
  numbers as a flat dict for the periodic stats line and for tests;
* **tables** — a component declares its instruments once, as a dict
  from ``stats`` name to :class:`Family` rows (kind, name, HELP text,
  label names, buckets, fixed label values) in its own module;
  :meth:`MetricsRegistry.bind`, the only way to create an instrument,
  turns the table into :class:`Instruments`, one writable series (or
  open family) per row;
* **views** — :class:`StatsView` is a component's ``.stats`` over those
  same bound rows, so the writers, Python callers and ``GET /metrics``
  read one source; only derived reads (``hit_rate``, …) are written by
  hand.

Everything is thread-safe: the serving stack publishes from queue
worker threads, the asyncio loop, and executor threads concurrently.
Registries are cheap, independent instances — each serving stack wires
*one* registry through all of its layers (manager, queue, sessions,
front-ends), while standalone components default to a private registry
so unit-level accounting never bleeds across instances.

:data:`NULL_REGISTRY` is a shared no-op implementation: every
instrument accepts writes and reports zero, for a deploy that scrapes
nothing.  (perfbench does not measure instrumentation overhead through
it: its ledger takes traced minus untraced latency.)
"""

from __future__ import annotations

import math
import re
import threading
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "Family",
    "Instruments",
    "StatsView",
    "counter",
    "gauge",
    "histogram",
]

#: Prometheus metric / label name grammar (colons are reserved for
#: recording rules, so user-facing instruments stay letters/digits/_).
_NAME_PATTERN = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for request/detect latencies: sub-ms to
#: tens of seconds, roughly logarithmic — wide enough for a warm 300-node
#: detect and a cold 20k-node one on the same instrument.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


def _histogram_bounds(name: str, buckets: Sequence[float]) -> Tuple[float, ...]:
    """Strictly increasing upper bounds, ``+Inf`` appended if missing."""
    bounds = tuple(float(bound) for bound in buckets)
    if not bounds:
        raise ConfigurationError(f"{name}: histogram needs >= 1 bucket")
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ConfigurationError(
            f"{name}: histogram buckets must strictly increase, got {bounds}"
        )
    return bounds if bounds[-1] == math.inf else bounds + (math.inf,)


def _validate_name(kind: str, name: str) -> None:
    if not _NAME_PATTERN.match(name):
        raise ConfigurationError(
            f"invalid {kind} name {name!r}: must match "
            f"{_NAME_PATTERN.pattern}"
        )


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects.

    Integral values render without a fractional part (``5`` not
    ``5.0``) — scrape-size friendly and exactly what counters are.
    """
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _labels_suffix(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class _Instrument:
    """Shared family machinery: label handling and child management."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
    ) -> None:
        _validate_name("metric", name)
        for label in labelnames:
            _validate_name("label", label)
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: "Dict[Tuple[str, ...], Any]" = {}

    # Child construction is subclass-specific.
    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, *labelvalues: Any, **labelkwargs: Any):
        """The child series for one label-value combination.

        Accepts either positional values (in ``labelnames`` order) or
        keyword values; mixing is rejected.  Children are created on
        first use and live for the registry's lifetime.
        """
        if labelvalues and labelkwargs:
            raise ConfigurationError(
                f"{self.name}: pass label values positionally or by "
                "keyword, not both"
            )
        if labelkwargs:
            if set(labelkwargs) != set(self.labelnames):
                raise ConfigurationError(
                    f"{self.name}: expected labels {self.labelnames}, "
                    f"got {tuple(sorted(labelkwargs))}"
                )
            values = tuple(str(labelkwargs[name]) for name in self.labelnames)
        else:
            if len(labelvalues) != len(self.labelnames):
                raise ConfigurationError(
                    f"{self.name}: expected {len(self.labelnames)} label "
                    f"value(s) for {self.labelnames}, got {len(labelvalues)}"
                )
            values = tuple(str(value) for value in labelvalues)
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._make_child()
                self._children[values] = child
            return child

    def children(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """Stable (insertion-ordered) snapshot of the child series."""
        with self._lock:
            return list(self._children.items())


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Counter(_Instrument):
    """A (near-)monotone total.  ``inc`` is the only write.

    The one sanctioned exception to monotonicity is the session
    manager's lost-race rollback, which retracts a provisional
    hit/miss count with a negative ``inc`` — rare, tiny, and preferable
    to stats that double-count a retried request.
    """

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()


class _GaugeChild:
    __slots__ = ("_lock", "_value", "_function")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0
        self._function: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_max(self, value: float) -> None:
        """Track a high-water mark: keep the larger of old and new."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    def set_function(self, function: Callable[[], float]) -> None:
        """Make reads call ``function()`` — for live values (queue
        depth, resident sessions) that already have one owner."""
        with self._lock:
            self._function = function

    @property
    def value(self) -> float:
        with self._lock:
            function = self._function
            if function is None:
                return self._value
        # Called unlocked: the function may take its owner's lock.
        try:
            return float(function())
        except Exception:
            # A callback racing its component's shutdown must degrade
            # to a stale read, never take down a scrape.
            return 0.0


class Gauge(_Instrument):
    """A value that can go anywhere: set, add, subtract, or callback."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()


class _HistogramChild:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * len(bounds)  # per-bucket (non-cumulative)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self._bounds):
                if value <= bound:
                    self._counts[index] += 1
                    break

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        with self._lock:
            total = 0
            out = []
            for bound, count in zip(self._bounds, self._counts):
                total += count
                out.append((bound, total))
            return out


class Histogram(_Instrument):
    """Fixed-bucket distribution: ``observe`` values, render cumulative.

    Buckets are upper bounds in increasing order; a ``+Inf`` bucket is
    appended automatically.  Bucket layout is fixed at creation — the
    registry's whole point is that a scrape at any moment is consistent.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help_text, labelnames)
        self.buckets = _histogram_bounds(name, buckets)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)


class MetricsRegistry:
    """One process-wide (or stack-wide) home for every instrument.

    Instruments are created only by :meth:`bind`, get-or-create by
    name: the first table fixes the type, help text, label names and
    buckets; a later table declaring the same name gets the same family
    back (a different type, label names or buckets raises
    :class:`~repro.errors.ConfigurationError` — silent aliasing is how
    dashboards lie).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: "Dict[str, _Instrument]" = {}

    def _get_or_create(
        self, cls, name: str, help_text: str, labelnames: Sequence[str], **kwargs
    ):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {cls.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ConfigurationError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, requested {tuple(labelnames)}"
                    )
                if isinstance(existing, Histogram):
                    requested = _histogram_bounds(
                        name, kwargs.get("buckets", DEFAULT_LATENCY_BUCKETS)
                    )
                    if existing.buckets != requested:
                        raise ConfigurationError(
                            f"metric {name!r} already registered with "
                            f"buckets {existing.buckets}, requested {requested}"
                        )
                return existing
            instrument = cls(name, help_text, labelnames=labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def bind(self, table: Mapping[str, "Family"], **constants: Any) -> "Instruments":
        """Create (or fetch) every family ``table`` declares.

        Returns the writers' handles, one per row (see
        :class:`Instruments`); ``constants`` fix a label value for every
        row that declares that label.
        """
        return Instruments(self, table, constants)

    def instruments(self) -> List[_Instrument]:
        """Registration-ordered snapshot of every family."""
        with self._lock:
            return list(self._instruments.values())

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def render(self) -> str:
        """The Prometheus text exposition of every instrument.

        Format reference: one ``# HELP`` + ``# TYPE`` block per family,
        samples as ``name{labels} value``, histograms as cumulative
        ``_bucket{le="…"}`` series plus ``_sum`` and ``_count``.
        """
        lines: List[str] = []
        for instrument in self.instruments():
            help_text = instrument.help.replace("\\", "\\\\").replace(
                "\n", "\\n"
            )
            lines.append(f"# HELP {instrument.name} {help_text}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            for labelvalues, child in instrument.children():
                suffix = _labels_suffix(instrument.labelnames, labelvalues)
                if isinstance(instrument, Histogram):
                    for bound, cumulative in child.cumulative():
                        le = _format_value(bound)
                        if suffix:
                            bucket_labels = (
                                suffix[:-1] + f',le="{le}"' + "}"
                            )
                        else:
                            bucket_labels = f'{{le="{le}"}}'
                        lines.append(
                            f"{instrument.name}_bucket{bucket_labels} "
                            f"{cumulative}"
                        )
                    lines.append(
                        f"{instrument.name}_sum{suffix} "
                        f"{_format_value(child.sum)}"
                    )
                    lines.append(
                        f"{instrument.name}_count{suffix} {child.count}"
                    )
                else:
                    lines.append(
                        f"{instrument.name}{suffix} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> Dict[str, float]:
        """Every sample as a flat ``name{labels} -> value`` mapping.

        Histograms contribute ``name_sum`` and ``name_count`` (buckets
        are an exposition concern).  The periodic stats line and the
        metrics tests both read this.
        """
        out: Dict[str, float] = {}
        for instrument in self.instruments():
            for labelvalues, child in instrument.children():
                suffix = _labels_suffix(instrument.labelnames, labelvalues)
                if isinstance(instrument, Histogram):
                    out[f"{instrument.name}_sum{suffix}"] = child.sum
                    out[f"{instrument.name}_count{suffix}"] = child.count
                else:
                    out[f"{instrument.name}{suffix}"] = child.value
        return out


class Family(NamedTuple):
    """One row of a component's declaration table.

    ``kind`` is the instrument class (:class:`Counter`, :class:`Gauge`
    or :class:`Histogram`); ``buckets`` applies to histograms only.
    :meth:`labels` pins label values, so a row can name one series of a
    family (``rejected`` = ``repro_queue_rejected_total{reason="full"}``).
    """

    kind: type
    name: str
    help: str
    labelnames: Tuple[str, ...] = ()
    buckets: Optional[Tuple[float, ...]] = None
    fixed: Tuple[Tuple[str, str], ...] = ()

    def labels(self, **values: str) -> "Family":
        return self._replace(fixed=self.fixed + tuple(values.items()))


def counter(name: str, help_text: str, *labelnames: str) -> Family:
    """Declare a counter family: one table row."""
    return Family(Counter, name, help_text, labelnames)


def gauge(name: str, help_text: str, *labelnames: str) -> Family:
    """Declare a gauge family: one table row."""
    return Family(Gauge, name, help_text, labelnames)


def histogram(
    name: str,
    help_text: str,
    *labelnames: str,
    buckets: Optional[Sequence[float]] = None,
) -> Family:
    """Declare a histogram family (default latency buckets): one table row."""
    return Family(Histogram, name, help_text, labelnames, buckets)


class Instruments:
    """A declaration table bound to one registry: the writers' handles.

    Attribute ``x`` is what row ``x`` names.  A row whose labels are all
    fixed (by :meth:`Family.labels` or by a bind-time ``constant``, such
    as a front-end's ``front_end``) binds to its one series, ready for
    ``.inc()`` / ``.observe()`` / ``.set_function()``; a row with an open
    label binds to the whole family, written through ``.labels(...)``.
    """

    def __init__(
        self,
        registry: "MetricsRegistry",
        table: Mapping[str, Family],
        constants: Mapping[str, Any],
    ) -> None:
        #: Counter/gauge rows :class:`StatsView` reads: one-series rows
        #: with the ``name{labels}`` sample each names, and open families.
        self._keys: Dict[str, str] = {}
        self._open: List[str] = []
        for row, family in table.items():
            extra = {} if family.buckets is None else {"buckets": family.buckets}
            instrument = registry._get_or_create(
                family.kind, family.name, family.help, family.labelnames, **extra
            )
            labels = {**constants, **dict(family.fixed)}
            values = [str(labels[name]) for name in family.labelnames if name in labels]
            readable = family.kind is not Histogram
            if len(values) < len(family.labelnames):
                setattr(self, row, instrument)
                if readable:
                    self._open.append(row)
            else:
                setattr(self, row, instrument.labels(*values))
                if readable:
                    self._keys[row] = family.name + _labels_suffix(
                        family.labelnames, values
                    )


def _number(value: float) -> Any:
    """Integral values read as ``int``, as the scrape prints them."""
    return int(value) if float(value).is_integer() else value


class StatsView:
    """A component's read-only ``.stats``: the values its writers' series hold.

    ``StatsView(instruments, hit_rate=lambda view: ...)`` reads every
    counter and gauge row of the bound table: a one-series row as its
    number, a family with an open label as ``{label value: number}``.
    Keyword arguments are the derived reads, each called with the view.
    A one-series attribute is exactly the sample ``GET /metrics`` serves
    under its :meth:`sample_keys` key — the view holds no state.
    """

    __slots__ = ("_instruments", "_derived")

    def __init__(
        self, instruments: Instruments, **derived: Callable[["StatsView"], Any]
    ) -> None:
        self._instruments = instruments
        self._derived = derived

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):  # slots not yet set (copy, unpickle)
            raise AttributeError(name)
        derived = self._derived.get(name)
        if derived is not None:
            return derived(self)
        instruments = self._instruments
        if name in instruments._keys:
            return _number(getattr(instruments, name).value)
        if name in instruments._open:
            return {
                values[0]: _number(child.value)
                for values, child in getattr(instruments, name).children()
            }
        raise AttributeError(name)

    def sample_keys(self) -> Dict[str, str]:
        """Attribute name -> the ``name{labels}`` sample it reads."""
        return dict(self._instruments._keys)

    def __repr__(self) -> str:
        instruments = self._instruments
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in (*instruments._keys, *instruments._open, *self._derived)
        )
        return f"StatsView({fields})"


# ----------------------------------------------------------------------
# The no-op twin
# ----------------------------------------------------------------------
class _NullChild:
    """Accepts every write, reports zero, costs one method call."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def set_function(self, function: Callable[[], float]) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    value = 0.0
    count = 0
    sum = 0.0

    def cumulative(self) -> List[Tuple[float, int]]:
        return []


_NULL_CHILD = _NullChild()


class _NullInstrument(_NullChild):
    """A family that is its own (inert) child."""

    __slots__ = ("name", "help", "labelnames", "kind")

    def __init__(self, name: str, help_text: str, labelnames=(), kind="untyped"):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self.kind = kind

    def labels(self, *args: Any, **kwargs: Any) -> _NullChild:
        return _NULL_CHILD

    def children(self) -> List[Tuple[Tuple[str, ...], Any]]:
        return []


class NullMetricsRegistry(MetricsRegistry):
    """A registry whose instruments do nothing.

    Wire this through a serving stack to run it with the bookkeeping
    switched off — the instrumentation call sites stay, each costing a
    no-op method call.  ``tests/observability/test_instrumented_stack.py``
    serves the same traffic through it and through a fully instrumented
    stack and requires the same covers; the stats views read all-zero
    through it, so it is for deployments that scrape nothing.
    """

    def _get_or_create(
        self, cls, name, help_text, labelnames, **kwargs
    ) -> _NullInstrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is None:
                existing = _NullInstrument(
                    name, help_text, labelnames, kind=cls.kind
                )
                self._instruments[name] = existing
            return existing

    def render(self) -> str:
        return ""

    def snapshot(self) -> Dict[str, float]:
        return {}


#: A shared inert registry: pass as ``registry=NULL_REGISTRY`` to any
#: serving component to disable its metrics.
NULL_REGISTRY = NullMetricsRegistry()
