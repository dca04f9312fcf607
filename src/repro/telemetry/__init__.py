"""repro.telemetry — self-observability for the measurement stack.

The system reproduced here is itself a telemetry instrument; this
package watches the instrument.  One process-global
:class:`~repro.telemetry.metrics.MetricsRegistry` plus a
:class:`~repro.telemetry.spans.Tracer` hang off this module, **disabled
by default**: instrumented components test :func:`enabled` once at
construction and cache the result, so the disabled hot path keeps its
plain body (``benchmarks/test_disabled_cost.py`` asserts the binding).

Typical use::

    from repro import telemetry

    telemetry.enable()
    scenario = Scenario(...)          # components built now are instrumented
    scenario.run(40.0)
    print(telemetry.render_table(telemetry.snapshot()))

Naming conventions (see docs/observability.md):

- every family is prefixed ``repro_<subsystem>_``;
- counters end in ``_total``, durations in ``_ns``, sizes in ``_bytes``;
- label values must be low-cardinality (stage/metric/index names —
  never flow IDs or timestamps).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.telemetry.export import (
    from_json,
    histogram_quantile,
    render_table,
    to_json,
    to_prometheus_text,
)
from repro.telemetry.metrics import (
    LATENCY_BUCKETS_NS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    TelemetryError,
)
from repro.telemetry.profiling import (
    PhaseReport,
    PhaseRow,
    Profiler,
    StackSampler,
)
from repro.telemetry.provenance import (
    FrozenWindow,
    ProvenanceTracer,
    TraceEvent,
)
from repro.telemetry.spans import NULL_SPAN, Tracer
from repro.telemetry.timeseries import (
    DEFAULT_INTERVAL_NS,
    DEFAULT_RETENTION,
    TelemetrySampler,
    TimeSeries,
    TimeSeriesPoint,
    TimeSeriesStore,
)
from repro.telemetry.serve import (
    PROM_CONTENT_TYPE,
    TelemetryHTTPServer,
    TelemetryPusher,
)
from repro.telemetry.watch import render_watch, sparkline

__all__ = [
    "enable", "disable", "enabled", "registry", "tracer", "reset",
    "counter", "gauge", "histogram", "span", "traced", "snapshot",
    "to_prometheus_text", "to_json", "from_json", "render_table",
    "histogram_quantile",
    "Counter", "Gauge", "Histogram", "MetricFamily", "MetricsRegistry",
    "TelemetryError", "Tracer", "NULL_SPAN",
    "LATENCY_BUCKETS_NS", "SIZE_BUCKETS",
    "TelemetrySampler", "TimeSeries", "TimeSeriesPoint", "TimeSeriesStore",
    "DEFAULT_INTERVAL_NS", "DEFAULT_RETENTION",
    "TelemetryHTTPServer", "TelemetryPusher", "PROM_CONTENT_TYPE",
    "render_watch", "sparkline",
    "ProvenanceTracer", "TraceEvent", "FrozenWindow",
    "Profiler", "PhaseReport", "PhaseRow", "StackSampler",
]

_registry = MetricsRegistry()
_tracer = Tracer(_registry)
_enabled = False


def enable() -> None:
    """Turn telemetry on.  Components constructed *after* this call pick
    up instrumentation; already-built components stay dark."""
    global _enabled
    _enabled = True
    _tracer.enabled = True


def disable() -> None:
    global _enabled
    _enabled = False
    _tracer.enabled = False


def enabled() -> bool:
    return _enabled


def registry() -> MetricsRegistry:
    return _registry


def tracer() -> Tracer:
    return _tracer


def reset() -> None:
    """Fresh registry + tracer (tests).  Keeps the enabled flag, drops
    every family, collector and any component-cached handle's backing —
    components built before the reset keep writing into the old,
    now-unreachable registry."""
    global _registry, _tracer
    _registry = MetricsRegistry()
    _tracer = Tracer(_registry)
    _tracer.enabled = _enabled


# -- convenience pass-throughs to the global registry/tracer ---------------


def counter(name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
    return _registry.counter(name, help, labels)


def gauge(name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
    return _registry.gauge(name, help, labels)


def histogram(name: str, help: str = "", labels: Sequence[str] = (),
              buckets: Optional[Sequence[float]] = None) -> MetricFamily:
    return _registry.histogram(name, help, labels, buckets=buckets)


def span(name: str, clock=None):
    return _tracer.span(name, clock)


def traced(name: Optional[str] = None):
    return _tracer.traced(name)


def snapshot(collect: bool = True) -> dict:
    return _registry.snapshot(collect=collect)
