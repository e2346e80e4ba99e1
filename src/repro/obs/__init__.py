"""Observability for the stream-processor simulator.

Four pieces, composable and all optional:

* :mod:`repro.obs.tracer`   — span tracing with Chrome-trace export.
* :mod:`repro.obs.metrics`  — counters/gauges/bucketed histograms with
  p50/p90/p99 quantile estimation and Prometheus text exposition.
* :mod:`repro.obs.manifest` — versioned machine-readable run reports.
* :mod:`repro.obs.loadgen`  — load generator + SLO report for the
  serving daemon (imported lazily; depends on :mod:`repro.serve`).

The default :data:`~repro.obs.tracer.NULL_TRACER` records nothing, so
an uninstrumented run is bit-identical to one from before this package
existed.  See ``docs/observability.md`` for the full tour.
"""

from .manifest import (
    ENVELOPE_SCHEMA,
    ENVELOPE_VERSION,
    MANIFEST_SCHEMA,
    MANIFEST_VERSION,
    ManifestError,
    build_envelope,
    build_manifest,
    validate_envelope,
    validate_manifest,
)
from .metrics import (
    AccountingWarning,
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricValue,
    MetricsRegistry,
    MetricsSnapshot,
    QUANTILE_RELATIVE_ERROR_BOUND,
    accounting_warning,
    render_prometheus,
)
from .tracer import NULL_TRACER, NullTracer, PrefixedTracer, Span, Tracer

__all__ = [
    "AccountingWarning",
    "BUCKET_BOUNDS",
    "Counter",
    "ENVELOPE_SCHEMA",
    "ENVELOPE_VERSION",
    "Gauge",
    "Histogram",
    "MANIFEST_SCHEMA",
    "MANIFEST_VERSION",
    "ManifestError",
    "MetricValue",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_TRACER",
    "NullTracer",
    "PrefixedTracer",
    "QUANTILE_RELATIVE_ERROR_BOUND",
    "Span",
    "Tracer",
    "accounting_warning",
    "build_envelope",
    "build_manifest",
    "render_prometheus",
    "validate_envelope",
    "validate_manifest",
]
