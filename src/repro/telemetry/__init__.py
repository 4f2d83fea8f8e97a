"""Zero-dependency structured observability for the simulation stack.

Hierarchical spans (``sweep → cell → shard → round-phase``) with
monotonic timings on pluggable JSONL sinks, a metrics registry fed
from the hot layers, a cross-process relay for process-pool workers,
a live CLI progress reporter, and an offline trace summarizer.

Disabled by default; every instrumented call site degrades to one
global load + comparison (see ``benchmarks/test_bench_telemetry.py``
for the gate).  Enable with::

    from repro import telemetry
    telemetry.configure_telemetry(sink=telemetry.FileSink("trace.jsonl"))

or via the CLI flags ``--telemetry PATH`` / ``--progress``, and fold a
trace with ``repro telemetry summarize trace.jsonl``.

This package imports nothing from the rest of ``repro`` (stdlib only),
so even the dependency-free hot modules can emit into it.
"""

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.progress import ProgressReporter
from repro.telemetry.spans import (
    FileSink,
    MemorySink,
    NullSink,
    Span,
    TelemetryPipeline,
    aggregate_span,
    capture,
    configure_telemetry,
    counter_inc,
    current_registry,
    enabled,
    event,
    gauge_set,
    get_pipeline,
    histogram_observe,
    ingest,
    span,
    telemetry_provenance,
    telemetry_shutdown,
)

#: The offline summarizer's names, imported on first use (PEP 562): only
#: ``repro telemetry summarize`` needs them, not a traced run.
_SUMMARIZE_NAMES = ("fold_trace", "load_trace", "render_summary", "summarize_trace")

__all__ = [
    "FileSink",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "ProgressReporter",
    "Span",
    "TelemetryPipeline",
    "aggregate_span",
    "capture",
    "configure_telemetry",
    "counter_inc",
    "current_registry",
    "enabled",
    "event",
    "fold_trace",
    "gauge_set",
    "get_pipeline",
    "histogram_observe",
    "ingest",
    "load_trace",
    "render_summary",
    "span",
    "summarize_trace",
    "telemetry_provenance",
    "telemetry_shutdown",
]


def __getattr__(name: str):
    if name in _SUMMARIZE_NAMES:
        from repro.telemetry import summarize

        return getattr(summarize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
