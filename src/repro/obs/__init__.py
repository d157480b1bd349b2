"""repro.obs — the unified observability layer.

One span-based :class:`Tracer` threads through every layer of the stack
(compiler-session stages, per-pass timings, execution-plan build/execute,
host-runtime dispatch/DMA/recovery, serve request lifecycle) onto a
single timeline, exportable as Chrome trace-event JSON for
``chrome://tracing`` / Perfetto; one :class:`Counters` class counts for
every layer, in groups owned by a :class:`MetricsRegistry` (one per
compiler session plus :data:`DEFAULT_REGISTRY`) with a single
snapshot/reset/merge API. See the "Observability" section of
``docs/ARCHITECTURE.md``.

This package depends only on the standard library, so every other layer
may import it without cycles.
"""

from .export import chrome_trace, chrome_trace_json, write_chrome_trace
from .metrics import DEFAULT_REGISTRY, Counters, MetricsRegistry
from .tracer import CATEGORIES, NULL_SPAN, NULL_TRACER, Span, Tracer, active

__all__ = [
    "CATEGORIES",
    "Counters",
    "DEFAULT_REGISTRY",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "active",
    "chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
]
