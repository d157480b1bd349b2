"""Span-based tracing for the whole stack.

One :class:`Tracer` collects :class:`Span` records from every layer —
compiler-session stages, individual optimisation passes, execution-plan
builds and invocations, host-runtime dispatch/DMA/recovery events, and
serve request lifecycles — onto a single perf_counter timeline, the way
DaCe instruments stateful dataflow and MLIR instruments passes: one trace
spine instead of five disjoint counter systems.

Design constraints, in order:

* **Near-zero overhead when disabled.** ``Tracer(enabled=False)`` (and
  the shared :data:`NULL_TRACER`) answers ``span()`` with one shared
  no-op context manager and returns immediately from ``instant``/
  ``record`` — no allocation, no locking, no clock reads. Hot paths can
  therefore call the tracer unconditionally.
* **Thread-safe.** The serving layer records from many worker threads at
  once; appends happen under a lock, and span parenthood is tracked per
  thread (a thread-local stack), so concurrent requests never corrupt
  each other's nesting.
* **Self-contained records.** A finished :class:`Span` carries explicit
  start/duration (seconds on the tracer's perf_counter timeline), its
  thread, its category (the layer that emitted it), and free-form args —
  everything an exporter needs, with no back-references into live stack
  state.

Spans are exported to Chrome trace-event JSON (``chrome://tracing`` /
Perfetto) by :mod:`repro.obs.export`.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional

#: Canonical span categories, one per instrumented layer.
CATEGORIES = ("session", "passes", "plan", "kernel", "runtime", "serve")


class Span:
    """One finished (or instantaneous) unit of traced work."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "category",
        "start",
        "duration",
        "thread_name",
        "track",
        "args",
        "instant",
    )

    def __init__(
        self,
        span_id,
        name,
        category,
        start,
        duration,
        thread_name,
        parent_id=None,
        track=None,
        args=None,
        instant=False,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start = start
        self.duration = duration
        self.thread_name = thread_name
        #: Optional logical lane overriding the thread lane in exports —
        #: e.g. every step of one serving session shares a track even
        #: though different workers executed them.
        self.track = track
        self.args = dict(args or {})
        self.instant = instant

    def to_dict(self):
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "duration": self.duration,
            "thread": self.thread_name,
            "track": self.track,
            "args": dict(self.args),
            "instant": self.instant,
        }

    def __repr__(self):
        return (
            f"Span({self.name!r}, cat={self.category}, "
            f"dur={self.duration * 1e3:.3f} ms)"
        )


class _NullSpan:
    """The do-nothing span handed out by a disabled tracer.

    A single shared instance: entering/exiting/annotating it costs one
    attribute lookup and a call, which is what keeps instrumented hot
    paths honest when tracing is off.
    """

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def note(self, **args):
        return self


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager for one in-progress span on an enabled tracer."""

    __slots__ = ("_tracer", "_name", "_category", "_args", "_start",
                 "_span_id", "_parent_id", "_track")

    def __init__(self, tracer, name, category, args, track=None):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args
        self._track = track

    def note(self, **args):
        """Attach args to the span (collected when the span closes)."""
        self._args.update(args)
        return self

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack()
        self._parent_id = stack[-1] if stack else None
        self._span_id = next(tracer._ids)
        stack.append(self._span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        duration = time.perf_counter() - self._start
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] == self._span_id:
            stack.pop()
        if exc_type is not None:
            self._args.setdefault("error", exc_type.__name__)
        tracer._append(
            Span(
                span_id=self._span_id,
                parent_id=self._parent_id,
                name=self._name,
                category=self._category,
                start=self._start,
                duration=duration,
                thread_name=threading.current_thread().name,
                track=self._track,
                args=self._args,
            )
        )
        return False


class Tracer:
    """Thread-safe collector of spans on one perf_counter timeline.

    ``with tracer.span("optimize", category="session"):`` measures a
    block; ``tracer.instant(...)`` marks a point event (a fault, a cache
    hit); ``tracer.record(...)`` appends a span with explicit timestamps
    (for phases measured elsewhere, like a request's queue wait). All
    three are safe from any thread, and all three are no-ops when the
    tracer is disabled.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        #: perf_counter value all exported timestamps are relative to.
        self.epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def span(self, name, category="app", track=None, **args):
        """Context manager measuring a block as one span.

        *track* assigns the span to a logical export lane (see
        :attr:`Span.track`) instead of the recording thread's lane.
        """
        if not self.enabled:
            return NULL_SPAN
        return _SpanContext(self, name, category, args, track=track)

    def instant(self, name, category="app", track=None, **args):
        """A zero-duration point event at the current time."""
        if not self.enabled:
            return None
        stack = self._stack()
        span = Span(
            span_id=next(self._ids),
            parent_id=stack[-1] if stack else None,
            name=name,
            category=category,
            start=time.perf_counter(),
            duration=0.0,
            thread_name=threading.current_thread().name,
            track=track,
            args=args,
            instant=True,
        )
        self._append(span)
        return span

    def record(self, name, category="app", start=0.0, duration=0.0,
               thread_name=None, track=None, **args):
        """Append a completed span with explicit perf_counter timestamps.

        For phases whose boundaries were measured outside the tracer —
        e.g. a request's queue wait, known only once a worker picks the
        request up.
        """
        if not self.enabled:
            return None
        span = Span(
            span_id=next(self._ids),
            name=name,
            category=category,
            start=start,
            duration=max(0.0, duration),
            thread_name=thread_name or threading.current_thread().name,
            track=track,
            args=args,
        )
        self._append(span)
        return span

    # -- internals ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, span):
        with self._lock:
            self._spans.append(span)

    # -- reading -----------------------------------------------------------

    def spans(self, category=None):
        """Snapshot of recorded spans, optionally filtered by category."""
        with self._lock:
            spans = list(self._spans)
        if category is not None:
            spans = [span for span in spans if span.category == category]
        return spans

    def categories(self):
        """Set of categories with at least one recorded span."""
        return {span.category for span in self.spans()}

    def counts(self) -> Dict[str, int]:
        """``{category: span count}`` over everything recorded so far."""
        tally: Dict[str, int] = {}
        for span in self.spans():
            tally[span.category] = tally.get(span.category, 0) + 1
        return tally

    def clear(self):
        with self._lock:
            self._spans = []
        return self

    def __len__(self):
        with self._lock:
            return len(self._spans)

    def __bool__(self):
        # Truthiness is identity, not span count: without this, __len__
        # makes a fresh (empty) enabled tracer falsy and every
        # ``tracer or NULL_TRACER`` default silently discards it. Gate
        # behaviour on ``.enabled``, never on ``bool(tracer)``.
        return True

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self)} span(s))"


#: The shared disabled tracer every instrumented layer defaults to, so
#: call sites never need a ``tracer is not None`` guard.
NULL_TRACER = Tracer(enabled=False)


def active(tracer: Optional[Tracer]):
    """Normalise an optional tracer: ``None`` becomes :data:`NULL_TRACER`."""
    return tracer if tracer is not None else NULL_TRACER
