"""Priority-aware admission queue with explicit backpressure.

The scheduler is a bounded binary heap ordered by (priority, submission
sequence): high-priority requests dispatch first, FIFO within a priority
level. When the queue is full, :meth:`Scheduler.submit` raises
:class:`~repro.errors.QueueFullError` carrying a ``retry_after`` estimate
instead of blocking the client or growing without bound — rejecting early
is what keeps tail latency flat when the pool saturates.
"""

from __future__ import annotations

import heapq
import threading

from ..errors import QueueFullError


class Scheduler:
    """Bounded priority queue between submitters and the worker pool:
    strict priority order, FIFO within a level."""

    def __init__(self, capacity=64):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._heap = []
        self._seq = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        #: Observability: peak depth and rejected submissions.
        self.peak_depth = 0
        self.rejected = 0
        self.admitted = 0
        #: Rejections whose retry-after estimator raised (the estimate
        #: degraded to 0.0). Nonzero means the server's estimator is
        #: broken — visible instead of silently swallowed.
        self.estimator_errors = 0
        #: Callable returning the retry-after estimate for a rejection
        #: (wired by the server, which knows recent service times).
        self.retry_after_estimator = None

    def __len__(self):
        with self._lock:
            return len(self._heap)

    def _estimate_retry_after(self, depth):
        """Retry-after estimate for a rejection at queue depth *depth*.

        Called WITHOUT ``self._lock`` held: the estimator is user code
        (the server's own estimator takes the server's state lock, and
        may even query this scheduler back), so invoking it under our
        lock risks lock-ordering deadlocks and serialises every
        concurrent rejection behind one slow estimate.
        """
        estimator = self.retry_after_estimator
        if estimator is None:
            return 0.0
        try:
            return max(0.0, float(estimator(depth)))
        except Exception:
            with self._lock:
                self.estimator_errors += 1
            return 0.0

    def submit(self, priority, entry):
        """Admit *entry*, or raise :class:`QueueFullError` (backpressure)."""
        with self._lock:
            if self._closed:
                # Not backpressure — the server is shutting down. closed
                # rejections carry retry_after=None so clients stop
                # retrying instead of spinning against the shutdown.
                raise QueueFullError(
                    "scheduler is closed; request cannot be retried here",
                    closed=True,
                )
            depth = len(self._heap)
            if depth >= self.capacity:
                self.rejected += 1
            else:
                heapq.heappush(self._heap, (priority, self._seq, entry))
                self._seq += 1
                self.admitted += 1
                self.peak_depth = max(self.peak_depth, depth + 1)
                self._not_empty.notify()
                return
        # Queue full: compute the backpressure hint outside the lock (see
        # _estimate_retry_after) before rejecting.
        retry_after = self._estimate_retry_after(depth)
        raise QueueFullError(
            f"admission queue full ({depth}/{self.capacity}); "
            f"retry after {retry_after:.3f}s",
            retry_after=retry_after,
        )

    def next(self, timeout=None):
        """Highest-priority entry, blocking while the queue is empty.

        Returns None when the scheduler is closed and drained (workers
        exit on that), or on timeout.
        """
        with self._not_empty:
            while not self._heap:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout=timeout):
                    if not self._heap:
                        return None
            _, _, entry = heapq.heappop(self._heap)
            return entry

    def close(self):
        """Stop admissions; queued entries still drain."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self):
        with self._lock:
            return self._closed

    def counters(self):
        """Flat counter dict (the MetricsRegistry source for this queue)."""
        with self._lock:
            return {
                "admitted": self.admitted,
                "rejected": self.rejected,
                "peak_depth": self.peak_depth,
                "depth": len(self._heap),
                "estimator_errors": self.estimator_errors,
                "closed": int(self._closed),
            }
