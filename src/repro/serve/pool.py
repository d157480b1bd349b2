"""Worker pool draining the scheduler.

Thread-backed: execution plans, the artifact cache, and the compiler
session are all shared in-process, and the workloads' heavy lifting
(numpy kernels) releases the GIL. The pool's surface is deliberately
narrow — a handler callable, ``start``, ``join`` — and process mode
(:mod:`~repro.serve.procpool`) sits behind it: each worker thread
proxies the request body to its own worker process.
"""

from __future__ import annotations

import threading
import time
import traceback


class WorkerPool:
    """N workers looping ``scheduler.next() -> handler(entry)``."""

    def __init__(self, scheduler, handler, workers=4, name="serve",
                 diagnostics=None):
        if workers < 1:
            raise ValueError(f"worker pool needs >= 1 worker, got {workers}")
        self.scheduler = scheduler
        self.handler = handler
        self.workers = workers
        self.name = name
        #: Optional :class:`~repro.driver.diagnostics.Diagnostics` sink:
        #: handler-fault tracebacks land here (stage ``pool``) instead of
        #: being printed to a stderr nobody is watching.
        self.diagnostics = diagnostics
        self._threads = []
        self._started = False
        #: Handler invocations that raised (the handler is expected to
        #: catch request errors itself; anything landing here is a bug,
        #: but it must never take the worker thread down with it).
        self.handler_faults = 0
        self._fault_lock = threading.Lock()

    def _worker_loop(self, index):
        while True:
            entry = self.scheduler.next()
            if entry is None:
                return
            try:
                self.handler(entry, f"{self.name}-{index}")
            except (KeyboardInterrupt, SystemExit):
                # Exit signals are not handler faults: swallowing them
                # here would make the pool unkillable (and miscount the
                # interrupt as a bug in the handler). Let them take the
                # worker down.
                raise
            except Exception:
                # A crashing request must not poison the pool: count it,
                # keep the worker alive for the next request.
                with self._fault_lock:
                    self.handler_faults += 1
                self._report_fault(index)

    def _report_fault(self, index):
        """Route a handler traceback somewhere it will be seen.

        Prefers the wired diagnostics stream; falls back to
        ``traceback.print_exc`` guarded against the errors *it* can raise
        when a daemon thread faults during interpreter shutdown (stderr
        already closed / import machinery torn down).
        """
        if self.diagnostics is not None:
            try:
                self.diagnostics.warning(
                    f"handler fault in worker {self.name}-{index}:\n"
                    f"{traceback.format_exc()}",
                    stage="pool",
                )
                return
            except Exception:
                pass
        try:
            traceback.print_exc()
        except Exception:
            pass

    def start(self):
        if self._started:
            return self
        self._started = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"{self.name}-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def join(self, timeout=None):
        """Wait for every worker to exit (close the scheduler first).

        *timeout* bounds the whole join, not each thread: the threads
        share one deadline, so a caller asking for 2 s waits at most
        ~2 s even with eight stuck workers (per-thread timeouts would
        wait workers x timeout).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            thread.join(timeout=remaining)
        return all(not thread.is_alive() for thread in self._threads)

    @property
    def alive(self):
        return sum(1 for thread in self._threads if thread.is_alive())
