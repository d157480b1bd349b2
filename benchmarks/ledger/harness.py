"""Measurement plumbing shared by the four ledger workloads.

Three things live here: the calibration kernel that turns wall-clock
samples into "cal" units, the in-memory span recorder of the traced run,
and the small statistics every workload reports with.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: Milliseconds ``cal()`` takes on the reference machine (the build host
#: in a calm minute). Every timed sample is multiplied by
#: ``CAL_REF_MS / cal_local``, so a reported "cal-ms" is a millisecond on
#: a machine whose ``cal()`` takes exactly this long. Frozen: changing it
#: rescales every time metric.
CAL_REF_MS = 16.0

#: ``cal()`` runs taken between two measured batches.
CAL_RUNS_PER_BATCH = 3
#: ``cal()`` runs taken at each end of a set-up repeat, where points are few.
CAL_RUNS_PER_SETUP = 5


class Calibrator:
    """The fixed calibration kernel and the samples taken from it.

    One ``cal()`` run is noisier than the work it calibrates (a single
    16 ms sample on a shared host), so the samples of a run are pooled
    and every time of the run is scaled by their median: the host's
    drift, which moves in phases of tens of seconds, is divided out
    without adding sample noise.
    """

    def __init__(self):
        rng = np.random.default_rng(20210227)
        # Every array the kernel touches exists before the first run and
        # the operations write into them: what a run costs must not
        # depend on the state the measured program left the allocator in.
        self._matrix = rng.standard_normal((192, 192))
        self._product = np.empty((192, 192))
        self._vector = rng.standard_normal(1_000_000)
        self._warped = np.empty(1_000_000)
        self._offsets = np.arange(0, 1_000_000, 16)
        self._sums = np.empty(len(self._offsets))
        #: Milliseconds of every ``cal()`` run taken so far.
        self.samples = []

    def cal(self):
        """One run of the kernel; returns its wall time in milliseconds.

        Interpreter work (an integer loop) and, for the larger part, a
        fixed numpy mix — matmul, a transcendental, a segmented
        reduction, a strided copy — the blend the stack under test
        spends its time in.
        """
        start = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc = (acc + i * i) & 0xFFFF
        for _ in range(3):
            np.matmul(self._matrix, self._matrix, out=self._product)
            np.multiply(self._vector, 1e-3, out=self._warped)
            np.exp(self._warped, out=self._warped)
            np.add.reduceat(self._warped, self._offsets, out=self._sums)
            np.copyto(self._warped, self._vector[::-1])
        return (time.perf_counter() - start) * 1e3

    def sample(self, runs):
        self.samples.extend(self.cal() for _ in range(runs))

    def scale(self):
        """Factor turning this run's raw time into cal time."""
        return CAL_REF_MS / statistics.median(self.samples)


def scaled(series, factor):
    """*series* (``{name: [seconds]}``) with every sample times *factor*."""
    return {
        name: [value * factor for value in values]
        for name, values in series.items()
    }


class SpanRecorder:
    """The traced run's spans: kept in memory, written out at the end.

    A span has a name (a per-layer metric or a grouping span), start and
    end (``perf_counter`` seconds), the id of the span that caused it,
    and an op id shared by all spans of one program build / step /
    request. Spans are only ever recorded from the benchmark's main
    thread (serve replies are laid out after their round).
    """

    def __init__(self):
        self.spans = []
        self._open = []

    def _append(self, name, op, parent, start, end):
        span = {
            "id": len(self.spans), "name": name, "op": op,
            "parent": parent["id"] if parent else None,
            "start": start, "end": end,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name, op=None):
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = parent["op"]
        span = self._append(name, op, parent, time.perf_counter(), None)
        self._open.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def record(self, name, start, end, op=None, parent=None):
        """A span whose interval was measured elsewhere (serve replies)."""
        return self._append(name, op, parent, start, end)

    def by_name(self, scale):
        """``{name: [(op, seconds * scale)]}`` over every span."""
        table = defaultdict(list)
        for span in self.spans:
            seconds = span["end"] - span["start"]
            table[span["name"]].append((span["op"], seconds * scale))
        return table


# -- statistics -------------------------------------------------------------

median = statistics.median


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, fraction):
    """Nearest-rank percentile (the rule ``repro.serve.metrics`` uses)."""
    ordered = sorted(values)
    rank = max(1, int(round(fraction * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def spread(values):
    """Interquartile range over median — the driver's steadiness test."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def median_by(pairs):
    """``{key: median of values}`` from ``(key, value)`` pairs."""
    groups = defaultdict(list)
    for key, value in pairs:
        groups[key].append(value)
    return {key: statistics.median(values) for key, values in groups.items()}


# -- process facts ----------------------------------------------------------

def peak_rss_mb():
    """Peak resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment(seed, root, pinned):
    """What two result files must share before they may be compared."""
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = root / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else commit
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"][
            "version"
        ]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "pinned": {key: os.environ.get(key) for key in pinned},
        "cal_ref_ms": CAL_REF_MS,
        "seed": seed,
        "commit": commit,
    }
