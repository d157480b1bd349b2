"""serve-thread / serve-process: real CPU-bound serving, no sleeps.

``Server(workers=2, emulate_device=0)`` under two closed-loop clients
calling ``submit`` + ``wait`` (closed loop because the stack's callers —
a control loop, the evaluation harness, a client holding a session —
wait for each reply). One batch is one round of 48 two-step requests in
seeded shuffle: 24 *light* (a few ms; serve overhead is a large share of
their latency) and 24 *heavy* (tens to hundreds of ms; execution is
nearly all of it), so one trace shows both, and light-request latency
under heavy-request interference.

The two workloads differ only in ``pool``: threads share one session and
the GIL; processes add pickle, pipe and a child per worker, rebuild plans
per child and coordinate compiles through the shared on-disk cache.
Set-up is a cold pass — fresh ``Server``, session and cache directory,
one round — plus one warm round; it is repeated, so ``setup_s`` carries
what a cold server costs.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
import time
from collections import defaultdict

from repro.driver import CompilerSession
from repro.errors import ServeError
from repro.serve import Request, Server, run_serial

from harness import geomean, median, percentile

SETUP_REPEATS = 3
LIGHT = ("MobileRobot", "Hexacopter", "OptionPricing")
HEAVY = (
    "ElecUse", "FFT-8192", "MovieL-100K", "ResNet-18", "BrainStimul",
    "MobileNet",
)
LIGHT_EACH, HEAVY_EACH = 8, 4
ROUND = len(LIGHT) * LIGHT_EACH + len(HEAVY) * HEAVY_EACH
WORKERS = CLIENTS = 2
STEPS = 2
WAIT_S = 60.0
ONE_WORKER_ROUNDS = 3


def kind(name):
    return "light" if name in LIGHT else "heavy"


class Reply:
    """One request as its client saw it."""

    __slots__ = ("name", "sent", "admitted", "done", "response")

    def __init__(self, name, sent):
        self.name = name
        self.sent = sent
        self.admitted = None
        self.done = None
        self.response = None

    @property
    def ok(self):
        return self.response is not None and self.response.ok


def play_round(server, names):
    """Two closed-loop clients drain *names*; returns (wall, replies)."""
    replies = []
    lock = threading.Lock()
    pending = iter(names)

    def client():
        while True:
            with lock:
                name = next(pending, None)
            if name is None:
                return
            reply = Reply(name, time.perf_counter())
            try:
                ticket = server.submit(Request(workload=name, steps=STEPS))
                reply.admitted = time.perf_counter()
                reply.response = ticket.wait(timeout=WAIT_S)
            except (ServeError, TimeoutError):
                pass  # counted as a failed operation by the caller
            reply.done = time.perf_counter()
            with lock:
                replies.append(reply)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, replies


class Context:
    def __init__(self, mode, seed, work_dir):
        self.mode = mode
        self.rng = random.Random(seed)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
        self.server = self.make_server(WORKERS)
        self.orders = []
        self.replies = []
        self.failed = 0
        self.report = None

    def make_server(self, workers, session=None):
        return Server(
            session=session or CompilerSession(cache_dir=self.cache_dir),
            workers=workers,
            queue_capacity=ROUND,
            pool=self.mode,
        ).start()

    def play(self, server=None):
        """One seeded round; every reply is kept for verification."""
        names = list(LIGHT) * LIGHT_EACH + list(HEAVY) * HEAVY_EACH
        self.rng.shuffle(names)
        wall, replies = play_round(server or self.server, names)
        self.replies.extend(replies)
        return wall, names, replies


def prepare(seed, work_dir, setup_samples, mode):
    start = time.perf_counter()
    context = Context(mode, seed, work_dir)
    context.play()  # the cold pass: server, session and cache all new
    setup_samples["cold_pass"].append(time.perf_counter() - start)
    context.play()  # one warm round
    return context


def discard(context):
    context.server.close()
    shutil.rmtree(context.cache_dir, ignore_errors=True)


def run_batch(context, samples, recorder):
    start = time.perf_counter()
    wall, names, replies = context.play()
    context.orders.append(names)
    for reply in replies:
        if reply.ok:
            samples[f"latency.{reply.name}"].append(reply.done - reply.sent)
    samples["per_op"].append(wall / ROUND)
    if recorder is not None:
        _record_round(recorder, len(context.orders), start, wall, replies)
    return ROUND


def _record_round(recorder, index, start, wall, replies):
    """Spans from the client's timestamps and the ``RequestMetrics`` the
    server returns anyway — nothing is attached to the server."""
    recorder.record("round", start, start + wall, op=("round", index))
    for number, reply in enumerate(replies):
        if not reply.ok:
            continue
        op = (kind(reply.name), reply.name, index, number)
        recorder.record("serve.server.admit", reply.sent, reply.admitted, op)
        request = recorder.record("request", reply.sent, reply.done, op)
        m = reply.response.metrics
        recorder.record(
            "serve.scheduler.queue", m.enqueued_at, m.started_at, op, request
        )
        service = recorder.record(
            "service", m.started_at, m.finished_at, op, request
        )
        # Only durations are known for the three phases (in process mode
        # they ran in the child); lay them end to end from service start.
        cursor = m.started_at
        for layer, seconds in (
            ("driver.session.compile_lookup", m.compile_seconds),
            ("srdfg.plan.lookup", m.plan_seconds),
            ("serve.executor.execute", m.execute_seconds),
        ):
            recorder.record(layer, cursor, cursor + seconds, op, service)
            cursor += seconds


def trace_extras(context, samples):
    """A few rounds on one worker, same session and cache: the base of
    ``serve.pool.speedup_vs_1worker``."""
    server = context.make_server(1, session=context.server.session)
    try:
        context.play(server)  # warm the new worker
        for _ in range(ONE_WORKER_ROUNDS):
            wall, _, _ = context.play(server)
            samples["one_worker.per_op"].append(wall / ROUND)
    finally:
        server.close()


def close(context):
    context.server.close()
    context.report = context.server.report()
    shutil.rmtree(context.cache_dir, ignore_errors=True)


def verify(context):
    """Every reply ok and bit-equal to a one-worker serial run of the
    same config; no request lost or double-counted by the server."""
    references, _ = run_serial(
        [Request(workload=name, steps=STEPS) for name in LIGHT + HEAVY]
    )
    expected = {
        response.request.workload: response.signature
        for response in references if response.ok
    }
    for reply in context.replies:
        if not reply.ok or reply.response.signature != expected.get(reply.name):
            context.failed += 1
    if not context.report.conservation_ok:
        context.failed += 1
    return context.failed


def end_to_end(series):
    # The latencies of one class are a mixture of a few tight clusters,
    # one per program, and a percentile of such a mixture jumps between
    # clusters from run to run; the geomean of per-program percentiles
    # reads the same "typical request" steadily.
    def typical(names, fraction):
        return geomean(
            percentile(series[f"latency.{name}"], fraction) for name in names
        )

    return {
        # latency_heavy_p50_ms
        "typical_ms": typical(HEAVY, 0.50) * 1e3,
        # latency_light_p50_ms
        "fast_path_ms": typical(LIGHT, 0.50) * 1e3,
        # the slow quarter of heavy requests: the highest percentile
        # with ten samples of each program beyond it in a 16 s run
        "slow_path_ms": typical(HEAVY, 0.75) * 1e3,
        # throughput_rps
        "throughput_ops": 1.0 / median(series["per_op"]),
    }


def per_layer(context, series, spans):
    requests = defaultdict(dict)
    for name, entries in spans.items():
        for op, seconds in entries:
            if name != "round":
                requests[op][name] = seconds

    def column(layer, only=None):
        return [
            row[layer] for op, row in requests.items()
            if only is None or op[0] == only
        ]

    def inside(row):
        return (
            row["driver.session.compile_lookup"] + row["srdfg.plan.lookup"]
            + row["serve.executor.execute"]
        )

    def overhead(only):
        return [
            row["request"] - row["serve.scheduler.queue"] - inside(row)
            for op, row in requests.items() if op[0] == only
        ]

    report = context.report
    provenance = report.provenance_counts("compile")
    round_wall = sum(seconds for _, seconds in spans["round"])
    metrics = {
        "serve.server.admit_us_p50": median(column("serve.server.admit")) * 1e6,
        "serve.scheduler.queue_wait_ms_p50":
            median(column("serve.scheduler.queue")) * 1e3,
        "driver.session.compile_lookup_ms_p50":
            median(column("driver.session.compile_lookup")) * 1e3,
        "srdfg.plan.lookup_ms_p50": median(column("srdfg.plan.lookup")) * 1e3,
        "serve.pool.dispatch_ms_p50": median(
            row["service"] - inside(row) for row in requests.values()
        ) * 1e3,
        "serve.server.latency_light_p95_ms":
            percentile(column("request", "light"), 0.95) * 1e3,
        "serve.server.latency_heavy_p95_ms":
            percentile(column("request", "heavy"), 0.95) * 1e3,
        "serve.server.cold_pass_ms": median(series["cold_pass"]) * 1e3,
        "serve.server.busy_share":
            sum(column("service")) / (WORKERS * round_wall),
        "serve.pool.speedup_vs_1worker":
            median(series["one_worker.per_op"]) / median(series["per_op"]),
        "srdfg.plan.plans_built": report.plans_built,
        "driver.session.compiles_built": provenance.get("built", 0),
        "serve.server.distinct_configs": report.distinct_configs,
        "serve.procpool.worker_crashes": report.worker_crashes,
        "serve.server.rejected": report.rejected,
    }
    for only in ("light", "heavy"):
        metrics[f"serve.executor.execute_ms_p50.{only}"] = (
            median(column("serve.executor.execute", only)) * 1e3
        )
        metrics[f"serve.server.overhead_ms_p50.{only}"] = (
            median(overhead(only)) * 1e3
        )
    return metrics
