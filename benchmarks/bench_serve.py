"""Tracer overhead on the serving layer.

Not a paper figure — serving latency, throughput and pool scaling are the
ledger's ``serve-thread`` / ``serve-process`` workloads
(``benchmarks/ledger/``), measured on real work. What is left here is
the one claim the ledger does not make: that instrumentation is free
when tracing is off.
"""

from repro.obs import Tracer
from repro.serve import Request, Server, replay


def test_disabled_tracer_overhead_under_two_percent(emit):
    """Instrumentation is free when tracing is off.

    Every layer now calls into the observability tracer unconditionally
    (spans in the session/passes/plan/runtime/serve paths); the claim
    that makes that design acceptable is that the disabled path — one
    shared no-op span, no allocation, no locking — costs nothing
    measurable. Compared best-of-N against a fully *enabled* tracer run
    (a strictly harsher comparison than disabled-vs-uninstrumented),
    the throughput delta must stay under 2%.
    """
    trace = [
        Request(workload=workload, steps=2, request_id=f"ovh-{index}")
        for index, workload in enumerate(
            ("MobileRobot", "ElecUse") * 4
        )
    ]

    def one_wall(make_tracer):
        server = Server(
            workers=1, queue_capacity=len(trace), tracer=make_tracer()
        )
        with server:
            responses, _ = replay(server, trace)
        assert all(response.ok for response in responses)
        return server.report().wall_seconds

    # Interleave the two modes and take best-of-N each: back-to-back
    # pairs see the same machine conditions, and the minimum filters the
    # scheduler noise that dwarfs the actual per-span cost (~4 us/span,
    # ~80 spans/run). Alternate attempts absorb a systematically loaded
    # CI window.
    for attempt in range(3):
        walls = {"disabled": [], "enabled": []}
        for _ in range(5):
            walls["disabled"].append(one_wall(lambda: None))
            walls["enabled"].append(one_wall(Tracer))
        disabled = min(walls["disabled"])
        enabled = min(walls["enabled"])
        delta = abs(enabled - disabled) / disabled
        if delta < 0.02:
            break
    emit(
        "bench_serve_tracer_overhead",
        "tracer overhead on a 1-worker 8-request mixed trace (best of 5, "
        "interleaved)\n"
        f"  disabled: {disabled:8.4f} s wall\n"
        f"  enabled:  {enabled:8.4f} s wall\n"
        f"  delta:    {delta * 100:7.2f} %",
    )
    assert delta < 0.02, (
        f"tracer changed serve wall time by {delta * 100:.2f}% "
        f"(disabled {disabled:.4f}s vs enabled {enabled:.4f}s)"
    )
