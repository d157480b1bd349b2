"""``serve``: the concurrent compile-and-execute service, replaying a
synthetic trace or streaming stateful sessions."""

from __future__ import annotations

import contextlib
import sys
import time

from . import _add_json, _add_precision, _emit_json


def _parse_dims(spec):
    """``"n=1024,m=8"`` into ``{"n": 1024, "m": 8}`` (None passes through)."""
    if not spec:
        return None
    dims = {}
    for pair in spec.split(","):
        pair = pair.strip()
        if not pair:
            continue
        name, _, value = pair.partition("=")
        if not _:
            raise ValueError(f"expected name=value, got {pair!r}")
        dims[name.strip()] = int(value)
    return dims


@contextlib.contextmanager
def _serving(args):
    """The started :class:`Server` of one ``repro serve`` run, either
    mode, built from every server flag. On exit it is closed (read
    ``server.report()`` after), the scratch cache directory is removed
    and the ``--trace`` Chrome trace is written, with the unified
    counters dump printed beside it."""
    import tempfile

    from ..obs import Tracer, write_chrome_trace
    from ..serve import Server

    tracer = Tracer() if args.trace else None
    with contextlib.ExitStack() as stack:
        cache_dir = args.cache_dir
        if cache_dir is None and args.pool == "process":
            # Worker processes coalesce compiles through the disk tier;
            # give them one even when the caller didn't ask for
            # persistence.
            cache_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-serve-")
            )
        server = Server(
            workers=args.workers,
            queue_capacity=args.queue_depth,
            cache_dir=cache_dir,
            tracer=tracer,
            breaker_threshold=args.breaker_threshold,
            bucket_policy=args.bucket_policy,
            pool=args.pool,
        )
        with server:
            yield server
    if tracer is not None:
        write_chrome_trace(tracer, args.trace)
        counts = tracer.counts()
        summary = ", ".join(f"{name}={counts[name]}" for name in sorted(counts))
        print(f"wrote {len(tracer)} span(s) ({summary}) to {args.trace}")
        print("counters:")
        print(server.metrics_registry().render())


def _serve_payload(server, report):
    """The ``--json`` payload of either ``repro serve`` mode: the report,
    plus — under ``--trace`` — how many spans each layer recorded."""
    payload = report.to_dict()
    if server.tracer.enabled:
        payload["trace_spans"] = server.tracer.counts()
    return payload


def _report_assertions_hold(args, report):
    """``--assert-conservation`` / ``--assert-plan-reuse`` of either
    ``repro serve`` mode; the rendered report above carries the detail."""
    ok = True
    if args.assert_conservation and not report.conservation_ok:
        ok = False
        print(
            f"accounting assertion FAILED: {report.accounted} accounted "
            f"of {report.submitted} submitted",
            file=sys.stderr,
        )
    if args.assert_plan_reuse and not report.plan_reuse_ok:
        ok = False
        print(
            "plan-reuse assertion FAILED: "
            f"{report.plans_built} graph plan(s) / "
            f"{report.statements_planned} statement plan(s) built, expected "
            f"{report.expected_plans} / {report.expected_statements}",
            file=sys.stderr,
        )
    return ok


def _serve_sessions(args):
    """Session mode: stream M steps through N stateful sessions and
    compare per-step latency and bit-identity against one-shot
    re-submission of the same trajectory."""
    from concurrent.futures import ThreadPoolExecutor

    from ..serve import Request, percentile

    name = args.workloads.split(",")[0].strip()
    try:
        dims = _parse_dims(args.dims)
    except ValueError as exc:
        print(f"serve: bad --dims: {exc}", file=sys.stderr)
        return 2
    steps = args.session_steps
    status = 0
    with _serving(args) as server:
        # Phase 1: N concurrent stateful sessions, M steps each.
        def run_session(idx):
            session = server.open_session(
                name, dims=dims, precision=args.precision,
                deadline_s=args.deadline,
            )
            times, signatures, errors = [], [], []
            with session:
                for _ in range(steps):
                    started = time.perf_counter()
                    response = session.step()
                    times.append(time.perf_counter() - started)
                    if not response.ok:
                        errors.append(response.error)
                        break
                    signatures.append(response.signature)
            return times, signatures, errors

        with ThreadPoolExecutor(args.sessions) as clients:
            results = list(clients.map(run_session, range(args.sessions)))

        for idx, (times, signatures, errors) in enumerate(results):
            for error in errors:
                status = 1
                print(f"session {idx} step failed: {error}", file=sys.stderr)

        reference = results[0][1]
        for idx, (_, signatures, _) in enumerate(results[1:], start=1):
            if signatures != reference:
                status = 1
                print(
                    f"session {idx} diverged from session 0 "
                    "(same workload, same binding)",
                    file=sys.stderr,
                )

        # Phase 2: the bit-identity twin — one-shot requests threading
        # state/step_offset client-side must reproduce the session run
        # exactly (same request body, same bound config).
        twin_times, twin_signatures = [], []
        state = None
        for index in range(len(reference)):
            request = Request(
                name, steps=1, precision=args.precision, dims=dims,
                step_offset=index, initial_state=state,
            )
            started = time.perf_counter()
            response = server.request(request)
            twin_times.append(time.perf_counter() - started)
            if not response.ok:
                status = 1
                print(f"twin step {index} failed: {response.error}",
                      file=sys.stderr)
                break
            twin_signatures.append(response.signature)
            state = response.state
        twin_ok = twin_signatures == reference
        if not twin_ok:
            status = 1
            print(
                "bit-identity FAILED: session outputs differ from the "
                "state-threading one-shot chain",
                file=sys.stderr,
            )

        # Phase 3: the stateless baseline — without sessions (or client
        # state threading) a stateful stream forces each request to
        # recompute its whole prefix: request i runs steps 0..i. Its
        # final outputs still equal session step i.
        baseline_times, baseline_ok = [], True
        for index in range(len(reference)):
            request = Request(
                name, steps=index + 1, precision=args.precision, dims=dims,
            )
            started = time.perf_counter()
            response = server.request(request)
            baseline_times.append(time.perf_counter() - started)
            if not response.ok or response.signature != reference[index]:
                baseline_ok = False
                status = 1
                print(
                    f"stateless baseline step {index} "
                    + ("failed" if not response.ok else "diverged"),
                    file=sys.stderr,
                )
                break
    report = server.report()

    print(report.render())
    session_times = [t for times, _, _ in results for t in times]
    session_p50 = percentile(session_times, 0.50)
    twin_p50 = percentile(twin_times, 0.50)
    baseline_p50 = percentile(baseline_times, 0.50)
    overhead_speedup = twin_p50 / session_p50 if session_p50 > 0 else 0.0
    speedup = baseline_p50 / session_p50 if session_p50 > 0 else 0.0
    print(
        f"  per-step latency: session p50 {session_p50 * 1e3:.2f} ms / "
        f"p99 {percentile(session_times, 0.99) * 1e3:.2f} ms over "
        f"{len(session_times)} step(s) across {args.sessions} session(s)"
    )
    print(
        f"  one-shot chain (state threaded client-side): "
        f"p50 {twin_p50 * 1e3:.2f} ms -> {overhead_speedup:.2f}x, "
        f"bit-identity {'ok' if twin_ok else 'FAILED'}"
    )
    print(
        f"  one-shot re-submission (stateless, prefix recompute): "
        f"p50 {baseline_p50 * 1e3:.2f} ms -> {speedup:.2f}x"
        + ("" if baseline_ok else " (DIVERGED)")
    )
    print(f"  cache: {server.session.cache.stats.render()}")

    if args.assert_speedup is not None and speedup < args.assert_speedup:
        status = 1
        print(
            f"speedup assertion FAILED: sessions are {speedup:.2f}x "
            f"faster per step than stateless re-submission, "
            f"needed >= {args.assert_speedup:g}x",
            file=sys.stderr,
        )
    if not _report_assertions_hold(args, report):
        status = 1

    if args.json:
        payload = _serve_payload(server, report)
        payload["session_compare"] = {
            "workload": name,
            "dims": dims or {},
            "sessions": args.sessions,
            "steps": steps,
            "session_p50_seconds": session_p50,
            "oneshot_chain_p50_seconds": twin_p50,
            "oneshot_stateless_p50_seconds": baseline_p50,
            "overhead_speedup": overhead_speedup,
            "speedup": speedup,
            "bit_identical": twin_ok and baseline_ok,
        }
        _emit_json(payload, args.json)
    return status


def _cmd_serve(args):
    """Run the concurrent compile-and-execute service on a synthetic trace."""
    from ..serve import replay, run_serial, synth_trace

    workloads = tuple(
        name.strip() for name in args.workloads.split(",") if name.strip()
    )
    if not workloads:
        print("serve: --workloads must name at least one workload",
              file=sys.stderr)
        return 2
    if args.sessions:
        return _serve_sessions(args)
    trace = synth_trace(
        requests=args.requests,
        workloads=workloads,
        seed=args.seed,
        max_steps=args.max_steps,
        precision=args.precision,
        deadline_s=args.deadline,
        fault_rate=args.fault_rate,
    )
    with _serving(args) as server:
        responses, backpressure_retries = replay(server, trace)
    report = server.report()

    print(report.render())
    if backpressure_retries:
        print(f"  backpressure: {backpressure_retries} retried submission(s)")

    status = 0
    # Deadline expirations and cancellations are shed load, not service
    # failures — they are accounted in the report, and a trace run with
    # an aggressive --deadline is expected to shed some of it.
    failures = [
        r for r in responses
        if r is not None and not r.ok
        and r.error_kind not in ("DeadlineExceededError", "CancelledError")
    ]
    if failures:
        status = 1
        for response in failures:
            print(
                f"request {response.request.request_id} "
                f"({response.request.describe()}) failed: {response.error}",
                file=sys.stderr,
            )
    if not _report_assertions_hold(args, report):
        status = 1

    if args.compare_serial:
        serial, _ = run_serial(trace)
        mismatched = [
            concurrent.request.describe()
            for concurrent, reference in zip(responses, serial)
            if concurrent is not None and concurrent.ok
            and concurrent.signature != reference.signature
        ]
        if mismatched:
            status = 1
            print(
                f"serial-comparison MISMATCH for: {', '.join(mismatched)}",
                file=sys.stderr,
            )
        else:
            print(
                f"  outputs bit-identical to the serial run "
                f"({len(serial)} request(s))"
            )

    if args.json:
        _emit_json(_serve_payload(server, report), args.json)
    return status


def add_serve(sub):
    serve = sub.add_parser(
        "serve",
        help="run the concurrent compile-and-execute service on a "
        "synthetic mixed-workload trace",
    )
    serve.add_argument("--requests", type=int, default=32, help="trace length (default 32)")
    serve.add_argument("--workers", type=int, default=4, help="worker threads (default 4)")
    serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="admission-queue capacity before backpressure (default 16)",
    )
    serve.add_argument(
        "--pool", default="thread", choices=("thread", "process"),
        help="worker backend: in-process threads, or one worker process "
        "per thread with cross-process compile coalescing (default thread)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="artifact-cache directory shared by worker processes; "
        "--pool process uses a temporary directory when omitted",
    )
    serve.add_argument(
        "--workloads", default="MobileRobot,ElecUse,FFT-8192,DCT-1024", metavar="A,B,...",
        help="comma-separated workload mix",
    )
    serve.add_argument("--seed", type=int, default=0, help="trace RNG seed")
    serve.add_argument(
        "--max-steps", type=int, default=4, help="max invocations per request (default 4)"
    )
    _add_precision(serve)
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="stamp every request with this deadline; expired requests are "
        "rejected with a distinct status and never executed",
    )
    serve.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="FRACTION",
        help="make roughly this fraction of requests fault-injecting "
        "(recovered through the HostManager; default 0)",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=5, metavar="N",
        help="open a workload's circuit breaker after N consecutive "
        "failures (0 disables; default 5)",
    )
    serve.add_argument(
        "--assert-conservation", action="store_true",
        help="exit nonzero unless every submitted request is accounted "
        "for in exactly one outcome bucket",
    )
    serve.add_argument(
        "--assert-plan-reuse", action="store_true",
        help="exit nonzero unless graph/statement plans were built exactly "
        "once per distinct (workload, precision) pair (counter-based)",
    )
    serve.add_argument(
        "--compare-serial", action="store_true",
        help="also run the trace serially and verify outputs are "
        "bit-identical to the concurrent run",
    )
    _add_json(serve, "dump the ServeReport as JSON (- for stdout)")
    serve.add_argument(
        "--trace", metavar="PATH",
        help="record a span trace of the run and write it as Chrome "
        "trace-event JSON (chrome://tracing / Perfetto loadable); also "
        "prints the unified counters dump and adds per-layer span counts "
        "to the --json payload",
    )
    serve.add_argument(
        "--sessions", type=int, default=0, metavar="N",
        help="session mode: instead of replaying the synthetic trace, "
        "open N stateful sessions on the first --workloads entry, stream "
        "--session-steps steps through each, and compare per-step latency "
        "and bit-identity against one-shot re-submission. The "
        "state-threading one-shot chain is expected near 1.0x of a session "
        "step on threads (both read one bound config); the stateless "
        "prefix recompute is what sessions beat",
    )
    serve.add_argument(
        "--session-steps", type=int, default=50, metavar="M",
        help="steps streamed through each session (default 50)",
    )
    serve.add_argument(
        "--dims", default=None, metavar="k=v,...",
        help="symbolic-dim overrides for session mode, e.g. n=1000 "
        "(rounded up by --bucket-policy before planning)",
    )
    serve.add_argument(
        "--bucket-policy", default="exact", metavar="POLICY",
        help="shape-bucket rounding for dim overrides: exact, pow2, or "
        "multiple:N (default exact)",
    )
    serve.add_argument(
        "--assert-speedup", type=float, default=None, metavar="X",
        help="session mode: exit nonzero unless sessions beat stateless "
        "one-shot re-submission by at least X in per-step p50 latency",
    )
    serve.set_defaults(func=_cmd_serve)
