"""Command-line interface for the PolyMath reproduction.

Usage (``python -m repro <command>``)::

    python -m repro workloads                 # list Table III/IV workloads
    python -m repro check MobileRobot        # functional validation
    python -m repro compile prog.pm --domain RBT   # show accelerator IR
    python -m repro stats prog.pm            # stage timings + cache report
    python -m repro show prog.pm [--dot]     # srDFG (text or GraphViz)
    python -m repro tables                   # Tables I-VI
    python -m repro figures [fig7 ...] [--json PATH]  # figures (+ claims payload)
    python -m repro report                   # everything
    python -m repro rewrite --explain         # which rewrite rules fired where
    python -m repro chaos BrainStimul --inject crash@DA   # fault-tolerant runtime
    python -m repro serve --requests 32 --workers 4       # concurrent service
    python -m repro fuzz --programs 50 --seed 7           # differential fuzzing
    python -m repro codegen --compare --json -             # kernel codegen tier
    python -m repro selfcheck [row ...]       # the smoke table CI runs
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time


def _session():
    """A CompilerSession over the Table V default accelerators."""
    from .driver import CompilerSession
    from .targets import default_accelerators

    return CompilerSession(default_accelerators())


def _cmd_workloads(args):
    from .workloads import END_TO_END, SINGLE_DOMAIN, get_workload

    print(f"{'name':15s} {'domain':7s} {'loc':>4s}  algorithm")
    for name in SINGLE_DOMAIN + END_TO_END:
        workload = get_workload(name)
        print(
            f"{workload.name:15s} {workload.domain:7s} "
            f"{workload.pmlang_loc:4d}  {workload.algorithm}"
        )
    return 0


def _cmd_check(args):
    from .workloads import END_TO_END, SINGLE_DOMAIN, get_workload

    names = args.names or list(SINGLE_DOMAIN + END_TO_END)
    failures = 0
    for name in names:
        workload = get_workload(name)
        check = workload.check_functional()
        status = "ok" if check.ok else "FAIL"
        print(f"{name:15s} {status:4s} max-rel-err={check.error:.2e} {check.detail}")
        failures += 0 if check.ok else 1
    return 1 if failures else 0


def _load_source(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _cmd_compile(args):
    source = _load_source(args.source)
    app = _session().compile(source, domain=args.domain)
    for domain, program in sorted(app.programs.items()):
        print(f"=== {domain} -> {program.target} ({len(program)} fragments) ===")
        print(program.listing())
        print()
    return 0


def _emit_json(payload, destination):
    """Write *payload* as JSON to ``-`` (stdout) or a path."""
    import json

    text = json.dumps(payload, indent=2, sort_keys=True)
    if destination == "-":
        print(text)
    else:
        with open(destination, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote JSON report to {destination}")


def _cmd_stats(args):
    from .errors import PolyMathError

    if args.source is None and args.workload is None:
        print(
            "stats: provide a PMLang source path or --workload NAME",
            file=sys.stderr,
        )
        return 2
    if args.workload is not None:
        return _stats_workload(args)

    source = _load_source(args.source)
    session = _session()
    failed = False
    for _ in range(max(1, args.repeat)):
        try:
            session.compile(source, domain=args.domain)
        except PolyMathError:
            # The error is already in the session's diagnostics stream,
            # which the report below renders with source locations.
            failed = True
            break
    if args.json:
        _emit_json(session.stats_dict(), args.json)
    else:
        print(session.stats_report())
    return 1 if failed else 0


def _stats_workload(args):
    """Compile a workload, execute its plan N steps, report plan reuse.

    The session report includes the plan-cache hit/miss counters and the
    per-statement first-call vs steady-state timing columns; with
    ``--assert-plan-reuse`` the exit status additionally enforces — by
    counters, not wall-clock — that no statement plan was rebuilt during
    execution and every plan ran exactly once per step.
    """
    from .eval import Harness
    from .workloads import Trajectory

    harness = Harness()
    workload, app, _ = harness.compiled(args.workload)
    session = harness.session
    plan = session.plan_for(app, precision=args.precision)

    # Reset the session's plan group after planning so the assertion
    # below reads absolute values (anything planned during execution
    # shows up directly) instead of ad-hoc deltas.
    session.plan_stats.reset()
    steps = max(0, args.execute)
    trajectory = Trajectory(workload)
    for _ in range(steps):
        trajectory.step(plan.execute)

    if args.json:
        _emit_json(session.stats_dict(), args.json)
    else:
        print(session.stats_report())

    if args.assert_plan_reuse:
        problems = []
        rebuilt = session.plan_stats.statements_planned
        if rebuilt:
            problems.append(
                f"{rebuilt} statement plan(s) built during execution "
                "(expected 0: planning happens once, before the first step)"
            )
        for label, statement in plan.iter_statements():
            if statement.built != 1:
                problems.append(f"{label!r} built {statement.built} time(s)")
            if steps and statement.executions != steps:
                problems.append(
                    f"{label!r} executed {statement.executions} time(s), "
                    f"expected {steps}"
                )
        if problems:
            print("\nplan-reuse assertion FAILED:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(
            f"\nplan reuse OK: {plan.statement_count} statement plan(s) "
            f"built once each, executed {steps} time(s) each"
        )
    return 0


def _cmd_rewrite(args):
    """Run the declarative rewrite engine over workload srDFGs.

    Applies the rule-based optimisation pipeline to each named workload
    and reports per-rule activity. ``--explain`` prints each rule firing
    with its site; ``--fuse`` additionally compiles each workload with
    cost-guided cross-domain fusion enabled and prints the
    :class:`~repro.rewrite.fusion.FusionReport`.
    """
    from .rewrite import REWRITE_STATS, ExplainLog, per_rule, rewrite_pipeline
    from .workloads import END_TO_END, SINGLE_DOMAIN, get_workload

    names = args.names or list(SINGLE_DOMAIN + END_TO_END)
    explain = ExplainLog() if (args.explain or args.json) else None
    REWRITE_STATS.reset()
    entries = []
    for name in names:
        workload = get_workload(name)
        graph = workload.build_graph()
        nodes_before, edges_before = graph.total_counts()
        result = rewrite_pipeline(explain=explain).run(graph)
        nodes_after, edges_after = result.graph.total_counts()
        print(
            f"{name:15s} ok        nodes {nodes_before}->{nodes_after}, "
            f"edges {edges_before}->{edges_after}"
        )
        entries.append({
            "workload": name,
            "nodes_before": nodes_before,
            "nodes_after": nodes_after,
            "edges_before": edges_before,
            "edges_after": edges_after,
        })

    fusion_reports = []
    if args.fuse:
        from .driver import CompilerSession
        from .eval import Harness

        harness = Harness(session=CompilerSession(fusion=True))
        print()
        for name in names:
            _, app, _ = harness.compiled(name)
            if app.fusion_report is not None:
                print(app.fusion_report.render())
                fusion_reports.append(app.fusion_report.to_dict())

    if args.explain and explain is not None:
        print()
        print("rule firings:")
        print(explain.render())

    fired = {
        rule: counts for rule, counts in per_rule(REWRITE_STATS).items()
        if counts["rewrites"]
    }
    if fired and not args.explain:
        print()
        print(f"{'rule':55s} {'matches':>8s} {'rewrites':>9s}")
        for rule in sorted(fired):
            counts = fired[rule]
            print(f"{rule:55s} {counts['matches']:8d} "
                  f"{counts['rewrites']:9d}")

    if args.json:
        payload = {
            "workloads": entries,
            "counters": REWRITE_STATS.to_dict(),
            "firings": explain.by_rule() if explain is not None else {},
            "fusion": fusion_reports,
        }
        _emit_json(payload, args.json)
    return 0


def _cmd_profile(args):
    source = _load_source(args.source)
    app = _session().compile(source, domain=args.domain)
    print(app.profile_report(top=args.top))
    return 0


def _cmd_dse(args):
    from .eval.dse import explore, pareto, render
    from .targets import ACCELERATORS

    cls = ACCELERATORS.get(args.accelerator)
    if cls is None:
        print(f"unknown accelerator {args.accelerator!r}; choose from "
              f"{sorted(ACCELERATORS)}", file=sys.stderr)
        return 2
    grid = {
        "throughput_scale": [float(v) for v in args.scales.split(",")],
        "frequency_hz": [float(v) * 1e6 for v in args.freqs_mhz.split(",")],
    }
    points = explore(args.workload, cls, grid)
    print(render(points, title=f"{args.accelerator} design space for {args.workload}"))
    frontier = pareto(points)
    print(f"\nPareto frontier: {len(frontier)} of {len(points)} points")
    return 0


def _cmd_save_ir(args):
    from .targets.serialize import application_to_json

    source = _load_source(args.source)
    app = _session().compile(source, domain=args.domain)
    text = application_to_json(app, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote accelerator IR to {args.out}")
    else:
        print(text)
    return 0


def _cmd_show(args):
    from .srdfg import build
    from .srdfg.visualize import render_dot, render_text

    source = _load_source(args.source)
    graph = build(source, domain=args.domain)
    if args.dot:
        print(render_dot(graph))
    else:
        print(render_text(graph, max_depth=args.depth))
    return 0


def _cmd_tables(args):
    from .eval import all_tables

    for table in all_tables().values():
        print(table.render())
        print()
    return 0


_FIGURES = ("fig7", "fig8", "fig9", "fig10a", "fig10b", "fig11a", "fig11b",
            "fig12", "fig13")


def _cmd_figures(args):
    from .eval import Harness, all_figures
    from .eval.claims import figures_payload

    harness = Harness()
    # The payload counts its own compiles' rule trips: build it first.
    payload = figures_payload(harness) if args.json else None
    figures = all_figures(harness)
    for identifier in args.ids or _FIGURES:
        figure = figures.get(identifier)
        if figure is None:
            print(f"unknown figure {identifier!r}; choose from {_FIGURES}",
                  file=sys.stderr)
            return 2
        print(figure.render())
        print()
    if payload is not None:
        _emit_json(payload, args.json)
    return 0


def _cmd_report(args):
    from .eval import full_report

    print(full_report(validate=args.validate))
    return 0


def _cmd_chaos(args):
    """Run one workload under a fault plan through the HostManager."""
    import numpy as np

    from .errors import RuntimeFailure
    from .eval import Harness
    from .runtime import FaultPlan, HostManager, RecoveryPolicy
    from .workloads import Trajectory

    try:
        plan = FaultPlan.parse(args.inject, seed=args.seed)
    except ValueError as exc:
        print(f"bad --inject spec: {exc}", file=sys.stderr)
        return 2

    harness = Harness()
    workload, app, accelerators = harness.compiled(args.workload)
    policy = RecoveryPolicy(
        max_attempts=args.retries + 1,
        host_fallback=not args.no_fallback,
    )
    manager = HostManager(accelerators, policy=policy)

    def drive(fault_plan):
        """One chaos run: *steps* invocations threading state, one plan."""
        active = fault_plan.activate()
        report = None

        def invoke(**values):
            nonlocal report
            report = manager.run(
                app,
                fault_plan=active,
                hints=workload.hints(),
                precision=args.precision,
                **values,
            )
            return report.result

        trajectory = Trajectory(workload)
        for _ in range(args.steps):
            trajectory.step(invoke)
        return report

    try:
        report = drive(plan)
    except RuntimeFailure as exc:
        print(exc.report.render(events=not args.quiet))
        print(f"\nchaos: {exc}", file=sys.stderr)
        return 1

    print(report.render(events=not args.quiet))

    status = 0
    if args.compare:
        baseline = drive(FaultPlan(seed=args.seed))
        matches = sorted(report.result.outputs) == sorted(baseline.result.outputs)
        if matches:
            for name in report.result.outputs:
                if not np.array_equal(
                    report.result.outputs[name], baseline.result.outputs[name]
                ):
                    matches = False
        verdict = "bit-for-bit identical" if matches else "MISMATCH"
        print(f"\nfaulty vs fault-free outputs: {verdict}")
        if not matches:
            status = 1

    if args.json:
        import json

        payload = json.dumps(report.to_dict(), indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload)
            print(f"wrote chaos report to {args.json}")
    return status


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

    from .obs import Tracer, write_chrome_trace
    from .serve import Server

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
            aging_s=args.aging,
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
    import threading

    from .serve import Request, percentile

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
        results = [None] * args.sessions

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
            results[idx] = (times, signatures, errors)

        clients = [
            threading.Thread(target=run_session, args=(idx,), daemon=True)
            for idx in range(args.sessions)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()

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
    from .serve import replay, run_serial, synth_trace

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


def _cmd_fuzz(args):
    """Differential fuzzing: generated programs vs five oracles.

    Generates seeded random PMLang programs and checks every execution
    path — interpreter lattice, rule-optimized execution plan, generated
    kernel, fusion, and fault-recovered HostManager runs under swept
    fault campaigns — against the reference interpreter, with automatic
    test-case minimization for any divergence. Writes the
    machine-readable validation matrix to ``results/BENCH_resilience.json``
    (override with ``--json``) and exits nonzero on any divergence.
    """
    import os

    from .fuzz import run_fuzz

    progress = None
    if args.verbose:
        def progress(line):
            print(line, flush=True)

    report = run_fuzz(
        programs=args.programs,
        seed=args.seed,
        campaigns=args.campaigns,
        minimize=args.minimize,
        progress=progress,
        dim_variants=args.dim_variants,
    )
    print(report.render())
    if args.json != "none":
        directory = os.path.dirname(args.json)
        if directory and args.json != "-":
            os.makedirs(directory, exist_ok=True)
        _emit_json(report.to_dict(), args.json)
    return 0 if report.ok else 1


#: Default workload set for ``repro codegen``: the five figure profiles.
_CODEGEN_PROFILED = (
    "MobileRobot", "Twitter-BFS", "MovieL-100K", "FFT-8192", "ResNet-18",
)


def _cmd_codegen(args):
    """Kernel-codegen report: build, compare, and dump generated kernels.

    Lowers each selected workload's execution plan to a generated kernel
    through the session (``plan_for(..., codegen=True)``), so cache
    tiers, diagnostics, and CODEGEN_STATS behave exactly as in serving.
    ``--compare`` replays a short stateful trajectory through both tiers
    and requires bit-identical f64 outputs and state at every step —
    exits nonzero on any mismatch or on a workload whose build declined.
    """
    import os

    import numpy as np

    from .codegen import CODEGEN_STATS, Unsupported
    from .eval import Harness
    from .workloads import Trajectory

    CODEGEN_STATS.reset()
    names = list(args.workload) if args.workload else list(_CODEGEN_PROFILED)
    harness = Harness()
    workloads_payload = {}
    failures = 0
    for name in names:
        workload, app, _ = harness.compiled(name)
        plan = harness.session.plan_for(app, codegen=True)
        kernel = plan.kernel
        entry = {"kernel": kernel is not None}
        if kernel is None:
            entry["provenance"] = "interpreter"
            print(f"{name:15s} DECLINED (interpreter tier only)")
            if args.compare:
                failures += 1
            workloads_payload[name] = entry
            continue
        report = dict(kernel.report)
        entry.update(
            provenance="kernel",
            source_bytes=len(kernel.source),
            specialized=report.get("specialized", 0),
            statements=report.get("statements", 0),
            einsum=report.get("einsum", 0),
            fallback=report.get("fallback", 0),
        )
        line = (
            f"{name:15s} kernel "
            f"{entry['specialized']}/{entry['statements']} specialized, "
            f"{entry['einsum']} einsum, "
            f"{entry['source_bytes']} bytes"
        )
        if args.dump_source:
            os.makedirs(args.dump_source, exist_ok=True)
            path = os.path.join(
                args.dump_source, f"{name.replace('/', '_')}.py"
            )
            with open(path, "w") as handle:
                handle.write(kernel.source)
            entry["source_path"] = path
        if args.compare:
            # One trajectory per tier, stepped in lockstep; only the
            # tier's own execution is timed, not input generation.
            seconds = {"interp": 0.0, "kernel": 0.0}

            def timed(tier, run):
                def invoke(**values):
                    start = time.perf_counter()
                    result = run(**values)
                    seconds[tier] += time.perf_counter() - start
                    if result is None:
                        raise Unsupported(f"{tier} tier declined the step")
                    return result
                return invoke

            interp = timed("interp", functools.partial(
                plan._execute, output_init=None, trace=None
            ))
            kern = timed("kernel", functools.partial(kernel.try_execute, plan))
            ref_run, kern_run = Trajectory(workload), Trajectory(workload)
            identical = True
            for step in range(max(1, args.steps)):
                ref = ref_run.step(interp)
                try:
                    got = kern_run.step(kern)
                except Unsupported:
                    identical = False
                    break
                for kind, ref_d, got_d in (
                    ("output", ref.outputs, got.outputs),
                    ("state", ref.state, got.state),
                ):
                    for key in ref_d:
                        a, b = ref_d[key], got_d.get(key)
                        if (
                            b is None
                            or a.dtype != b.dtype
                            or a.shape != b.shape
                            or not np.array_equal(a, b, equal_nan=True)
                        ):
                            identical = False
                            entry.setdefault("mismatches", []).append(
                                f"step {step} {kind} {key}"
                            )
            interp_s, kernel_s = seconds["interp"], seconds["kernel"]
            entry.update(
                identical=identical,
                steps=max(1, args.steps),
                interpreter_seconds=interp_s,
                kernel_seconds=kernel_s,
                speedup=(interp_s / kernel_s) if kernel_s else None,
            )
            status = "bit-identical" if identical else "MISMATCH"
            line += (
                f"; compare[{entry['steps']} step(s)]: {status}, "
                f"interp {interp_s * 1e3:.2f} ms vs "
                f"kernel {kernel_s * 1e3:.2f} ms"
            )
            if not identical:
                failures += 1
        print(line)
        workloads_payload[name] = entry
    payload = {
        "workloads": workloads_payload,
        "stats": CODEGEN_STATS.to_dict(),
        "ok": failures == 0,
    }
    if args.json:
        _emit_json(payload, args.json)
    return 1 if failures else 0


def _cmd_selfcheck(args):
    """Run rows of the smoke table (:mod:`repro.selfcheck`), all by default."""
    from .selfcheck import run

    return run(args.rows)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PolyMath reproduction: cross-domain acceleration stack",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list benchmark workloads").set_defaults(
        func=_cmd_workloads
    )

    check = sub.add_parser("check", help="functionally validate workloads")
    check.add_argument("names", nargs="*", help="workload names (default: all)")
    check.set_defaults(func=_cmd_check)

    compile_cmd = sub.add_parser("compile", help="compile a PMLang file")
    compile_cmd.add_argument("source", help="PMLang file path (- for stdin)")
    compile_cmd.add_argument("--domain", default=None, help="top-level domain tag")
    compile_cmd.set_defaults(func=_cmd_compile)

    stats = sub.add_parser(
        "stats", help="per-stage compile timings, deltas, and cache report"
    )
    stats.add_argument(
        "source", nargs="?", default=None,
        help="PMLang file path (- for stdin); omit with --workload",
    )
    stats.add_argument("--domain", default=None, help="top-level domain tag")
    stats.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="compile the program N times (default 2, demonstrating the "
        "artifact cache)",
    )
    stats.add_argument(
        "--workload",
        default=None,
        metavar="NAME",
        help="compile a named workload instead of a source file and report "
        "its execution plan (first-call vs steady-state timings)",
    )
    stats.add_argument(
        "--execute",
        type=int,
        default=0,
        metavar="N",
        help="with --workload: execute the plan for N steps, threading state",
    )
    stats.add_argument(
        "--precision",
        default="f64",
        choices=("f64", "f32"),
        help="execution-plan float precision (default f64)",
    )
    stats.add_argument(
        "--assert-plan-reuse",
        action="store_true",
        help="exit nonzero unless each statement plan was built exactly "
        "once and executed once per step (counter-based)",
    )
    stats.add_argument(
        "--json",
        metavar="PATH",
        help="dump the session stats / plan report as JSON (- for stdout)",
    )
    stats.set_defaults(func=_cmd_stats)

    serve = sub.add_parser(
        "serve",
        help="run the concurrent compile-and-execute service on a "
        "synthetic mixed-workload trace",
    )
    serve.add_argument(
        "--requests", type=int, default=32, help="trace length (default 32)"
    )
    serve.add_argument(
        "--workers", type=int, default=4, help="worker threads (default 4)"
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="admission-queue capacity before backpressure (default 16)",
    )
    serve.add_argument(
        "--pool",
        default="thread",
        choices=("thread", "process"),
        help="worker backend: in-process threads, or one worker process "
        "per thread with cross-process compile coalescing (default thread)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="artifact-cache directory shared by worker processes; "
        "--pool process uses a temporary directory when omitted",
    )
    serve.add_argument(
        "--aging",
        type=float,
        default=None,
        metavar="SECONDS",
        help="priority aging interval: a queued request gains one "
        "priority level per SECONDS waited (default off)",
    )
    serve.add_argument(
        "--workloads",
        default="MobileRobot,ElecUse,FFT-8192,DCT-1024",
        metavar="A,B,...",
        help="comma-separated workload mix",
    )
    serve.add_argument("--seed", type=int, default=0, help="trace RNG seed")
    serve.add_argument(
        "--max-steps",
        type=int,
        default=4,
        help="max invocations per request (default 4)",
    )
    serve.add_argument(
        "--precision",
        default="f64",
        choices=("f64", "f32"),
        help="execution-plan float precision (default f64)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stamp every request with this deadline; expired requests are "
        "rejected with a distinct status and never executed",
    )
    serve.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="make roughly this fraction of requests fault-injecting "
        "(recovered through the HostManager; default 0)",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        metavar="N",
        help="open a workload's circuit breaker after N consecutive "
        "failures (0 disables; default 5)",
    )
    serve.add_argument(
        "--assert-conservation",
        action="store_true",
        help="exit nonzero unless every submitted request is accounted "
        "for in exactly one outcome bucket",
    )
    serve.add_argument(
        "--assert-plan-reuse",
        action="store_true",
        help="exit nonzero unless graph/statement plans were built exactly "
        "once per distinct (workload, precision) pair (counter-based)",
    )
    serve.add_argument(
        "--compare-serial",
        action="store_true",
        help="also run the trace serially and verify outputs are "
        "bit-identical to the concurrent run",
    )
    serve.add_argument(
        "--json",
        metavar="PATH",
        help="dump the ServeReport as JSON (- for stdout)",
    )
    serve.add_argument(
        "--trace",
        metavar="PATH",
        help="record a span trace of the run and write it as Chrome "
        "trace-event JSON (chrome://tracing / Perfetto loadable); also "
        "prints the unified counters dump and adds per-layer span counts "
        "to the --json payload",
    )
    serve.add_argument(
        "--sessions",
        type=int,
        default=0,
        metavar="N",
        help="session mode: instead of replaying the synthetic trace, "
        "open N stateful sessions on the first --workloads entry, stream "
        "--session-steps steps through each, and compare per-step latency "
        "and bit-identity against one-shot re-submission. The "
        "state-threading one-shot chain is expected near 1.0x of a session "
        "step on threads (both read one bound config); the stateless "
        "prefix recompute is what sessions beat",
    )
    serve.add_argument(
        "--session-steps",
        type=int,
        default=50,
        metavar="M",
        help="steps streamed through each session (default 50)",
    )
    serve.add_argument(
        "--dims",
        default=None,
        metavar="k=v,...",
        help="symbolic-dim overrides for session mode, e.g. n=1000 "
        "(rounded up by --bucket-policy before planning)",
    )
    serve.add_argument(
        "--bucket-policy",
        default="exact",
        metavar="POLICY",
        help="shape-bucket rounding for dim overrides: exact, pow2, or "
        "multiple:N (default exact)",
    )
    serve.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="X",
        help="session mode: exit nonzero unless sessions beat stateless "
        "one-shot re-submission by at least X in per-step p50 latency",
    )
    serve.set_defaults(func=_cmd_serve)

    selfcheck = sub.add_parser(
        "selfcheck",
        help="run the smoke table: every claim CI checks, one row each "
        "(reports and artefacts land in results/selfcheck/)",
    )
    selfcheck.add_argument(
        "rows", nargs="*", metavar="row", help="row names (default: all)"
    )
    selfcheck.set_defaults(func=_cmd_selfcheck)

    rewrite = sub.add_parser(
        "rewrite",
        help="run the declarative rewrite engine over workload srDFGs "
        "(per-rule activity, rule-firing explanation, cost-guided fusion)",
    )
    rewrite.add_argument(
        "names", nargs="*", help="workload names (default: all)"
    )
    rewrite.add_argument(
        "--explain",
        action="store_true",
        help="print every rule firing with the statement site it rewrote",
    )
    rewrite.add_argument(
        "--fuse",
        action="store_true",
        help="also compile each workload with cost-guided cross-domain "
        "fusion and print the fusion report (DMA transfers removed)",
    )
    rewrite.add_argument(
        "--json",
        metavar="PATH",
        help="dump workload deltas, per-rule counters, rule firings, and "
        "fusion reports as JSON (- for stdout)",
    )
    rewrite.set_defaults(func=_cmd_rewrite)

    profile = sub.add_parser("profile", help="per-fragment cost profile")
    profile.add_argument("source", help="PMLang file path (- for stdin)")
    profile.add_argument("--domain", default=None)
    profile.add_argument("--top", type=int, default=10)
    profile.set_defaults(func=_cmd_profile)

    dse = sub.add_parser("dse", help="design-space exploration sweep")
    dse.add_argument("workload", help="workload name (e.g. ResNet-18)")
    dse.add_argument("accelerator", help="accelerator name (e.g. vta)")
    dse.add_argument("--scales", default="0.5,1,2", help="throughput scales")
    dse.add_argument("--freqs-mhz", default="100,150,300", help="frequencies")
    dse.set_defaults(func=_cmd_dse)

    save_ir = sub.add_parser("save-ir", help="serialise compiled accelerator IR")
    save_ir.add_argument("source", help="PMLang file path (- for stdin)")
    save_ir.add_argument("--domain", default=None)
    save_ir.add_argument("--out", default=None, help="output JSON path")
    save_ir.set_defaults(func=_cmd_save_ir)

    show = sub.add_parser("show", help="print a program's srDFG")
    show.add_argument("source", help="PMLang file path (- for stdin)")
    show.add_argument("--domain", default=None)
    show.add_argument("--dot", action="store_true", help="emit GraphViz DOT")
    show.add_argument("--depth", type=int, default=None, help="max recursion depth")
    show.set_defaults(func=_cmd_show)

    sub.add_parser("tables", help="regenerate Tables I-VI").set_defaults(
        func=_cmd_tables
    )

    figures = sub.add_parser("figures", help="regenerate evaluation figures")
    figures.add_argument("ids", nargs="*", help=f"subset of {_FIGURES}")
    figures.add_argument(
        "--json", metavar="PATH",
        help="also write the payload the paper claims read, as JSON (- for stdout)",
    )
    figures.set_defaults(func=_cmd_figures)

    report = sub.add_parser("report", help="regenerate all tables and figures")
    report.add_argument(
        "--validate", action="store_true", help="also run functional checks"
    )
    report.set_defaults(func=_cmd_report)

    chaos = sub.add_parser(
        "chaos",
        help="run a workload under a fault-injection plan and report recovery",
    )
    chaos.add_argument(
        "workload", nargs="?", default="BrainStimul", help="workload name"
    )
    chaos.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="SPEC",
        help="fault spec kind[@domain][:p=P][:at=I,J][:n=N]; kinds: stall, "
        "crash, transient, dma-corrupt, dma-drop (repeatable)",
    )
    chaos.add_argument("--seed", type=int, default=0, help="fault-plan RNG seed")
    chaos.add_argument(
        "--steps", type=int, default=1, help="invocations to run (threading state)"
    )
    chaos.add_argument(
        "--retries", type=int, default=3, help="retries per dispatch before escalation"
    )
    chaos.add_argument(
        "--no-fallback",
        action="store_true",
        help="disable graceful degradation onto the host CPU",
    )
    chaos.add_argument(
        "--compare",
        action="store_true",
        help="also run fault-free and verify outputs match bit-for-bit",
    )
    chaos.add_argument(
        "--precision",
        default="f64",
        choices=("f64", "f32"),
        help="execution precision for both the faulty and the fault-free "
        "run (host fallback honours it too; default f64)",
    )
    chaos.add_argument(
        "--quiet", action="store_true", help="omit the per-event trace"
    )
    chaos.add_argument(
        "--json", metavar="PATH", help="dump the RunReport as JSON (- for stdout)"
    )
    chaos.set_defaults(func=_cmd_chaos)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated PMLang programs checked "
        "against five oracles (interpreter, plan, generated kernel, "
        "fusion, fault-recovered runtime) with "
        "divergence minimization",
    )
    fuzz.add_argument(
        "--programs", type=int, default=25,
        help="number of generated programs (default 25)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0,
        help="first program seed; program i uses seed+i (default 0)",
    )
    fuzz.add_argument(
        "--campaigns",
        default="all",
        choices=("all", "smoke", "none"),
        help="fault-campaign sweep for the faults oracle: 'all' sweeps "
        "every fault kind x accelerated domain plus a mixed plan, "
        "'smoke' injects one transient, 'none' skips faults (default all)",
    )
    fuzz.add_argument(
        "--minimize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="greedily minimize diverging programs to small reproducers "
        "(default on; --no-minimize to skip)",
    )
    fuzz.add_argument(
        "--json",
        default="results/BENCH_resilience.json",
        metavar="PATH",
        help="validation-matrix JSON output (default "
        "results/BENCH_resilience.json; - for stdout, 'none' to skip)",
    )
    fuzz.add_argument(
        "--dim-variants",
        type=int,
        default=1,
        metavar="K",
        help="size bindings run per seed: 1 uses just the drawn sizes; "
        "K > 1 re-runs each program at K-1 forced tensor sizes, each "
        "binding compiled and planned as its own graph (default 1)",
    )
    fuzz.add_argument(
        "--verbose", action="store_true",
        help="print per-program progress lines",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    codegen = sub.add_parser(
        "codegen",
        help="kernel codegen tier: build generated kernels for the "
        "figure workloads, compare against the interpreter "
        "(bit-identity at f64), and dump generated source",
    )
    codegen.add_argument(
        "--workload", action="append", metavar="NAME",
        help="workload to lower (repeatable; default: the five "
        "profiled figure workloads)",
    )
    codegen.add_argument(
        "--compare", action="store_true",
        help="replay a short stateful trajectory through interpreter "
        "and kernel tiers; exit nonzero unless bit-identical",
    )
    codegen.add_argument(
        "--steps", type=int, default=3,
        help="trajectory steps for --compare (default 3)",
    )
    codegen.add_argument(
        "--dump-source", metavar="DIR",
        help="write each workload's generated kernel source to DIR",
    )
    codegen.add_argument(
        "--json", metavar="PATH",
        help="machine-readable report (- for stdout)",
    )
    codegen.set_defaults(func=_cmd_codegen)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
