"""Compile tools: ``compile``, ``stats``, ``show``, ``profile``,
``save-ir`` and ``rewrite``."""

from __future__ import annotations

import sys

from . import (
    _add_json, _add_precision, _add_source, _compile_source, _emit_json,
    _load_source, _session,
)


def _cmd_compile(args):
    app = _compile_source(args)
    for domain, program in sorted(app.programs.items()):
        print(f"=== {domain} -> {program.target} ({len(program)} fragments) ===")
        print(program.listing())
        print()
    return 0


def add_compile(sub):
    compile_cmd = sub.add_parser("compile", help="compile a PMLang file")
    _add_source(compile_cmd)
    compile_cmd.set_defaults(func=_cmd_compile)


def _cmd_stats(args):
    from ..errors import PolyMathError

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
    from ..eval import Harness
    from ..workloads import Trajectory

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


def add_stats(sub):
    stats = sub.add_parser(
        "stats", help="per-stage compile timings, deltas, and cache report"
    )
    _add_source(
        stats, nargs="?", default=None,
        help="PMLang file path (- for stdin); omit with --workload",
    )
    stats.add_argument(
        "--repeat", type=int, default=2,
        help="compile the program N times (default 2, demonstrating the "
        "artifact cache)",
    )
    stats.add_argument(
        "--workload", default=None, metavar="NAME",
        help="compile a named workload instead of a source file and report "
        "its execution plan (first-call vs steady-state timings)",
    )
    stats.add_argument(
        "--execute", type=int, default=0, metavar="N",
        help="with --workload: execute the plan for N steps, threading state",
    )
    _add_precision(stats)
    stats.add_argument(
        "--assert-plan-reuse", action="store_true",
        help="exit nonzero unless each statement plan was built exactly "
        "once and executed once per step (counter-based)",
    )
    _add_json(
        stats, "dump the session stats / plan report as JSON (- for stdout)"
    )
    stats.set_defaults(func=_cmd_stats)


def _cmd_show(args):
    from ..srdfg import build
    from ..srdfg.visualize import render_dot, render_text

    graph = build(_load_source(args.source), domain=args.domain)
    if args.dot:
        print(render_dot(graph))
    else:
        print(render_text(graph, max_depth=args.depth))
    return 0


def add_show(sub):
    show = sub.add_parser("show", help="print a program's srDFG")
    _add_source(show)
    show.add_argument("--dot", action="store_true", help="emit GraphViz DOT")
    show.add_argument("--depth", type=int, default=None, help="max recursion depth")
    show.set_defaults(func=_cmd_show)


def _cmd_profile(args):
    print(_compile_source(args).profile_report(top=args.top))
    return 0


def add_profile(sub):
    profile = sub.add_parser("profile", help="per-fragment cost profile")
    _add_source(profile)
    profile.add_argument("--top", type=int, default=10)
    profile.set_defaults(func=_cmd_profile)


def _cmd_save_ir(args):
    from ..targets.serialize import application_to_json

    text = application_to_json(_compile_source(args), indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote accelerator IR to {args.out}")
    else:
        print(text)
    return 0


def add_save_ir(sub):
    save_ir = sub.add_parser("save-ir", help="serialise compiled accelerator IR")
    _add_source(save_ir)
    save_ir.add_argument("--out", default=None, help="output JSON path")
    save_ir.set_defaults(func=_cmd_save_ir)


def _cmd_rewrite(args):
    """Run the declarative rewrite engine over workload srDFGs.

    Applies the rule-based optimisation pipeline to each named workload,
    then lowers it (Algorithm 1's rule set) for the workload's own
    accelerators, and reports per-rule activity. ``--explain`` prints
    each rule firing with its site; ``--fuse`` additionally compiles each
    workload with cost-guided cross-domain fusion enabled and prints the
    :class:`~repro.rewrite.fusion.FusionReport`.
    """
    from ..rewrite import (
        LOWERING_STATS, REWRITE_STATS, ExplainLog, default_pipeline, lower, per_rule,
    )
    from ..targets import default_accelerators, retag_component_domain
    from ..workloads import END_TO_END, SINGLE_DOMAIN, get_workload

    names = args.names or list(SINGLE_DOMAIN + END_TO_END)
    explain = ExplainLog() if (args.explain or args.json) else None
    REWRITE_STATS.reset()
    LOWERING_STATS.reset()
    entries = []
    for name in names:
        workload = get_workload(name)
        graph = workload.build_graph()
        for component, tag in (getattr(workload, "component_domains", None) or {}).items():
            retag_component_domain(graph, component, tag)
        nodes_before, edges_before = graph.total_counts()
        graph = default_pipeline().run(graph, explain=explain).graph
        nodes_after, edges_after = graph.total_counts()
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
        accelerators = default_accelerators(workload.accelerator_overrides)
        om = {domain: acc.om_entry() for domain, acc in accelerators.items()}
        scalar_om = {domain: acc.scalar_entry() for domain, acc in accelerators.items()}
        lower(graph, om, scalar_om, explain=explain)

    fusion_reports = []
    if args.fuse:
        from ..driver import CompilerSession
        from ..eval import Harness

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
        rule: counts
        for stats in (REWRITE_STATS, LOWERING_STATS)
        for rule, counts in per_rule(stats).items()
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
            "counters": {**REWRITE_STATS.to_dict(), "lowering": LOWERING_STATS.to_dict()},
            "firings": explain.by_rule() if explain is not None else {},
            "fusion": fusion_reports,
        }
        _emit_json(payload, args.json)
    return 0


def add_rewrite(sub):
    rewrite = sub.add_parser(
        "rewrite",
        help="run the declarative rewrite engine over workload srDFGs "
        "(per-rule activity, rule-firing explanation, cost-guided fusion)",
    )
    rewrite.add_argument("names", nargs="*", help="workload names (default: all)")
    rewrite.add_argument(
        "--explain", action="store_true",
        help="print every rule firing with the statement site it rewrote",
    )
    rewrite.add_argument(
        "--fuse", action="store_true",
        help="also compile each workload with cost-guided cross-domain "
        "fusion and print the fusion report (DMA transfers removed)",
    )
    _add_json(
        rewrite,
        "dump workload deltas, per-rule counters, rule firings, and "
        "fusion reports as JSON (- for stdout)",
    )
    rewrite.set_defaults(func=_cmd_rewrite)
