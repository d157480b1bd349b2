"""Verification: ``fuzz``, ``codegen``, ``chaos`` and ``selfcheck``."""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import _add_json, _add_precision, _emit_json, _mismatches


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
    from ..fuzz import run_fuzz

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
        _emit_json(report.to_dict(), args.json)
    return 0 if report.ok else 1


def add_fuzz(sub):
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
        "--campaigns", default="all", choices=("all", "smoke", "none"),
        help="fault-campaign sweep for the faults oracle: 'all' sweeps "
        "every fault kind x accelerated domain plus a mixed plan, "
        "'smoke' injects one transient, 'none' skips faults (default all)",
    )
    fuzz.add_argument(
        "--minimize", action=argparse.BooleanOptionalAction, default=True,
        help="greedily minimize diverging programs to small reproducers "
        "(default on; --no-minimize to skip)",
    )
    _add_json(
        fuzz,
        "validation-matrix JSON output (default "
        "results/BENCH_resilience.json; - for stdout, 'none' to skip)",
        default="results/BENCH_resilience.json",
    )
    fuzz.add_argument(
        "--dim-variants", type=int, default=1, metavar="K",
        help="size bindings run per seed: 1 uses just the drawn sizes; "
        "K > 1 re-runs each program at K-1 forced tensor sizes, each "
        "binding compiled and planned as its own graph (default 1)",
    )
    fuzz.add_argument(
        "--verbose", action="store_true", help="print per-program progress lines"
    )
    fuzz.set_defaults(func=_cmd_fuzz)


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

    from ..codegen import CODEGEN_STATS
    from ..eval import Harness
    from ..workloads import Trajectory

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
            entry.update(provenance="interpreter", declined=plan.kernel_declined)
            print(f"{name:15s} DECLINED (interpreter tier only): {plan.kernel_declined}")
            if args.compare:
                failures += 1
            workloads_payload[name] = entry
            continue
        entry.update(provenance="kernel", source_bytes=len(kernel.source))
        entry.update(kernel.report)
        line = (
            f"{name:15s} kernel "
            f"{entry['statements']} statement(s), "
            f"{entry['einsum']} einsum, "
            f"{entry['compressed']} compressed, "
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
        if args.statement_ms:
            entry["statement_ms"] = _statement_ms(workload, kernel, max(1, args.steps))
        if args.compare:
            # One trajectory per tier, stepped in lockstep; only the
            # tier's own execution is timed, not input generation.
            seconds = {"interp": 0.0, "kernel": 0.0}

            def timed(tier, run):
                def invoke(**values):
                    start = time.perf_counter()
                    result = run(**values)
                    seconds[tier] += time.perf_counter() - start
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
                got = kern_run.step(kern)
                for where in _mismatches(ref, got):
                    identical = False
                    entry.setdefault("mismatches", []).append(
                        f"step {step} {where}"
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
        for timed in entry.get("statement_ms", ()):
            print(f"  {timed['ms']:10.4f} ms  {timed['statement']}")
        workloads_payload[name] = entry
    payload = {
        "workloads": workloads_payload,
        "stats": CODEGEN_STATS.to_dict(),
        "ok": failures == 0,
    }
    if args.json:
        _emit_json(payload, args.json)
    return 1 if failures else 0


def _statement_ms(workload, kernel, steps):
    """Each statement of *kernel* with its median wall time (ms) over
    *steps* steps of a fresh trajectory, run by an instrumented copy
    under the heap policy a serving worker runs kernels with."""
    import statistics

    from ..codegen import timed_statements
    from ..serve.heap import keep_heap
    from ..srdfg.interpreter import ExecutionResult
    from ..workloads import Trajectory

    keep_heap()
    copy, labels, laps = timed_statements(kernel)
    samples = [[] for _ in labels]

    def invoke(**values):
        laps.clear()
        outputs, state = copy.run(**values)
        for position, (start, stop) in enumerate(zip(laps, laps[1:])):
            samples[position].append(stop - start)
        return ExecutionResult(outputs, state, tier="kernel")

    trajectory = Trajectory(workload)
    for _ in range(steps):
        trajectory.step(invoke)
    return [
        {"statement": label, "ms": statistics.median(times) * 1e3}
        for label, times in zip(labels, samples) if label is not None
    ]


def add_codegen(sub):
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
        help="trajectory steps for --compare and --statement-ms (default 3)",
    )
    codegen.add_argument(
        "--statement-ms", action="store_true",
        help="print each kernel statement's median wall time over --steps "
        "runs of an instrumented copy of the kernel (the built kernel is "
        "left as it is)",
    )
    codegen.add_argument(
        "--dump-source", metavar="DIR",
        help="write each workload's generated kernel source to DIR",
    )
    _add_json(codegen, "machine-readable report (- for stdout)")
    codegen.set_defaults(func=_cmd_codegen)


def _cmd_chaos(args):
    """Run one workload under a fault plan through the HostManager."""
    from ..errors import RuntimeFailure
    from ..eval import Harness
    from ..runtime import FaultPlan, HostManager, RecoveryPolicy
    from ..workloads import Trajectory

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
        """One chaos run: *steps* invocations threading state, one plan;
        returns every step's report."""
        active = fault_plan.activate()
        reports = []

        def invoke(**values):
            reports.append(manager.run(
                app,
                fault_plan=active,
                hints=workload.hints(),
                precision=args.precision,
                **values,
            ))
            return reports[-1].result

        trajectory = Trajectory(workload)
        for _ in range(args.steps):
            trajectory.step(invoke)
        return reports

    try:
        reports = drive(plan)
    except RuntimeFailure as exc:
        print(exc.report.render(events=not args.quiet))
        print(f"\nchaos: {exc}", file=sys.stderr)
        return 1

    report = reports[-1]
    print(report.render(events=not args.quiet))

    status = 0
    if args.compare:
        mismatches = [
            f"step {step} {where}"
            for step, (got, ref) in enumerate(
                zip(reports, drive(FaultPlan(seed=args.seed)))
            )
            for where in _mismatches(ref.result, got.result)
        ]
        verdict = (
            f"MISMATCH ({', '.join(mismatches)})" if mismatches
            else "bit-for-bit identical"
        )
        print(f"\nfaulty vs fault-free outputs: {verdict}")
        if mismatches:
            status = 1

    if args.json:
        _emit_json(report.to_dict(), args.json)
    return status


def add_chaos(sub):
    chaos = sub.add_parser(
        "chaos",
        help="run a workload under a fault-injection plan and report recovery",
    )
    chaos.add_argument(
        "workload", nargs="?", default="BrainStimul", help="workload name"
    )
    chaos.add_argument(
        "--inject", action="append", default=[], metavar="SPEC",
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
        "--no-fallback", action="store_true",
        help="disable graceful degradation onto the host CPU",
    )
    chaos.add_argument(
        "--compare", action="store_true",
        help="also run fault-free and verify every step's outputs and state "
        "match bit-for-bit",
    )
    _add_precision(
        chaos,
        help="execution precision for both the faulty and the fault-free "
        "run (host fallback honours it too; default f64)",
    )
    chaos.add_argument("--quiet", action="store_true", help="omit the per-event trace")
    _add_json(chaos, "dump the RunReport as JSON (- for stdout)")
    chaos.set_defaults(func=_cmd_chaos)


def _cmd_selfcheck(args):
    """Run rows of the smoke table (:mod:`repro.selfcheck`), all by default."""
    from ..selfcheck import run

    return run(args.rows)


def add_selfcheck(sub):
    selfcheck = sub.add_parser(
        "selfcheck",
        help="run the smoke table: every claim CI checks, one row each "
        "(reports and artefacts land in results/selfcheck/)",
    )
    selfcheck.add_argument(
        "rows", nargs="*", metavar="row", help="row names (default: all)"
    )
    selfcheck.set_defaults(func=_cmd_selfcheck)
