"""The five differential oracles.

Every generated program is executed by the *reference interpreter* — an
:class:`~repro.srdfg.interpreter.Executor` over the raw, unoptimized
srDFG — and the result is compared against five independent paths
through the stack:

``interpreter``
    The same raw graph with einsum dispatch disabled (pure recursive
    lattice semantics). Summation order legitimately differs, so this
    oracle compares under a tight per-precision tolerance; it validates
    each contraction's planned form against the paper's lattice
    semantics.
``plan``
    The full compile pipeline (rule-based optimizer, lowering,
    translation) followed by shared :class:`ExecutionPlan` execution,
    stepped with one read-only params dict (so a predicate over params
    runs on its points, against the reference's lattice).
    Bit-identical at f64.
``codegen``
    The plan lowered further into a generated straight-line numpy kernel
    (:mod:`repro.codegen`), replayed through ``KernelArtifact.run``.
    Bit-identical at f64; a declined build is a finding (no generated
    construct is one the emitter declines, so a decline is lost coverage),
    and so is a runtime failure.
``fusion``
    Compilation with cost-guided fusion enabled. Fusion retags domains
    and erases DMA crossings but must never change values: bit-identical
    at f64.
``faults``
    :class:`~repro.runtime.manager.HostManager` execution under swept
    :class:`~repro.runtime.faults.FaultPlan` campaigns (every fault kind
    x domain present in the compiled app, plus a seeded probabilistic
    mixed campaign). Recovery — retries, checkpoint replay, host
    degradation — must reproduce the reference bit-identically at f64
    while the campaign records availability and recovery overhead. One
    fault-free timing-plane pass per program (``placements``) first
    checks, on every subset of accelerated domains, that the event loop
    charges exactly what :meth:`~repro.hw.soc.SoCRuntime.execute` prices
    — no unit dropped, none charged twice.

f32 comparisons use tolerance everywhere: the plan rounds to f32 at
statement boundaries, and optimizer-reordered arithmetic differs in the
last ulp — a real divergence shows up orders of magnitude above the
threshold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..driver import CompilerSession
from ..runtime import FaultPlan, HostManager, RecoveryPolicy
from ..runtime.faults import FAULT_KINDS
from ..serve.request import result_signature
from ..srdfg.builder import build
from ..srdfg.interpreter import Executor
from ..targets import default_accelerators

__all__ = [
    "CheckResult",
    "OracleContext",
    "ORACLES",
    "fault_campaigns",
    "frozen_params",
    "run_program",
    "run_reference",
]

#: Oracle names in report order.
ORACLES = ("interpreter", "plan", "codegen", "fusion", "faults")

#: Per-precision comparison policy: (strict_bit_identity, rtol, atol).
#: The tolerance is the fallback for oracles where bit-identity is not
#: the contract (interpreter oracle; any f32 comparison).
_POLICY = {
    "f64": (True, 1e-9, 1e-12),
    "f32": (False, 1e-4, 1e-6),
}


@dataclass
class CheckResult:
    """One oracle verdict for one (program, precision[, campaign])."""

    oracle: str
    precision: str
    ok: bool
    campaign: str = ""
    detail: str = ""
    max_error: float = 0.0
    availability: Optional[float] = None
    overhead: Optional[float] = None

    def to_dict(self):
        payload = {
            "oracle": self.oracle,
            "precision": self.precision,
            "ok": self.ok,
        }
        if self.campaign:
            payload["campaign"] = self.campaign
        if self.detail:
            payload["detail"] = self.detail
        if self.max_error:
            payload["max_error"] = self.max_error
        if self.availability is not None:
            payload["availability"] = self.availability
        if self.overhead is not None:
            payload["overhead"] = self.overhead
        return payload


class OracleContext:
    """The compiler sessions the oracles run through.

    One context serves a whole fuzz run: the artifact cache coalesces the
    per-precision plan lookups, and a long campaign never re-parses a
    program it has seen. Tests substitute a sabotaged ``rules`` session
    (e.g. a pipeline with a deliberately broken pass) to prove the
    harness catches and minimizes real optimizer bugs.
    """

    def __init__(self, rules=None, fused=None, domain="DA"):
        accelerators = default_accelerators()
        self.rules = rules or CompilerSession(accelerators)
        self.fused = fused or CompilerSession(accelerators, fusion=True)
        self.domain = domain


def _execute_steps(program, execute, params=None):
    """Run *execute* once per program step, threading state; returns the
    per-step output dictionaries. Each step gets fresh writeable params
    unless *params* is given."""
    state = program.initial_state()
    steps = []
    for step in range(program.steps):
        result = execute(
            program.inputs(), program.params() if params is None else params, state
        )
        state = result.state
        steps.append(dict(result.outputs))
    return steps


def run_reference(program, precision, graph=None):
    """The reference interpreter's per-step outputs for *program*."""
    if graph is None:
        graph = build(program.render(), domain="DA")
    executor = Executor(graph, precision=precision)
    return _execute_steps(
        program,
        lambda inputs, params, state: executor.run(
            inputs=inputs, params=params, state=state
        ),
    )


def _compare(reference, candidate, precision, strict=True):
    """(ok, detail, max_error) comparing per-step output dictionaries."""
    bit_identity, rtol, atol = _POLICY[precision]
    strict = strict and bit_identity
    max_error = 0.0
    for step, (ref, got) in enumerate(zip(reference, candidate)):
        if set(ref) != set(got):
            return False, (
                f"step {step}: output names differ "
                f"({sorted(ref)} vs {sorted(got)})"
            ), float("inf")
        if strict:
            if result_signature(ref) != result_signature(got):
                worst = max(
                    float(np.max(np.abs(np.asarray(ref[k], dtype=np.float64)
                                        - np.asarray(got[k], dtype=np.float64))))
                    for k in ref
                )
                return False, (
                    f"step {step}: outputs not bit-identical "
                    f"(max |err| {worst:.3e})"
                ), worst
            continue
        for name in sorted(ref):
            a = np.asarray(ref[name], dtype=np.float64)
            b = np.asarray(got[name], dtype=np.float64)
            if a.shape != b.shape:
                return False, (
                    f"step {step}: {name} shape {a.shape} vs {b.shape}"
                ), float("inf")
            err = float(np.max(np.abs(a - b))) if a.size else 0.0
            max_error = max(max_error, err)
            if not np.allclose(a, b, rtol=rtol, atol=atol):
                return False, (
                    f"step {step}: {name} max |err| {err:.3e} "
                    f"exceeds rtol={rtol} atol={atol}"
                ), err
    return True, "", max_error


def frozen_params(program):
    """One read-only copy of *program*'s params, held across its steps
    as a workload's are, so a predicate over them runs on its points
    while the reference, handed writeable ones, stays on the lattice."""
    params = {}
    for name, value in program.params().items():
        params[name] = np.array(value)
        params[name].flags.writeable = False
    return params


def _plan_steps(program, plan, params=None):
    return _execute_steps(
        program,
        lambda inputs, params, state: plan.execute(
            inputs=inputs, params=params, state=state
        ),
        params,
    )


def check_interpreter(program, precision, context, reference, graph):
    """Einsum-disabled lattice execution vs the reference (tolerance)."""
    executor = Executor(graph, precision=precision, enable_einsum=False)
    candidate = _execute_steps(
        program,
        lambda inputs, params, state: executor.run(
            inputs=inputs, params=params, state=state
        ),
    )
    ok, detail, err = _compare(reference, candidate, precision, strict=False)
    return CheckResult("interpreter", precision, ok, detail=detail,
                       max_error=err)


def check_plan(program, precision, context, reference, app, params=None):
    """Rule-optimized, lowered ExecutionPlan execution vs the reference.

    The plan comes from the session's content-addressed plan tier, so
    every dim variant of one generated seed — and every minimized clone,
    which shares the seed *and* the sizes while compiling to a different
    graph — gets the plan of its own graph. It steps with *params*
    (:func:`frozen_params`) when given.
    """
    plan = context.rules.plan_for(app, precision=precision)
    ok, detail, err = _compare(
        reference, _plan_steps(program, plan, params), precision
    )
    return CheckResult("plan", precision, ok, detail=detail, max_error=err)


def check_codegen(program, precision, context, reference, app, params=None):
    """Generated-kernel execution vs the reference.

    Lowers the same plan the plan oracle runs (shared through the
    artifact cache) into a generated kernel and replays the
    stateful trajectory through ``KernelArtifact.run`` directly — the
    kernel is deliberately *not* attached to the shared plan, so the
    plan oracle keeps exercising the interpreted tier. Bit-identical at
    f64, tolerance at f32 (the kernel threads the same host-fallback f32
    rounding the plan does). A declined build (the emitter raised
    ``Unsupported``) is a divergence whose detail is the decline reason:
    no generated construct is one the emitter declines, so a decline is
    lost coverage. Any other exception out of ``build_kernel`` (an
    emitter defect) is a finding, and so is a *runtime* failure on a
    program the reference executes cleanly. It steps with *params*
    (:func:`frozen_params`) when given.
    """
    from ..codegen import build_kernel
    from ..srdfg.interpreter import ExecutionResult

    plan = context.rules.plan_for(app, precision=precision)
    kernel = build_kernel(
        plan,
        plan_key=f"fuzz:{program.seed}:{precision}",
        diagnostics=context.rules.diagnostics,
    )
    if kernel is None:
        return CheckResult("codegen", precision, False, detail=plan.kernel_declined)

    def execute(inputs, params, state):
        outputs, state_out = kernel.run(inputs, params, state)
        result = ExecutionResult()
        result.outputs.update(outputs)
        result.state.update(state_out)
        return result

    candidate = _execute_steps(program, execute, params)
    ok, detail, err = _compare(reference, candidate, precision)
    return CheckResult("codegen", precision, ok, detail=detail,
                       max_error=err)


def check_fusion(program, precision, context, reference):
    """Cost-guided-fusion compilation vs the reference."""
    source = program.render()
    app = context.fused.compile(source, domain=context.domain)
    plan = context.fused.plan_for(app, precision=precision)
    ok, detail, err = _compare(
        reference, _plan_steps(program, plan), precision
    )
    return CheckResult("fusion", precision, ok, detail=detail, max_error=err)


def fault_campaigns(app, selector="all"):
    """The fault campaign list for *app*: ``(name, specs)`` pairs.

    ``all`` sweeps every fault kind x accelerated domain (the site class
    — dispatch vs DMA — is implied by the kind) plus one probabilistic
    mixed campaign; ``smoke`` is the cheapest single deterministic
    campaign; ``none`` disables the oracle.
    """
    domains = sorted(set(app.programs) & set(app.accelerators))
    if selector == "none" or not domains:
        return []
    if selector == "smoke":
        return [(f"transient@{domains[0]}", [f"transient@{domains[0]}"])]
    if selector != "all":
        raise ValueError(
            f"unknown campaign selector {selector!r}; "
            "choose from all, smoke, none"
        )
    campaigns = [
        (f"{kind}@{domain}", [f"{kind}@{domain}"])
        for kind in sorted(FAULT_KINDS)
        for domain in domains
    ]
    campaigns.append(
        ("mixed", ["transient:p=0.5:n=2", "dma-corrupt:p=0.5:n=2"])
    )
    return campaigns


def check_placements(app, precision):
    """Fault-free ``execute=False`` runs on every accelerated-domain subset."""
    manager = HostManager(app.accelerators)
    domains = sorted(set(app.programs) & set(app.accelerators))
    for size in range(len(domains) + 1):
        for subset in itertools.combinations(domains, size):
            report = manager.run(
                app, accelerated_domains=subset, execute=False
            )
            if report.total != report.fault_free:
                return CheckResult(
                    "faults", precision, False, campaign="placements",
                    detail=f"accelerating {list(subset)}: event loop charged "
                    f"{report.total!r}, SoCRuntime.execute {report.fault_free!r}",
                )
    return CheckResult("faults", precision, True, campaign="placements")


def check_faults(program, precision, context, reference, app,
                 selector="all"):
    """HostManager execution under swept fault campaigns."""
    results = []
    manager = HostManager(app.accelerators)
    for name, specs in fault_campaigns(app, selector):
        plan = FaultPlan.parse(specs, seed=program.seed).activate()
        policy = RecoveryPolicy(
            backoff_base_s=1e-6, backoff_cap_s=1e-4, watchdog_min_s=1e-4
        )
        availability = 1.0
        overhead = 1.0
        state = program.initial_state()
        steps = []
        try:
            for _ in range(program.steps):
                report = manager.run(
                    app,
                    inputs=program.inputs(),
                    params=program.params(),
                    state=state,
                    fault_plan=plan,
                    precision=precision,
                    policy=policy,
                )
                state = report.result.state
                steps.append(dict(report.result.outputs))
                availability = min(availability, report.availability)
                overhead = max(overhead, report.overhead)
        except Exception as exc:  # noqa: BLE001 — any escape is a finding
            results.append(CheckResult(
                "faults", precision, False, campaign=name,
                detail=f"{type(exc).__name__}: {exc}",
            ))
            continue
        ok, detail, err = _compare(reference, steps, precision)
        results.append(CheckResult(
            "faults", precision, ok, campaign=name, detail=detail,
            max_error=err, availability=availability, overhead=overhead,
        ))
    return results


def run_program(program, context=None, precisions=("f64", "f32"),
                campaigns="all", oracles=ORACLES):
    """Every oracle verdict for one program.

    Returns a list of :class:`CheckResult`; an empty failure list means
    the program agrees across all requested paths. A crash anywhere in
    an oracle path is itself a verdict (``ok=False`` with the exception
    in the detail), never an escape — the harness must survive whatever
    the generator finds.
    """
    context = context or OracleContext()
    source = program.render()
    params = frozen_params(program)
    results = []
    try:
        graph = build(source, domain="DA")
    except Exception as exc:  # noqa: BLE001
        return [CheckResult(
            "reference", precisions[0], False,
            detail=f"build failed: {type(exc).__name__}: {exc}",
        )]
    app = None
    if any(o in oracles for o in ("plan", "codegen", "faults")):
        try:
            app = context.rules.compile(source, domain=context.domain)
        except Exception as exc:  # noqa: BLE001
            return [CheckResult(
                "plan", precisions[0], False,
                detail=f"compile failed: {type(exc).__name__}: {exc}",
            )]
    for precision in precisions:
        try:
            reference = run_reference(program, precision, graph=graph)
        except Exception as exc:  # noqa: BLE001
            results.append(CheckResult(
                "reference", precision, False,
                detail=f"reference failed: {type(exc).__name__}: {exc}",
            ))
            continue
        for oracle in oracles:
            try:
                if oracle == "interpreter":
                    results.append(check_interpreter(
                        program, precision, context, reference, graph))
                elif oracle == "plan":
                    results.append(check_plan(
                        program, precision, context, reference, app, params))
                elif oracle == "codegen":
                    results.append(check_codegen(
                        program, precision, context, reference, app, params))
                elif oracle == "fusion":
                    results.append(check_fusion(
                        program, precision, context, reference))
                elif oracle == "faults":
                    # The timing plane has no precision: once per program.
                    if precision == precisions[0] and campaigns != "none":
                        results.append(check_placements(app, precision))
                    results.extend(check_faults(
                        program, precision, context, reference, app,
                        selector=campaigns))
                else:
                    raise ValueError(f"unknown oracle {oracle!r}")
            except Exception as exc:  # noqa: BLE001
                results.append(CheckResult(
                    oracle, precision, False,
                    detail=f"{type(exc).__name__}: {exc}",
                ))
    return results
