"""execute-steady: compile layers do nothing; plans, kernels, numpy all.

Seven programs — the five figure-profile workloads and both end-to-end
applications — are compiled and planned once in set-up. One batch is one
repetition: per program (seeded order) a ``STEPS``-step stateful
trajectory on the interpreted tier (``plan.execute``) and the same on the
generated-kernel tier (``kernel.try_execute``). Step 0 is the "first"
step of a fresh trajectory, steps 2.. are "steady". The two tiers are
reported apart so a gain in one that costs the other shows.
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro.codegen import CODEGEN_STATS, build_kernel
from repro.driver import CompilerSession
from repro.srdfg import Executor
from repro.targets import default_accelerators
from repro.workloads import get_workload

from harness import geomean, median

SETUP_REPEATS = 3
PROGRAMS = (
    "MobileRobot", "Twitter-BFS", "MovieL-100K", "FFT-8192", "ResNet-18",
    "BrainStimul", "OptionPricing",
)
STEPS = 6
STEADY_FROM = 2
ORACLE_STEPS = 3


class Program:
    """One compiled, planned and kernel-lowered workload."""

    def __init__(self, name, session):
        self.name = name
        self.workload = workload = get_workload(name)
        app = session.compile(
            workload.source(),
            domain=workload.domain,
            component_domains=getattr(workload, "component_domains", None),
            accelerators=default_accelerators(
                getattr(workload, "accelerator_overrides", None)
            ),
            data_hints=workload.hints(),
        )
        # The plan stays kernel-less so plan.execute is the interpreted
        # tier; the kernel is built beside it and called directly.
        self.plan = session.plan_for(app)
        self.kernel = build_kernel(self.plan)
        self.params = workload.params()

    def trajectory(self, tier, steps, on_step=None):
        """Run *steps* invocations threading state; returns
        ``(seconds per step, results)``. Inputs are generated outside the
        timed region; *on_step* wraps each timed call (spans)."""
        workload = self.workload
        state = {
            key: np.asarray(value)
            for key, value in workload.initial_state().items()
        }
        previous = None
        seconds, results = [], []
        for step in range(steps):
            inputs = workload.inputs(step, previous)
            start = time.perf_counter()
            if on_step is None:
                result = self._invoke(tier, inputs, state)
            else:
                with on_step(tier, step):
                    result = self._invoke(tier, inputs, state)
            seconds.append(time.perf_counter() - start)
            if result is None:
                # The kernel declined at run time: a counted fallback.
                result = self.plan.execute(
                    inputs=inputs, params=self.params, state=state
                )
            state = result.state
            previous = result
            results.append(result)
        return seconds, results

    def _invoke(self, tier, inputs, state):
        if tier == "interp":
            return self.plan.execute(
                inputs=inputs, params=self.params, state=state
            )
        return self.kernel.try_execute(
            self.plan, inputs=inputs, params=self.params, state=state
        )


class Context:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        session = CompilerSession()
        self.programs = [Program(name, session) for name in PROGRAMS]
        self.orders = []
        self.steps_issued = 0
        self.failed = 0
        self.fallbacks_before = CODEGEN_STATS.snapshot().kernel_fallbacks
        self.executions_before = 0

    def executions(self):
        """Executions the seven plans have counted, on either tier."""
        return sum(p.plan.counters.executions for p in self.programs)


def prepare(seed, work_dir, setup_samples):
    context = Context(seed)
    # One warm-up step per tier: lazily built statement plans and first
    # allocations belong to set-up.
    for program in context.programs:
        for tier in ("interp", "kernel"):
            program.trajectory(tier, 1)
    context.executions_before = context.executions()
    return context


def run_batch(context, samples, recorder):
    order = list(context.programs)
    context.rng.shuffle(order)
    context.orders.append([program.name for program in order])
    ops = 0
    wall = 0.0
    for program in order:
        on_step = None
        if recorder is not None:
            def on_step(tier, step, name=program.name):
                layer = "srdfg.plan.step" if tier == "interp" else "codegen.step"
                return recorder.span(layer, op=(name, step))
        outputs = {}
        for tier in ("interp", "kernel"):
            seconds, results = program.trajectory(tier, STEPS, on_step)
            samples[f"first.{tier}.{program.name}"].append(seconds[0])
            samples[f"steady.{tier}.{program.name}"].extend(
                seconds[STEADY_FROM:]
            )
            wall += sum(seconds)
            ops += STEPS
            outputs[tier] = results
        context.failed += _tier_mismatches(outputs["interp"], outputs["kernel"])
    samples["per_op"].append(wall / ops)
    context.steps_issued += ops
    return ops


def _tier_mismatches(interp, kernel):
    """Steps whose kernel-tier outputs are not bit-equal to interpreted."""
    bad = 0
    for left, right in zip(interp, kernel):
        same = left.outputs.keys() == right.outputs.keys() and all(
            np.array_equal(left.outputs[key], right.outputs[key])
            for key in left.outputs
        )
        bad += not same
    return bad


def verify(context):
    """Check every program's interpreted trajectory against the
    workload's hand-written numpy reference, outside any timed region."""
    for program in context.programs:
        workload = program.workload
        _, results = program.trajectory("interp", workload.functional_steps)
        context.steps_issued += workload.functional_steps
        measured = np.asarray(workload.extract(results), dtype=np.float64)
        expected = np.asarray(workload.reference(), dtype=np.float64)
        if measured.shape != expected.shape or not np.allclose(
            measured, expected, rtol=workload.rtol, atol=workload.atol
        ):
            context.failed += 1
    # Every step issued must have been counted by exactly one plan.
    executed = context.executions() - context.executions_before
    if executed != context.steps_issued:
        context.failed += 1
    return context.failed


def _steady(series, tier):
    return {
        name: median(series[f"steady.{tier}.{name}"]) for name in PROGRAMS
    }


def end_to_end(series):
    first = [median(series[f"first.interp.{name}"]) for name in PROGRAMS]
    return {
        # step_ms_geomean_interp
        "typical_ms": geomean(_steady(series, "interp").values()) * 1e3,
        # step_ms_geomean_kernel
        "fast_path_ms": geomean(_steady(series, "kernel").values()) * 1e3,
        # first_step_ms_geomean
        "slow_path_ms": geomean(first) * 1e3,
        "throughput_ops": 1.0 / median(series["per_op"]),
    }


def trace_extras(context, samples):
    """The reference interpreter (``Executor`` over the workload's own
    unoptimised graph): not on any serving path today, tracked because
    the lowering ladder will rewrite it."""
    for program in context.programs:
        workload = program.workload
        executor = Executor(workload.cached_graph())
        state = {
            key: np.asarray(value)
            for key, value in workload.initial_state().items()
        }
        previous = None
        for step in range(ORACLE_STEPS + 1):
            inputs = workload.inputs(step, previous)
            start = time.perf_counter()
            previous = executor.run(
                inputs=inputs, params=program.params, state=state
            )
            if step:  # step 0 builds the oracle's own plan
                samples[f"oracle.{program.name}"].append(
                    time.perf_counter() - start
                )
            state = previous.state


def per_layer(context, series, spans):
    interp = _steady(series, "interp")
    kernel = _steady(series, "kernel")
    metrics = {}
    for name in PROGRAMS:
        metrics[f"srdfg.plan.step_ms.{name}"] = interp[name] * 1e3
        metrics[f"codegen.step_ms.{name}"] = kernel[name] * 1e3
    metrics["codegen.speedup_geomean"] = geomean(
        interp[name] / kernel[name] for name in PROGRAMS
    )
    metrics["codegen.fallbacks"] = (
        CODEGEN_STATS.snapshot().kernel_fallbacks - context.fallbacks_before
    )
    metrics["srdfg.interpreter.step_ms_geomean"] = geomean(
        median(series[f"oracle.{name}"]) for name in PROGRAMS
    ) * 1e3
    metrics["srdfg.plan.executions"] = (
        context.executions() - context.executions_before
    )
    return metrics
