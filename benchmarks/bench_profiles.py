"""Per-workload fragment profiles: where each accelerator spends time.

Not a paper figure — a supporting artifact (results/profile_*.txt) that
explains the Figure 7 numbers: which fragments dominate each benchmark on
its accelerator.

``test_profile_execute_tiers`` additionally measures host execution of
each profiled workload through both execution tiers — the interpreted
ExecutionPlan and the generated kernel (:mod:`repro.codegen`) — and
writes the machine-readable comparison to ``results/BENCH_profiles.json``
(first vs steady-state seconds per tier, cross-checked against the
plan's own counters). ``benchmarks/check_regression.py --profiles``
gates that file against ``results/baselines/BENCH_profiles.json``.
"""

import json
import time

import numpy as np
import pytest

PROFILED = ["MobileRobot", "Twitter-BFS", "MovieL-100K", "FFT-8192", "ResNet-18"]

#: Executions per tier: one cold call plus steady-state repetitions.
TIER_STEPS = 7


@pytest.mark.parametrize("name", PROFILED)
def test_profile_artifact(name, harness, emit):
    workload, app, _ = harness.compiled(name)
    report = app.profile_report(top=8)
    emit(f"profile_{name}", f"Fragment profile: {name}\n{report}")
    assert "total accelerator time" in report


def _measure_tier(plan, workload, runner, steps=TIER_STEPS):
    """First/steady wall seconds for *runner*, plus the plan-counter
    delta over the same calls (the counters are the cross-check: both
    tiers bump ``plan.counters`` through their own execute paths)."""
    params = workload.params()
    state = {
        key: np.asarray(value)
        for key, value in workload.initial_state().items()
    }
    previous = None
    base_execs = plan.counters.executions
    base_seconds = plan.counters.seconds
    wall = []
    for step in range(steps):
        inputs = workload.inputs(step, previous)
        start = time.perf_counter()
        result = runner(inputs, params, state)
        wall.append(time.perf_counter() - start)
        state, previous = result.state, result
    steady = wall[2:] or wall
    return {
        "first_seconds": wall[0],
        "steady_seconds": sum(steady) / len(steady),
        "executions": plan.counters.executions - base_execs,
        "counter_seconds": plan.counters.seconds - base_seconds,
    }


def test_profile_execute_tiers(harness, results_dir):
    """Interpreter vs generated-kernel execute, first vs steady state.

    Runs each profiled workload's plan through the interpreted tier,
    then lowers it with :func:`repro.codegen.build_kernel` and replays
    the same trajectory through the kernel tier, asserting bit-identical
    f64 outputs before timing. The kernel is never attached to the
    shared plan, so the other benchmarks keep measuring the interpreter.
    """
    from repro.codegen import build_kernel

    profiles = {}
    for name in PROFILED:
        workload, app, _ = harness.compiled(name)
        plan = harness.session.plan_for(app)
        kernel = build_kernel(plan, plan_key=f"bench:{name}")
        entry = {"kernel_built": kernel is not None}
        if kernel is not None:
            # Bit-identity gate before any timing: one stateful step
            # through each tier must agree exactly at f64.
            params = workload.params()
            state = {
                key: np.asarray(value)
                for key, value in workload.initial_state().items()
            }
            ref = plan.execute(workload.inputs(0, None), params, state)
            got = kernel.try_execute(
                plan, workload.inputs(0, None), params, state
            )
            assert got is not None, f"{name}: kernel declined at run time"
            for key, value in ref.outputs.items():
                assert np.array_equal(
                    value, got.outputs[key], equal_nan=True
                ), f"{name}: kernel output {key} not bit-identical"
            entry["report"] = {
                key: kernel.report.get(key)
                for key in ("statements", "specialized", "fused", "einsum")
            }
        entry["interpreter"] = _measure_tier(
            plan, workload,
            lambda inputs, params, state: plan.execute(
                inputs=inputs, params=params, state=state
            ),
        )
        if kernel is not None:
            entry["kernel"] = _measure_tier(
                plan, workload,
                lambda inputs, params, state: kernel.try_execute(
                    plan, inputs, params, state
                ),
            )
            entry["steady_speedup"] = (
                entry["interpreter"]["steady_seconds"]
                / entry["kernel"]["steady_seconds"]
            )
        profiles[name] = entry
    payload = {"tier_steps": TIER_STEPS, "profiles": profiles}
    path = results_dir / "BENCH_profiles.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n[written to {path}]")
    for name, entry in profiles.items():
        assert entry["kernel_built"], f"{name}: codegen declined"
        assert entry["kernel"]["executions"] == TIER_STEPS


def test_profiles_explain_runtime(benchmark, harness):
    def total_profile_time():
        total = 0.0
        for name in PROFILED:
            _, app, _ = harness.compiled(name)
            _, t = app.profile(top=1000)
            total += t
        return total

    total = benchmark.pedantic(total_profile_time, rounds=1, iterations=1)
    assert total > 0
