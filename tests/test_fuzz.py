"""Differential fuzzer tests: deterministic generation, validity by
construction, zero divergences on the healthy stack, and — the test that
justifies the harness — a deliberately sabotaged optimizer rule set is
caught by the plan oracle and minimized to a tiny reproducer."""

import json

import numpy as np

from repro.driver import CompilerSession
from repro.fuzz import (
    GenConfig,
    OracleContext,
    generate_program,
    minimize_program,
    reproducer_size,
    run_fuzz,
    run_program,
    run_reference,
)
from repro.pmlang.ast_nodes import BinOp
from repro.rewrite import Bin, ExprRule, Pipeline, RuleSet
from repro.srdfg import Executor, build
from repro.targets import default_accelerators


class TestGenerator:
    def test_same_seed_renders_identical_source(self):
        for seed in (0, 7, 23):
            first = generate_program(seed)
            second = generate_program(seed)
            assert first.render() == second.render()
            assert first.steps == second.steps
            # The data draws are part of the contract too.
            for a, b in zip(
                (first.inputs(), first.params(), first.initial_state()),
                (second.inputs(), second.params(), second.initial_state()),
            ):
                assert set(a) == set(b)
                for name in a:
                    np.testing.assert_array_equal(a[name], b[name])

    def test_distinct_seeds_render_distinct_source(self):
        renders = {generate_program(seed).render() for seed in range(8)}
        assert len(renders) == 8

    def test_generated_programs_build_and_execute(self):
        # Valid by construction: every seed must parse, build, and run
        # through the reference interpreter with finite outputs.
        for seed in range(10):
            program = generate_program(seed)
            graph = build(program.render(), domain="DA")
            steps = run_reference(program, "f64", graph=graph)
            assert len(steps) == program.steps
            for outputs in steps:
                assert set(outputs) >= set(program.outputs())
                for name in program.outputs():
                    assert np.all(np.isfinite(outputs[name]))

    def test_generated_contractions_take_the_affine_dispatch(self):
        # Windowed / reversed / offset-range contractions are in the
        # grammar so the oracles run einsum-over-a-view on programs
        # nobody wrote by hand: in the tier-1 batch (seeds 0-3) and in
        # CI's run (25 programs from seed 7) some statement's plan must
        # really hold an affine view, not fall back to the lattice.
        for seeds in (range(4), range(7, 32)):
            viewed = 0
            for seed in seeds:
                graph = build(generate_program(seed).render(), domain="DA")
                viewed += any(
                    statement.einsum is not None
                    and any(view is not None for view in statement.einsum.views)
                    for _, statement in Executor(graph).plan.iter_statements()
                )
            assert viewed >= 1, seeds

    def test_gen_config_bounds_statement_budget(self):
        config = GenConfig(min_statements=2, max_statements=3, max_outputs=1)
        for seed in range(5):
            program = generate_program(seed, config)
            # Budget + at most one state update + one output copy + at
            # most one matrix product and the output reading it.
            assert len(program.statements) <= 3 + 1 + 1 + 2


class TestHarness:
    def test_small_batch_has_zero_divergences(self):
        report = run_fuzz(
            programs=4, seed=0, campaigns="smoke", precisions=("f64",)
        )
        assert report.ok, report.render()
        assert report.failures == 0
        assert report.checks > 0
        assert len(report.matrix) == 4
        # The report is the artifact CI uploads: it must serialize.
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["summary"]["ok"] is True
        assert "zero divergences" in report.render()

    def test_fault_campaigns_sweep_and_record_availability(self):
        # Find a generated program with a cross-domain component call so
        # the fault sweep has more than one domain to strike.
        program = next(
            candidate
            for candidate in (generate_program(seed) for seed in range(20))
            if any(stmt.kind == "call" for stmt in candidate.statements)
        )
        results = run_program(
            program, precisions=("f64",), campaigns="all", oracles=("faults",)
        )
        assert results, "fault sweep produced no campaigns"
        failed = [r for r in results if not r.ok]
        assert not failed, [r.to_dict() for r in failed]
        campaigns = {r.campaign for r in results}
        assert "mixed" in campaigns
        assert len(campaigns) > 1
        assert any(r.availability is not None for r in results)


def _flip(expr, bindings, ctx):
    return BinOp(op="-", left=expr.left, right=expr.right, line=expr.line)


#: A deliberately miscompiling pipeline: every ``+`` becomes ``-``, so
#: every compile of the same source diverges the same way — exactly the
#: kind of silent wrong-code bug the differential harness exists to catch.
_SABOTAGE = Pipeline((
    RuleSet(
        name="sabotage",
        expr_rules=(ExprRule("plus-to-minus", Bin(op="+"), _flip),),
    ),
))


class TestSabotage:
    def test_injected_bug_is_caught_and_minimized(self):
        sabotaged = CompilerSession(
            default_accelerators(),
            pipeline=_SABOTAGE,
        )
        context = OracleContext(rules=sabotaged)
        # Eight seeds: a program whose first ``+`` is dead, or feeds only
        # state, shows no divergence, and several of 0-7 are such.
        report = run_fuzz(
            programs=8,
            seed=0,
            campaigns="none",
            precisions=("f64",),
            oracles=("plan",),
            minimize=True,
            context=context,
        )
        assert report.failures > 0, (
            "sabotaged pipeline produced no divergence — the harness is blind"
        )
        assert all(d.oracle == "plan" for d in report.divergences)
        minimized = [
            d for d in report.divergences if d.minimized_nodes is not None
        ]
        assert minimized, "no divergence was minimized"
        # The acceptance bar: at least one reproducer shrinks to <= 5
        # top-level nodes (typically the offending statement plus its
        # output witness), and none stays anywhere near full size.
        assert min(d.minimized_nodes for d in minimized) <= 5
        for divergence in minimized:
            assert divergence.minimized_nodes <= 8
            assert divergence.minimized_source
            assert len(divergence.minimized_source) <= len(divergence.source)
        rendered = report.render()
        assert "DIVERGENCE" in rendered
        assert "minimized to" in rendered

    def test_minimized_reproducer_still_diverges(self):
        sabotaged = CompilerSession(
            default_accelerators(),
            pipeline=_SABOTAGE,
        )
        context = OracleContext(rules=sabotaged)

        def still_fails(candidate):
            results = run_program(
                candidate,
                context=context,
                precisions=("f64",),
                campaigns="none",
                oracles=("plan",),
            )
            return any(not r.ok for r in results)

        program = next(
            candidate
            for candidate in (generate_program(seed) for seed in range(10))
            if still_fails(candidate)
        )
        minimized = minimize_program(program, still_fails)
        assert len(minimized.statements) <= len(program.statements)
        # The minimizer's contract: whatever survives still witnesses
        # the divergence, and it is small enough to debug by eye.
        assert still_fails(minimized)
        assert reproducer_size(minimized) <= 8


class TestReproducerSize:
    def test_counts_top_level_compute_and_component_nodes(self):
        program = generate_program(0)
        size = reproducer_size(program)
        assert size >= 1
        # Dropping statements can only shrink the build.
        smaller = program.clone_with(program.live_statements())
        assert reproducer_size(smaller) <= size
