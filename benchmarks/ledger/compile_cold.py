"""compile-cold: the compile layers do all the work, execution none.

One batch is one sweep over the 17 paper programs in seeded order. Per
program: a fresh ``CompilerSession`` and fresh accelerators, one timed
cold ``compile`` + ``plan_for(codegen=True)`` (source to kernel-ready),
then ``HITS`` timed repeats of the same two calls on the same session —
the cache used the other way round, so a cold-path gain bought with a
costlier key or fingerprint shows in the hit time.
"""

from __future__ import annotations

import random
import time

from repro.codegen import build_kernel
from repro.driver import CompilerSession
from repro.passes import default_pipeline
from repro.passes.lowering import lower
from repro.pmlang.parser import parse
from repro.pmlang.semantic import analyze
from repro.rewrite.engine import REWRITE_STATS
from repro.srdfg.builder import build
from repro.srdfg.plan import build_plan, graph_fingerprint
from repro.targets import (
    compile_to_targets,
    default_accelerators,
    retag_component_domain,
)
from repro.workloads import END_TO_END, SINGLE_DOMAIN, get_workload

from harness import geomean, median, median_by

#: Constructing the 17 workloads generates their datasets (MovieL-20M
#: and DCT-2048 alone take ~10 s), so set-up runs once per run.
SETUP_REPEATS = 1
PROGRAMS = SINGLE_DOMAIN + END_TO_END
HITS = 20

#: Compile-chain spans of the traced sweep, in call order; each is
#: named after the per-layer metric it feeds.
CHAIN = (
    "pmlang.parser.ms", "pmlang.semantic.ms", "srdfg.builder.ms",
    "passes.pipeline.ms", "passes.lowering.ms", "targets.compiler.ms",
    "srdfg.plan.build_ms", "codegen.build_ms",
)
#: Per-sweep counts that must repeat exactly.
COUNTS = (
    "pmlang.parser.source_bytes", "srdfg.builder.nodes",
    "passes.pipeline.nodes_removed", "passes.pipeline.rewrites",
    "passes.lowering.nodes", "targets.compiler.fragments",
    "srdfg.plan.statements", "codegen.kernels_built",
    "codegen.source_bytes",
)


class Program:
    """What one cold compile needs from a workload, gathered once."""

    def __init__(self, name):
        workload = get_workload(name)
        self.name = name
        self.source = workload.source()
        self.domain = workload.domain
        self.component_domains = getattr(workload, "component_domains", None)
        self.overrides = getattr(workload, "accelerator_overrides", None)
        self.hints = workload.hints()

    def build(self, session, accelerators):
        app = session.compile(
            self.source,
            domain=self.domain,
            component_domains=self.component_domains,
            accelerators=accelerators,
            data_hints=self.hints,
        )
        return app, session.plan_for(app, codegen=True)


class Context:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.programs = [Program(name) for name in PROGRAMS]
        #: Program order of every sweep, for the same-seed self-test.
        self.orders = []
        #: name -> (graph fingerprint, fragment count, modeled seconds)
        #: of the first sweep; later sweeps must reproduce it.
        self.identity = {}
        self.counts = []
        self.failed = 0


def prepare(seed, work_dir, setup_samples):
    context = Context(seed)
    # One discarded sweep: first-call costs (lazy imports, regex and
    # einsum-path caches) belong to set-up, not to the first sample.
    _sweep(context, {}, recorder=None, record=False)
    return context


def run_batch(context, samples, recorder):
    return _sweep(context, samples, recorder, record=True)


def _sweep(context, samples, recorder, record):
    order = list(context.programs)
    context.rng.shuffle(order)
    if record:
        context.orders.append([program.name for program in order])
    counts = dict.fromkeys(COUNTS, 0)
    ops = 0
    wall = 0.0
    for program in order:
        if recorder is not None:
            _traced_chain(program, recorder, counts)
        session = CompilerSession()
        accelerators = default_accelerators(program.overrides)
        start = time.perf_counter()
        if recorder is not None:
            with recorder.span("driver.session", op=program.name):
                app, plan = program.build(session, accelerators)
        else:
            app, plan = program.build(session, accelerators)
        cold = time.perf_counter() - start
        hit_start = time.perf_counter()
        for _ in range(HITS):
            program.build(session, accelerators)
        hit = (time.perf_counter() - hit_start) / HITS
        ops += 1 + HITS
        wall += cold + hit * HITS
        if record:
            samples[f"cold.{program.name}"].append(cold)
            samples[f"hit.{program.name}"].append(hit)
            _check_identity(context, program.name, app, plan)
    if record:
        samples["per_op"].append(wall / ops)
        if recorder is not None:
            context.counts.append(counts)
    return ops


def _check_identity(context, name, app, plan):
    """Every sweep must compile the same program to the same artefacts."""
    modeled = sum(
        app.accelerators[domain].estimate(program).seconds
        for domain, program in app.programs.items()
    )
    identity = (
        graph_fingerprint(app.graph),
        sum(len(program) for program in app.programs.values()),
        modeled,
        plan.kernel is not None,
    )
    if context.identity.setdefault(name, identity) != identity:
        context.failed += 1


def _traced_chain(program, recorder, counts):
    """The compile chain driven call by call, one span per layer."""
    accelerators = default_accelerators(program.overrides)
    with recorder.span("chain", op=program.name):
        with recorder.span(CHAIN[0]):
            tree = parse(program.source)
        with recorder.span(CHAIN[1]):
            analyze(tree, entry="main")
        with recorder.span(CHAIN[2]):
            graph = build(tree, entry="main", domain=program.domain)
            for name, tag in (program.component_domains or {}).items():
                retag_component_domain(graph, name, tag)
        built_nodes = graph.total_counts()[0]
        rewrites_before = _rewrites()
        with recorder.span(CHAIN[3]):
            graph = default_pipeline().run(graph).graph
        optimized_nodes = graph.total_counts()[0]
        om = {name: acc.om_entry() for name, acc in accelerators.items()}
        scalar_om = {
            name: acc.scalar_entry() for name, acc in accelerators.items()
        }
        with recorder.span(CHAIN[4]):
            lowered = lower(graph, om, scalar_om)
            lowered.validate()
        with recorder.span(CHAIN[5]):
            programs = compile_to_targets(lowered, accelerators)
        with recorder.span(CHAIN[6]):
            plan = build_plan(lowered)
        with recorder.span(CHAIN[7]):
            kernel = build_kernel(plan)
    counts["pmlang.parser.source_bytes"] += len(program.source)
    counts["srdfg.builder.nodes"] += built_nodes
    counts["passes.pipeline.nodes_removed"] += built_nodes - optimized_nodes
    counts["passes.pipeline.rewrites"] += _rewrites() - rewrites_before
    counts["passes.lowering.nodes"] += lowered.total_counts()[0]
    counts["targets.compiler.fragments"] += sum(
        len(fragments) for fragments in programs.values()
    )
    counts["srdfg.plan.statements"] += plan.statement_count
    if kernel is not None:
        counts["codegen.kernels_built"] += 1
        counts["codegen.source_bytes"] += len(kernel.source)


def _rewrites():
    return sum(
        value for key, value in REWRITE_STATS.to_dict().items()
        if key.endswith(".rewrites")
    )


def verify(context):
    """Nothing to close; identity failures were counted per sweep."""
    if any(counts != context.counts[0] for counts in context.counts):
        context.failed += 1
    return context.failed


def _program_medians(series, prefix):
    return {
        name[len(prefix):]: median(values)
        for name, values in series.items() if name.startswith(prefix)
    }


def end_to_end(series):
    cold = _program_medians(series, "cold.")
    hit = _program_medians(series, "hit.")
    return {
        # cold_build_ms_geomean
        "typical_ms": geomean(cold.values()) * 1e3,
        # warm_lookup_us_geomean, in ms
        "fast_path_ms": geomean(hit.values()) * 1e3,
        # cold_build_ms_sum
        "slow_path_ms": sum(cold.values()) * 1e3,
        "throughput_ops": 1.0 / median(series["per_op"]),
    }


def per_layer(context, series, spans):
    cold = _program_medians(series, "cold.")
    hit = _program_medians(series, "hit.")
    metrics = {
        f"driver.session.cold_build_ms.{name}": seconds * 1e3
        for name, seconds in cold.items()
    }
    metrics["driver.cache.hit_us"] = geomean(hit.values()) * 1e6
    metrics["driver.session.modeled_accel_us_geomean"] = geomean(
        identity[2] for identity in context.identity.values()
    ) * 1e6
    layer_sum = 0.0
    for layer in CHAIN:
        total = sum(median_by(spans[layer]).values())
        layer_sum += total
        metrics[layer] = total * 1e3
    session = sum(median_by(spans["driver.session"]).values())
    metrics["driver.session.compile_ms"] = session * 1e3
    metrics["driver.session.unexplained_share"] = 1.0 - layer_sum / session
    metrics.update(context.counts[0])
    return metrics
