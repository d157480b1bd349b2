"""Tests for the instrumented compilation driver (`repro.driver`)."""

import copy

import pytest

from repro.driver import (
    CACHE_HIT_STAGE,
    STAGES,
    ArtifactCache,
    CompilerSession,
    Diagnostics,
    StageRecord,
    accelerator_fingerprint,
    fingerprint,
)
from repro.codegen import build_kernel
from repro.driver.cache import COMPILE, KERNEL, TIERS
from repro.driver.diagnostics import Diagnostic
from repro.errors import PMLangSyntaxError, TargetError
from repro.passes import default_pipeline
from repro.passes.lowering import lower
from repro.pmlang.parser import parse
from repro.rewrite import graph_signature
from repro.srdfg import build
from repro.srdfg.plan import build_plan
from repro.targets import (
    PolyMath,
    Robox,
    Tabla,
    compile_to_targets,
    default_accelerators,
    retag_component_domain,
)
from repro.workloads import END_TO_END, SINGLE_DOMAIN, get_workload


@pytest.fixture()
def session():
    return CompilerSession(default_accelerators())


class TestStageRecords:
    def test_cold_compile_runs_every_stage_once(self, session, mpc_source):
        session.compile(mpc_source, domain="RBT")
        executions = session.stage_executions()
        for stage in STAGES:
            assert executions[stage] == 1, stage
        assert CACHE_HIT_STAGE not in executions

    def test_per_pass_records_nest_under_optimize(self, session, mpc_source):
        session.compile(mpc_source, domain="RBT")
        names = {r.stage for r in session.records}
        for expected in ("optimize/constant-folding", "optimize/cse",
                         "optimize/dead-code-elimination"):
            assert expected in names

    def test_build_stage_reports_graph_growth(self, session, mpc_source):
        session.compile(mpc_source, domain="RBT")
        [build] = [r for r in session.records if r.stage == "srdfg-build"]
        assert build.nodes_before == 0 and build.edges_before == 0
        assert build.node_delta > 0 and build.edge_delta > 0
        assert build.seconds >= 0.0

    def test_deltas_are_recursive(self, session, mpc_source):
        """The MPC program nests component subgraphs; stage records must
        count them, not just the top level."""
        session.compile(mpc_source, domain="RBT")
        [record] = [r for r in session.records if r.stage == "srdfg-build"]
        top_level = len(build(mpc_source, domain="RBT").nodes)
        assert record.nodes_after > top_level

    def test_stage_hooks_see_every_record(self, session, mpc_source):
        seen = []
        assert session.add_stage_hook(seen.append) is session
        session.compile(mpc_source, domain="RBT")
        assert seen == session.records
        with pytest.raises(TypeError):
            session.add_stage_hook("not-callable")

    def test_record_render_mentions_stage_and_time(self):
        record = StageRecord(stage="parse", seconds=0.25, detail="2 component(s)")
        text = record.render()
        assert "parse" in text and "ms" in text and "2 component(s)" in text


class TestInspectionGraph:
    @pytest.mark.parametrize("name", SINGLE_DOMAIN + END_TO_END)
    def test_source_graph_untouched_by_the_pipeline(self, name):
        """Graphs built from one parse share AST nodes, so no stage may
        mutate one in place: after optimize, lower, translate, plan and
        codegen ran on one graph, a second graph of the same parse must
        still equal a build from freshly parsed source."""
        workload = get_workload(name)

        def graph_of(program):
            graph = build(program, domain=workload.domain)
            domains = getattr(workload, "component_domains", None) or {}
            for component, tag in domains.items():
                retag_component_domain(graph, component, tag)
            return graph

        tree = parse(workload.source())
        compiled, inspection = graph_of(tree), graph_of(tree)
        accelerators = default_accelerators(
            getattr(workload, "accelerator_overrides", None)
        )
        lowered = lower(
            default_pipeline().run(compiled).graph,
            {name: acc.om_entry() for name, acc in accelerators.items()},
            {name: acc.scalar_entry() for name, acc in accelerators.items()},
        )
        compile_to_targets(lowered, accelerators)
        build_kernel(build_plan(lowered))
        assert graph_signature(inspection) == graph_signature(
            graph_of(workload.source())
        )


class TestArtifactCache:
    def test_second_compile_is_a_cache_hit(self, session, mpc_source):
        """Acceptance criterion: zero re-parses / re-builds on a repeat."""
        first = session.compile(mpc_source, domain="RBT")
        second = session.compile(mpc_source, domain="RBT")
        assert first.programs is second.programs
        assert session.stage_executions("parse") == 1
        assert session.stage_executions("srdfg-build") == 1
        assert session.stage_executions(CACHE_HIT_STAGE) == 1
        assert session.cache.stats.hits == 1
        assert session.cache.stats.misses == 1

    def test_different_domain_misses(self, session, mpc_source):
        session.compile(mpc_source, domain="RBT")
        session.compile(mpc_source, domain=None)
        assert session.cache.stats.misses == 2
        assert session.cache.stats.hits == 0

    def test_pipeline_fingerprint_in_key(self, mpc_source):
        plain = CompilerSession(default_accelerators())
        unoptimized = CompilerSession(default_accelerators(), run_pipeline=False)
        key = plain.cache_key(mpc_source, "main", "RBT", None,
                              plain.accelerators, default_pipeline())
        key_no_pipeline = unoptimized.cache_key(mpc_source, "main", "RBT", None,
                                                unoptimized.accelerators, None)
        assert key != key_no_pipeline

    def test_accelerator_fingerprint_tracks_configuration(self):
        import dataclasses

        stock = Robox()
        tuned = Robox()
        tuned.params = dataclasses.replace(tuned.params, frequency_hz=2e9)
        assert accelerator_fingerprint({"RBT": stock}) != accelerator_fingerprint(
            {"RBT": tuned}
        )
        assert accelerator_fingerprint({"RBT": Robox()}) == accelerator_fingerprint(
            {"RBT": Robox()}
        )

    def test_hints_do_not_change_the_key(self, session, mpc_source):
        session.compile(mpc_source, domain="RBT", data_hints={"iterations": 10})
        session.compile(mpc_source, domain="RBT", data_hints={"iterations": 99})
        assert session.cache.stats.hits == 1

    def test_disk_tier_survives_sessions(self, tmp_path, mpc_source):
        cache_dir = str(tmp_path / "artifacts")
        warm = CompilerSession(default_accelerators(), cache_dir=cache_dir)
        warm.compile(mpc_source, domain="RBT")

        cold = CompilerSession(default_accelerators(), cache_dir=cache_dir)
        app = cold.compile(mpc_source, domain="RBT")
        assert cold.stage_executions("parse") == 0
        assert cold.cache.stats.disk_hits == 1
        assert "RBT" in app.programs

    def test_session_keeps_the_cache_it_is_handed(self):
        """An empty cache used to be falsy (it had ``__len__``), so
        ``cache or ArtifactCache()`` silently replaced it."""
        cache = ArtifactCache()
        assert CompilerSession(default_accelerators(), cache=cache).cache is cache

    def test_fingerprint_is_stable_and_order_sensitive(self):
        assert fingerprint("a", "b") == fingerprint("a", "b")
        assert fingerprint("a", "b") != fingerprint("b", "a")

    def test_corrupt_entry_recompiles_through_session(self, tmp_path, mpc_source):
        cache_dir = tmp_path / "artifacts"
        warm = CompilerSession(default_accelerators(), cache_dir=str(cache_dir))
        warm.compile(mpc_source, domain="RBT")
        for entry in cache_dir.glob("*.pkl"):
            entry.write_bytes(b"not a pickle at all")

        cold = CompilerSession(default_accelerators(), cache_dir=str(cache_dir))
        app = cold.compile(mpc_source, domain="RBT")  # recompiles, no raise
        assert "RBT" in app.programs
        assert cold.stage_executions("parse") == 1
        assert cold.cache.stats.disk_errors == 1
        assert any(
            "corrupt" in d.message for d in cold.diagnostics.warnings
        )


# One kernel, built once, for the disk-form tests below.
MATVEC = """
main(input float A[6][5], input float x[5], output float y[6]) {
    index i[0:4], j[0:5];
    y[j] = sum[i](A[j][i] * x[i]);
}
"""


@pytest.fixture(scope="module")
def kernel():
    session = CompilerSession(default_accelerators())
    plan = session.plan_for(session.compile(MATVEC, domain="DA"), codegen=True)
    assert plan.kernel is not None
    return plan.kernel


def _samples(tier, kernel):
    """``(value, unpicklable value)`` for *tier*. A new tier with a codec
    fails here until it names its pair — and then inherits every test of
    :class:`TestDiskForm`."""
    if tier is COMPILE:
        return {"payload": 1}, (lambda: None)
    if tier is KERNEL:
        hostile = copy.copy(kernel)
        hostile.constants = dict(kernel.constants, _c_unpicklable=lambda: None)
        return kernel, hostile
    raise AssertionError(f"no sample values for {tier!r}")


@pytest.mark.parametrize(
    "tier",
    [tier for tier in TIERS if tier.codec is not None],
    ids=lambda tier: tier.name,
)
class TestDiskForm:
    """What every tier with a disk codec owes: the one memory → disk →
    corrupt-entry-evict → counters path of ``ArtifactCache``."""

    @staticmethod
    def _count(cache, tier, event):
        return getattr(cache.stats, tier.prefix + event)  # "kernel_misses"

    def test_round_trips_through_disk(self, tier, kernel, tmp_path):
        value, _ = _samples(tier, kernel)
        cache = ArtifactCache(cache_dir=str(tmp_path))
        assert cache.put(tier, "key", value) is True
        assert (tmp_path / "key.pkl").exists()
        cache.clear()  # force the disk form
        loaded = cache.get(tier, "key")
        assert loaded is not None
        assert self._count(cache, tier, "disk_hits") == 1
        assert cache.get(tier, "key") is loaded  # now memory-resident
        assert self._count(cache, tier, "hits") == 2
        assert self._count(cache, tier, "stores") == 1

    def test_unpicklable_value_degrades_to_memory(self, tier, kernel, tmp_path):
        _, hostile = _samples(tier, kernel)
        diagnostics = Diagnostics()
        cache = ArtifactCache(cache_dir=str(tmp_path), diagnostics=diagnostics)
        assert cache.put(tier, "key", hostile) is False
        assert cache.stats.disk_errors == 1
        assert any(
            "not picklable" in entry.message for entry in diagnostics.entries
        )
        assert not (tmp_path / "key.pkl").exists()
        assert cache.get(tier, "key") is hostile  # memory still serves it

    def test_corrupt_disk_entry_is_a_miss_and_is_evicted(
        self, tier, kernel, tmp_path
    ):
        cache = ArtifactCache(cache_dir=str(tmp_path), diagnostics=Diagnostics())
        entry = tmp_path / "key.pkl"
        entry.write_bytes(b"\x80garbage-not-a-pickle\xff")
        assert cache.get(tier, "key") is None  # never raises
        assert cache.stats.disk_errors == 1
        assert self._count(cache, tier, "misses") == 1
        assert not entry.exists()  # evicted
        assert any(
            f"corrupt {tier.name}" in d.message
            for d in cache.diagnostics.warnings
        )
        # Still a functioning cache afterwards.
        assert cache.get(tier, "key") is None
        assert cache.stats.disk_errors == 1

    def test_truncated_disk_entry_is_a_miss(self, tier, kernel, tmp_path):
        value, _ = _samples(tier, kernel)
        cache = ArtifactCache(cache_dir=str(tmp_path))
        cache.put(tier, "key", value)
        entry = tmp_path / "key.pkl"
        payload = entry.read_bytes()
        entry.write_bytes(payload[: len(payload) // 2])
        cache.clear()

        assert cache.get(tier, "key") is None
        assert cache.stats.disk_errors == 1

    def test_eviction_removes_memory_and_disk(self, tier, kernel, tmp_path):
        value, _ = _samples(tier, kernel)
        cache = ArtifactCache(cache_dir=str(tmp_path))
        cache.put(tier, "key", value)
        assert cache.evict(tier, "key")
        assert not (tmp_path / "key.pkl").exists()
        assert cache.get(tier, "key") is None
        assert not cache.evict(tier, "key")


def test_memory_only_tiers_never_touch_the_disk(tmp_path):
    cache = ArtifactCache(cache_dir=str(tmp_path))
    for tier in TIERS:
        if tier.codec is None:
            assert cache.put(tier, "key", lambda: None) is True
    assert list(tmp_path.iterdir()) == []
    assert cache.stats.disk_errors == 0


class TestHintBinding:
    def test_session_accelerators_never_mutated(self, session, mpc_source):
        shared = session.accelerators["RBT"]
        before = dict(shared.data_hints)
        app = session.compile(mpc_source, domain="RBT", data_hints={"edges": 123})
        assert shared.data_hints == before
        assert app.accelerators["RBT"].data_hints["edges"] == 123
        assert app.accelerators["RBT"] is not shared

    def test_cached_artifact_rebinds_per_compile(self, session, mpc_source):
        first = session.compile(mpc_source, domain="RBT", data_hints={"n": 1})
        second = session.compile(mpc_source, domain="RBT", data_hints={"n": 2})
        assert first.accelerators["RBT"].data_hints["n"] == 1
        assert second.accelerators["RBT"].data_hints["n"] == 2
        assert first.programs is second.programs

    def test_no_hints_returns_artifact_unchanged(self, session, mpc_source):
        first = session.compile(mpc_source, domain="RBT")
        second = session.compile(mpc_source, domain="RBT")
        assert first is second


class TestDiagnostics:
    def test_syntax_error_is_recorded_with_location(self, session):
        with pytest.raises(PMLangSyntaxError):
            session.compile("main( {", domain="RBT")
        assert session.diagnostics.has_errors
        [error] = session.diagnostics.errors
        assert error.stage == "parse"
        assert error.line is not None
        [parse] = [r for r in session.records if r.stage == "parse"]
        assert parse.detail == "failed"

    def test_scalar_fallback_warns(self, session):
        source = (
            "main(input float x[8], output float y[8]) {"
            " index i[0:7]; y[i] = x[i] * 2.0; }"
        )
        session.compile(source)
        assert any(
            "scalar" in w.message and w.stage == "lower"
            for w in session.diagnostics.warnings
        )

    def test_engine_orders_and_counts(self):
        diags = Diagnostics()
        diags.note("first")
        diags.warning("second", stage="lower")
        diags.error("third", stage="parse", line=3, column=7)
        assert len(diags) == 3
        assert [d.severity for d in diags] == ["note", "warning", "error"]
        assert diags.counts() == {"note": 1, "warning": 1, "error": 1}
        rendered = diags.render()
        assert "error [parse]: third at line 3, col 7" in rendered
        with pytest.raises(ValueError):
            diags.emit("fatal", "nope")

    def test_diagnostic_render_without_location(self):
        assert Diagnostic("note", "hello").render() == "note: hello"


class TestStatsReport:
    def test_report_covers_stages_cache_and_diagnostics(self, session, mpc_source):
        session.compile(mpc_source, domain="RBT")
        session.compile(mpc_source, domain="RBT")
        report = session.stats_report()
        assert "2 compile(s)" in report
        for stage in STAGES + (CACHE_HIT_STAGE,):
            assert stage in report
        assert "optimize/constant-folding" in report
        assert "1 hit(s) / 1 miss(es)" in report
        assert "diagnostics:" in report
        # Sub-stages print directly under their parent stage.
        lines = report.splitlines()
        optimize_at = next(i for i, line in enumerate(lines)
                           if line.startswith("optimize "))
        assert lines[optimize_at + 1].startswith("optimize/")


class TestPolyMathFacade:
    def test_compile_goes_through_the_session(self, mpc_source):
        compiler = PolyMath(default_accelerators())
        app = compiler.compile(mpc_source, domain="RBT")
        assert "RBT" in app.programs
        assert compiler.session.compiles == 1
        compiler.compile(mpc_source, domain="RBT")
        assert compiler.session.cache.stats.hits == 1
        assert compiler.diagnostics is compiler.session.diagnostics

    def test_facade_accepts_an_existing_session(self, mpc_source):
        session = CompilerSession(default_accelerators())
        compiler = PolyMath(default_accelerators(), session=session)
        assert compiler.session is session

    def test_no_accelerators_is_a_target_error(self, mpc_source):
        with pytest.raises(TargetError):
            CompilerSession().compile(mpc_source, domain="RBT")


class TestAcceleratorBinding:
    def test_bound_copies_do_not_share_hints(self):
        accelerator = Tabla()
        bound = accelerator.bound({"rows": 4})
        assert bound is not accelerator
        assert bound.data_hints == {"rows": 4}
        assert "rows" not in accelerator.data_hints
        bound.data_hints["cols"] = 8
        assert "cols" not in accelerator.data_hints

    def test_bound_preserves_base_hints(self):
        accelerator = Tabla()
        accelerator.data_hints["base"] = 1
        bound = accelerator.bound({"extra": 2})
        assert bound.data_hints == {"base": 1, "extra": 2}
