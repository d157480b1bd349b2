"""Tests for the instrumented compilation driver (`repro.driver`)."""

import copy
import dataclasses
import hashlib
import pickle
from dataclasses import FrozenInstanceError, field

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
from repro.hw.cost import HardwareParams, RooflineModel
from repro.pmlang.parser import parse
from repro.rewrite import default_pipeline, lower
from repro.srdfg import build
from repro.srdfg.plan import build_plan, graph_fingerprint
from repro.targets import (
    AcceleratorSpec,
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


def _domains(graph):
    """Every level's domain tags, which :func:`graph_fingerprint` omits."""
    return graph.domain, tuple(
        (node.domain, node.subgraph and _domains(node.subgraph))
        for node in graph.nodes
    )


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
        fresh = graph_of(workload.source())
        assert graph_fingerprint(inspection) == graph_fingerprint(fresh)
        assert _domains(inspection) == _domains(fresh)


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
        unoptimized = CompilerSession(default_accelerators(), pipeline=None)
        key = plain.cache_key(mpc_source, "main", "RBT", None, plain.accelerators)
        key_no_pipeline = unoptimized.cache_key(
            mpc_source, "main", "RBT", None, unoptimized.accelerators
        )
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


class TestFrozenConfiguration:
    """Spec and hardware parameters render their key text once, so
    freezing them must not hide a configuration change."""

    def test_reassigned_params_miss_with_a_new_key(self, mpc_source):
        # What ``eval.dse`` does to a backend between grid points.
        robox = Robox()
        session = CompilerSession({"RBT": robox})
        before = session.cache_key(mpc_source, "main", "RBT", None, {"RBT": robox})
        session.compile(mpc_source, domain="RBT")
        robox.params = dataclasses.replace(robox.params, dram_bw=1e9)
        robox.model = RooflineModel(robox.params)
        after = session.cache_key(mpc_source, "main", "RBT", None, {"RBT": robox})
        session.compile(mpc_source, domain="RBT")
        assert after != before
        assert session.cache.stats.misses == 2
        assert session.cache.stats.hits == 0

    def test_bound_clone_keeps_its_originals_digest(self):
        robox = Robox()
        clone = robox.bound({"op_scale": 0.5})
        assert clone.params is robox.params and clone.spec is robox.spec
        assert accelerator_fingerprint({"RBT": clone}) == (
            accelerator_fingerprint({"RBT": robox})
        )

    def test_fields_refuse_assignment(self):
        params, spec = Robox.params, Robox.spec
        with pytest.raises(FrozenInstanceError):
            params.frequency_hz = 2e9
        with pytest.raises(FrozenInstanceError):
            spec.supported_ops = frozenset()
        with pytest.raises(TypeError):
            params.throughput["mul"] = 1.0
        with pytest.raises(TypeError):
            params.throughput.update(mul=1.0)
        with pytest.raises(TypeError):
            spec.translations["copy"] = None
        # The sets were frozen at construction, whatever was passed.
        loose = AcceleratorSpec(supported_ops={"copy"}, scalar_classes={"alu"})
        assert isinstance(loose.supported_ops, frozenset)

    def test_copies_keep_value_and_key_text(self):
        params = Robox.params
        for twin in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params)):
            assert twin == params
            assert twin.fingerprint_part == params.fingerprint_part
            with pytest.raises(TypeError):
                twin.throughput["mul"] = 1.0
        # The read-only mapping reprs as the dict it wraps — the key
        # text is the one the mutable dataclass rendered.
        assert repr(params.throughput) == repr(dict(params.throughput))


#: (compile, plan, kernel) cache keys of the 17 paper programs. A change
#: to any key strands every existing ``--cache-dir`` tree, so these are
#: literals: moving one is a deliberate, announced format break. The
#: kernel keys moved with ``KERNEL_ABI`` 11, when a matmul einsum would
#: transpose began to take its terms swapped.
PAPER_PROGRAM_KEYS = {
    "MobileRobot": (
        "7ab951e36ab95100cecfce982100e01003647428c4bd9e35b5f831d75dd5fbe5",
        "ec95beeeaf1d2c0cdaf3e2210235de854478f8d5fef890114f4d555d6ba4a3b6",
        "2b58783a7ae91e0a89dc4fac50f99022f27a98209d56c28918a4b975d55c6f8c",
    ),
    "Hexacopter": (
        "cbcb5e480e296bfc5464ba3311bd1eb740158e8b5457d60aaae085669c6864d4",
        "6961b07853fd691860d1fa959ced49ce1cfff343b6134fab54cae5f4e99419ee",
        "3abb715c7763d7018ad467c008d10ad32123133683df3ebb1af59ed4b5e6c56e",
    ),
    "Twitter-BFS": (
        "b3f6fd7fac080b2b9e709d57045c3c29ad6f4d6368cd07a24bc7d35a8b3f7846",
        "7595f81d38aa46cf8c089199a778bed10c665150f7457cd077b647556672ab81",
        "c3c1e508044c70391b2cce34b4310c4bedb37415d2b74ea7cec904dfe8487a56",
    ),
    "Wiki-BFS": (
        "5bb7fb2b81423ef9257a3beafc94f6a3e7e34d12470d1c7becb2247bfa8d1ae4",
        "ee963fac1f0ed1cfa473561c255a35024dd561b33b7c824bd0ac4bed14778e42",
        "963e3b276749591110aab0dc95c6833c8c569e18df9bdb6d96f4bb486bf2d4c7",
    ),
    "LiveJourn-SSP": (
        "1141bfe0bde2f7255279d2ce2966f396d7a282ad630202b0b7d39b55aded8afc",
        "523f88614ed94b4c612204d0da69a04ad2eb0aac00a2398bc3bdb520d44674f1",
        "98c823a364e00682713f5b9265db6a8188f1418d2fe49c8a804a35adecd5586e",
    ),
    "MovieL-20M": (
        "6fceb57ce26f8b4e760abc8ad317cbd2e89e8fb45d68a4104d2f1c5485a35d84",
        "03b6a4eb7c0e98a986a3501cf7a5b474ab31c5c96979da220a2b5fa258853d54",
        "f54e275208fbfe79e7fa55f2cfe392d11cbda2c4b4691aacfd243597146f7a6b",
    ),
    "MovieL-100K": (
        "152a11a15f1da6d1a556d949e7d1d7eafe3aa523eacde5d4809243a0d5da5e39",
        "f7b585f8cf3ec2d711bc10e75c300c8d52e7569d630471118dee02209951e45a",
        "a0881b3e134c7e3e906c0b2820689c0c3186e1e280462d7800e23468f880307b",
    ),
    "DigitCluster": (
        "361d54637117e5a750cc3b9b859281ba5a41d2d3617a369145c5ff5c7d16d2f7",
        "3f1bdc50954e4f28439d0240b91f3f1495f2b231de765253a428891fb5e8eb44",
        "18801280edc907805a5a1f323cd870607e11f810b319d53beb18e18301216081",
    ),
    "ElecUse": (
        "5fcef597d0bb8025d3a7455c627d4d9892e3b6234f0b6b252b939123443c4f8b",
        "3dd44533d837e641ccf770ecdaeb4d9a2fc4cfe77bb449ff49cac14ec8487dfd",
        "ff6a0c33a8676b57e014b5c9b64a7cf7bb7e7620129797277abe20e0ef112617",
    ),
    "FFT-8192": (
        "44206183f79e358cf5b4394b22d0e403e908f0a33ac06f167ad5586bf185ec79",
        "fcee42dd700826457f9af8f53837f566742abd4b31d8b30985628aa46c78b8f9",
        "1e5d0cf8afe67b5cd5f508d036ead64da3e6426a3d1d252285102122bf41cea4",
    ),
    "FFT-16384": (
        "5f685939b2e8a01668fbb352b9b8f71625da5be5729edaa26564b5e7a876181a",
        "cdd113ff36cb1130cb3d0732c0b500206ec48604d30332aea323638d65af46ae",
        "61a0347ad1668f22398732b084e8b71c4df8d3700110b896046361780170ed15",
    ),
    "DCT-1024": (
        "73364e81b146a8f3787589f083fa1d6f918ca97d42f05ef88edbf405189331ef",
        "3876ec15ba8b8d590dae0283f90490846a15ac51e43b35edef6b09862e33e329",
        "e9878d97db580bafc04adb62f71d7045b0a2b0557652da280bb854bea4a08d85",
    ),
    "DCT-2048": (
        "f302f0a1a262f35547193f844c75548c8d935152aea1841442b85bcb5e3ebb50",
        "31845a7f3147079c4e4af2163c32b2495ca573139e76f855089de5b62c1c37e4",
        "6cbab5ccc1a35b83e9edf8b0d36aedbc9d68c892f0cc1a0456581394fb232138",
    ),
    "ResNet-18": (
        "b4bb64a25b4086cdabae1fcf526cba677812488d11c8b45701a101fb003b0a75",
        "9fbcbf31e4d5bdd05989f39a9a67793ea133d1303c80f11d3c7ebb1a9e525f50",
        "4e5259fd8812e08392cb62e07f4791df7028ced3f6c160a62b19790b989b3670",
    ),
    "MobileNet": (
        "41ba30640b089be0eda370cb846a5c9328e0ba96f77bef63de916b33828fd399",
        "2c9a6f815ef242cd5a737b214aee6bf754608fee2ddcd425ffcaf9ce58a5a2c0",
        "a2a112aad100c46f2a6e3166b96a1f3b782625103bf241cd07f03e723fe1ba4a",
    ),
    "BrainStimul": (
        "544522a9157a148fb0bfdafb673175eb28ab2ddff9632ce8e09805ff6d257eaa",
        "2f7354c9b2215df44bf134567881452ff81d251a1419b37ac17d88d0a93a2eb3",
        "b48159b055a1e283b28f88695eb48eadf3694cfcfb15824fe85f0e93898f43a2",
    ),
    "OptionPricing": (
        "034fc6db3992b118f10e4e9e7e269cfc926112e480dc4e9e8c6aae2b8f621723",
        "12e8c4db9593e8677c7334518a4fa4f2211b28b59b913ecaad89286f5fd467b9",
        "d4ad43402a079f4915ae07468aa280c7bf3973dadf0d422825d773b104b5a87c",
    ),
}


@dataclasses.dataclass
class _KeyLog(ArtifactCache):
    """An artifact cache that records every key it is asked for."""

    asked: list = field(default_factory=list)

    def get(self, tier, key):
        self.asked.append(key)
        return super().get(tier, key)


def test_paper_program_cache_keys_are_pinned():
    for name, keys in PAPER_PROGRAM_KEYS.items():
        workload = get_workload(name)
        cache = _KeyLog()
        session = CompilerSession(cache=cache)
        app, _ = session.compile_workload(workload)
        session.plan_for(app, codegen=True)
        assert tuple(cache.asked) == keys, name
        # A repeated hit asks for the same strings (the plan carries its
        # kernel by then, so there is no third lookup).
        cache.asked.clear()
        for _ in range(2):
            app, provenance = session.compile_workload(workload)
            session.plan_for(app, codegen=True)
            assert provenance == "cache", name
        assert tuple(cache.asked) == keys[:2] * 2, name


def test_cache_hits_rehash_nothing(monkeypatch):
    """A warm compile + kernel-ready plan lookup folds precomputed parts:
    no spec or hardware-parameter repr, no hash over the source."""
    workload = get_workload("ResNet-18")
    session = CompilerSession()
    app, _ = session.compile_workload(workload)
    session.plan_for(app, codegen=True)

    reprs, hashed = [], []
    for cls in (HardwareParams, AcceleratorSpec):
        def counted(self, _repr=cls.__repr__):
            reprs.append(type(self).__name__)
            return _repr(self)
        monkeypatch.setattr(cls, "__repr__", counted)
    real_sha256 = hashlib.sha256

    class Sha256Log:
        """``hashlib.sha256`` that keeps every byte string it hashes."""

        def __init__(self, data=b"", **kwargs):
            self._digest = real_sha256(**kwargs)
            self.update(data)

        def update(self, data):
            hashed.append(bytes(data))
            self._digest.update(data)

        def hexdigest(self):
            return self._digest.hexdigest()

    monkeypatch.setattr(hashlib, "sha256", Sha256Log)
    for _ in range(20):
        app, provenance = session.compile_workload(workload)
        session.plan_for(app, codegen=True)
        assert provenance == "cache"

    source = workload.source()
    forms = (source.encode(), repr(source).encode())
    assert reprs == []
    assert hashed, "the spy saw no hashing at all"
    assert not [data for data in hashed if any(form in data for form in forms)]
