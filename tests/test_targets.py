"""Unit tests for accelerator backends and Algorithm 2."""

import numpy as np
import pytest

from repro.errors import TargetError
from repro.srdfg import build
from repro.targets import (
    AcceleratorSpec,
    Deco,
    Graphicionado,
    HyperStreams,
    PolyMath,
    Robox,
    Tabla,
    Vta,
    compile_to_targets,
    default_accelerators,
    make_accelerator,
)
from repro.targets.compiler import retag_component_domain

ALL_BACKENDS = [Robox, Graphicionado, Tabla, Deco, Vta, HyperStreams]


class TestRegistry:
    def test_default_map_covers_five_domains(self):
        accelerators = default_accelerators()
        assert set(accelerators) == {"RBT", "GA", "DA", "DSP", "DL"}

    def test_override(self):
        accelerators = default_accelerators({"DA": "hyperstreams"})
        assert isinstance(accelerators["DA"], HyperStreams)

    def test_unknown_name_rejected(self):
        with pytest.raises(TargetError):
            make_accelerator("tpu")

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_backends_instantiate(self, backend):
        accelerator = backend()
        assert accelerator.om_entry()
        assert accelerator.params.frequency_hz > 0
        assert accelerator.params.power_w > 0


class TestTranslation:
    def test_matvec_fragment_fields(self, matvec_source):
        accelerator = Robox()
        compiler = PolyMath({"RBT": accelerator}, pipeline=None)
        app = compiler.compile(matvec_source, domain="RBT")
        ops = app.programs["RBT"].ops()
        assert "matvec" in ops
        fragment = next(
            f for f in app.programs["RBT"].fragments if f.op == "matvec"
        )
        assert fragment.attrs["op_counts"]["mul"] == 12
        assert fragment.attrs["free_size"] == 4

    def test_scalar_lowered_fragment_named(self, matvec_source):
        accelerator = Tabla()
        compiler = PolyMath({"DA": accelerator}, pipeline=None)
        app = compiler.compile(matvec_source, domain="DA")
        ops = app.programs["DA"].ops()
        assert any(op.startswith("scalar_dfg[") for op in ops)

    def test_var_fragments(self, matvec_source):
        accelerator = Robox()
        compiler = PolyMath({"RBT": accelerator}, pipeline=None)
        app = compiler.compile(matvec_source, domain="RBT")
        ops = app.programs["RBT"].ops()
        assert ops.count("read_fifo") == 2
        assert ops.count("write_fifo") == 1

    def test_program_listing_renders(self, matvec_source):
        compiler = PolyMath({"RBT": Robox()}, pipeline=None)
        app = compiler.compile(matvec_source, domain="RBT")
        listing = app.programs["RBT"].listing()
        assert "matvec" in listing


class TestGraphicionadoPipeline:
    SOURCE = (
        "main(param bin adj[64][64], state float dist[64],"
        " output float next[64]) {"
        " index u[0:63], v[0:63];"
        " float relax[64];"
        " relax[v] = min[u: adj[u][v] == 1](dist[u] + 1.0);"
        " next[v] = fmin(relax[v], dist[v]);"
        " dist[v] = fmin(relax[v], dist[v]); }"
    )

    def test_vertex_reduce_becomes_pipeline(self):
        accelerator = Graphicionado()
        compiler = PolyMath({"GA": accelerator}, pipeline=None)
        app = compiler.compile(self.SOURCE, domain="GA")
        pipeline = next(
            f for f in app.programs["GA"].fragments if f.op == "pipeline"
        )
        assert pipeline.attrs["stages"][0] == "process_edge"
        assert pipeline.attrs["predicate"]

    def test_hints_reduce_pipeline_cost(self):
        dense = Graphicionado()
        sparse = Graphicionado(data_hints={"vertices": 64, "edges": 128})
        compiler = PolyMath({"GA": dense}, pipeline=None)
        app = compiler.compile(self.SOURCE, domain="GA")
        pipeline = next(
            f for f in app.programs["GA"].fragments if f.op == "pipeline"
        )
        assert sparse.fragment_cost(pipeline).seconds < dense.fragment_cost(
            pipeline
        ).seconds


class TestCosts:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_estimate_positive(self, backend, matvec_source):
        accelerator = backend()
        domain = accelerator.domain
        compiler = PolyMath({domain: accelerator}, pipeline=None)
        app = compiler.compile(matvec_source, domain=domain)
        stats = accelerator.estimate(app.programs[domain])
        assert stats.seconds > 0
        assert stats.energy_j > 0

    def test_vta_tile_underfill_penalty(self):
        accelerator = Vta()
        small = (
            "main(input float A[4][4], input float x[4], output float y[4]) {"
            " index i[0:3], j[0:3]; y[j] = sum[i](A[j][i]*x[i]); }"
        )
        big = (
            "main(input float A[64][64], input float x[64], output float y[64]) {"
            " index i[0:63], j[0:63]; y[j] = sum[i](A[j][i]*x[i]); }"
        )
        costs = {}
        for tag, source in (("small", small), ("big", big)):
            compiler = PolyMath({"DL": accelerator}, pipeline=None)
            app = compiler.compile(source, domain="DL")
            fragment = next(
                f for f in app.programs["DL"].fragments if f.op == "matvec"
            )
            costs[tag] = accelerator.fragment_cost(fragment)
        assert "tile_underfill" in costs["small"].breakdown
        # The penalty is a slowdown factor, not absolute time: per-op time
        # must be worse for the underfilled small matvec.
        small_ops = costs["small"].op_count
        big_ops = costs["big"].op_count
        assert (costs["small"].seconds / small_ops) > (
            costs["big"].seconds / big_ops
        )

    def test_deco_matrix_penalty(self, matvec_source):
        accelerator = Deco()
        compiler = PolyMath({"DSP": accelerator}, pipeline=None)
        app = compiler.compile(matvec_source, domain="DSP")
        fragment = next(
            f for f in app.programs["DSP"].fragments if f.op == "matvec"
        )
        assert "rebalance" in accelerator.fragment_cost(fragment).breakdown

    def test_op_scale_hint_scales_cost(self, matvec_source):
        dense = Robox()
        sparse = Robox(data_hints={"op_scale": 0.01})
        compiler = PolyMath({"RBT": dense}, pipeline=None)
        app = compiler.compile(matvec_source, domain="RBT")
        fragment = next(
            f for f in app.programs["RBT"].fragments if f.op == "matvec"
        )
        assert sparse.fragment_cost(fragment).op_count < dense.fragment_cost(
            fragment
        ).op_count


class TestAlgorithm2:
    CROSS_SOURCE = (
        "filt(input float x[8], output float y[8]) {"
        " index i[0:7]; y[i] = x[i] * 0.5; }\n"
        "classify(input float y[8], param float w[8], output float score) {"
        " index i[0:7]; score = sigmoid(sum[i](w[i]*y[i])); }\n"
        "main(input float x[8], param float w[8], output float score) {"
        " float y[8];"
        " DSP: filt(x, y);"
        " DA: classify(y, w, score); }"
    )

    def test_per_domain_programs(self):
        compiler = PolyMath(default_accelerators())
        app = compiler.compile(self.CROSS_SOURCE, domain="DSP")
        assert set(app.programs) >= {"DSP", "DA"}

    def test_load_store_at_domain_boundary(self):
        compiler = PolyMath(default_accelerators())
        app = compiler.compile(self.CROSS_SOURCE, domain="DSP")
        da_ops = app.programs["DA"].ops()
        assert "load" in da_ops  # y crosses DSP -> DA
        dsp_ops = app.programs["DSP"].ops()
        assert "store" in dsp_ops

    def test_missing_accelerator_raises(self):
        graph = build(self.CROSS_SOURCE, domain="DSP")
        from repro.rewrite import lower

        lower(graph, {"DSP": set(), "DA": set()},
              {"DSP": {"alu", "mul", "div", "nonlinear"},
               "DA": {"alu", "mul", "div", "nonlinear"}})
        with pytest.raises(TargetError, match="no accelerator"):
            compile_to_targets(graph, {"DSP": Deco()})

    def test_functional_run_through_compiled_app(self):
        compiler = PolyMath(default_accelerators())
        app = compiler.compile(self.CROSS_SOURCE, domain="DSP")
        x = np.arange(8.0)
        w = np.ones(8) * 0.1
        result, total, per_domain = app.run(
            inputs={"x": x}, params={"w": w}
        )
        expected = 1.0 / (1.0 + np.exp(-np.sum(0.5 * x * 0.1)))
        assert float(result.outputs["score"]) == pytest.approx(expected)
        assert total.seconds > 0
        assert set(per_domain) == set(app.programs)

    def test_retag_component_domain(self):
        graph = build(self.CROSS_SOURCE, domain="DSP")
        retag_component_domain(graph, "classify", "DA-CUSTOM")
        node = next(
            n for n in graph.component_nodes() if n.name == "classify"
        )
        assert node.domain == "DA-CUSTOM"
        assert all(sub.domain == "DA-CUSTOM" for sub in node.subgraph.nodes)


class TestSimulationEquivalence:
    @pytest.mark.parametrize("backend", [Robox, Tabla, Deco, Vta, HyperStreams])
    def test_backend_simulation_matches_reference(self, backend, matvec_source):
        accelerator = backend()
        domain = accelerator.domain
        compiler = PolyMath({domain: accelerator})
        app = compiler.compile(matvec_source, domain=domain)
        rng = np.random.default_rng(7)
        a, x = rng.normal(size=(4, 3)), rng.normal(size=3)
        result, total, _ = app.run(inputs={"A": a, "x": x})
        assert np.allclose(result.outputs["y"], a @ x)
        assert total.seconds > 0


class TestCompilationFlexibility:
    """§IV-C: 'Each algorithm can be instantiated for a number of
    different mappings without changes to the high-level algorithm.'"""

    MATMUL = (
        "main(input float A[32][32], input float B[32][32],"
        " output float C[32][32]) {"
        " index i[0:31], j[0:31], k[0:31];"
        " C[i][j] = sum[k](A[i][k]*B[k][j]); }"
    )

    def test_same_source_different_granularities(self):
        # VTA keeps the matmul whole; TABLA lowers it to a scalar DFG.
        vta_app = PolyMath({"DL": Vta()}, pipeline=None).compile(
            self.MATMUL, domain="DL"
        )
        tabla_app = PolyMath({"DA": Tabla()}, pipeline=None).compile(
            self.MATMUL, domain="DA"
        )
        assert "matmul" in vta_app.programs["DL"].ops()
        assert "scalar_dfg[matmul]" in tabla_app.programs["DA"].ops()

    def test_both_mappings_compute_the_same_result(self):
        import numpy as np

        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(32, 32)), rng.normal(size=(32, 32))
        results = []
        for domain, accelerator in (("DL", Vta()), ("DA", Tabla())):
            app = PolyMath({domain: accelerator}).compile(
                self.MATMUL, domain=domain
            )
            result, _, _ = app.run(inputs={"A": a, "B": b})
            results.append(result.outputs["C"])
        assert np.allclose(results[0], results[1])
        assert np.allclose(results[0], a @ b)


class TestExtensibilityCustomReduction:
    """The paper's extensibility claim: a community-added accelerator can
    accept user-defined group reductions as native operations."""

    SOURCE = (
        "reduction minrelax(a,b) = a < b ? a : b;\n"
        "main(param bin adj[32][32], param float w[32][32],"
        " state float dist[32], output float nd[32]) {"
        " index u[0:31], v[0:31];"
        " float relax[32];"
        " relax[v] = minrelax[u: adj[u][v] == 1](dist[u] + w[u][v]);"
        " nd[v] = fmin(relax[v], dist[v]);"
        " dist[v] = fmin(relax[v], dist[v]); }"
    )

    class GraphPlus(Graphicionado):
        """Graphicionado extended with the custom reduction as native."""

        name = "graphicionado+"
        spec = AcceleratorSpec(
            supported_ops=Graphicionado.spec.supported_ops | {"reduce_minrelax"},
            scalar_classes=Graphicionado.spec.scalar_classes,
        )

    def test_custom_reduction_compiles_and_runs(self):
        accelerator = self.GraphPlus()
        compiler = PolyMath({"GA": accelerator})
        app = compiler.compile(self.SOURCE, domain="GA")
        # The custom reduction rides the vertex pipeline.
        assert "pipeline" in app.programs["GA"].ops()

        rng = np.random.default_rng(17)
        adjacency = (rng.random((32, 32)) < 0.2).astype(np.int8)
        np.fill_diagonal(adjacency, 0)
        weights = rng.uniform(1, 5, size=(32, 32)) * adjacency
        dist = np.full(32, 1e9)
        dist[0] = 0.0
        result, total, _ = app.run(
            params={"adj": adjacency, "w": weights}, state={"dist": dist}
        )
        expected = np.minimum(
            dist,
            np.where(adjacency > 0, dist[:, None] + weights, np.inf).min(axis=0),
        )
        assert np.allclose(result.outputs["nd"], expected)
        assert total.seconds > 0
