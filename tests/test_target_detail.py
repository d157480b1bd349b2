"""Tests for the microarchitectural detail layers (DECO stages, VTA uops,
profiling, precision modes)."""

import numpy as np
import pytest

from repro.srdfg import Executor, build
from repro.targets import PolyMath, Vta, default_accelerators
from repro.targets.deco_stages import map_stages, map_statement
from repro.targets.vta_uops import (
    generate_gemm_stream,
    listing,
    stream_for_fragment,
)


def scalar_graph(source):
    graph = build(source)
    [node] = graph.compute_nodes()
    return graph, node


class TestDecoStages:
    def test_elementwise_chain_is_narrow_and_deep(self):
        # y = a*b + c -> two stages: mul level 0, add level 1 (per point).
        _, node = scalar_graph(
            "main(input float a[4], input float b[4], input float c[4],"
            " output float y[4]) { index i[0:3]; y[i] = a[i]*b[i] + c[i]; }"
        )
        stages = map_statement(node)
        assert stages.depth == 2
        assert stages.stage_widths == [4, 4]
        assert stages.imbalance == pytest.approx(1.0)

    def test_reduction_tree_narrows_per_stage(self):
        _, node = scalar_graph(
            "main(input float x[8], output float r) {"
            " index i[0:7]; r = sum[i](x[i]); }"
        )
        stages = map_statement(node)
        # Balanced combine tree: 4, 2, 1 combines.
        assert stages.stage_widths == [4, 2, 1]
        assert stages.imbalance > 1.0

    def test_matvec_first_stage_is_fattest(self):
        _, node = scalar_graph(
            "main(input float A[8][8], input float x[8], output float y[8]) {"
            " index i[0:7], j[0:7]; y[j] = sum[i](A[j][i]*x[i]); }"
        )
        stages = map_statement(node)
        assert stages.stage_widths[0] == 64  # all multiplies
        assert max(stages.stage_widths) == stages.stage_widths[0]
        assert stages.total_ops == 64 + 56

    def test_rebalance_factor_grows_with_imbalance(self):
        _, wide = scalar_graph(
            "main(input float A[8][8], input float x[8], output float y[8]) {"
            " index i[0:7], j[0:7]; y[j] = sum[i](A[j][i]*x[i]); }"
        )
        _, flat = scalar_graph(
            "main(input float a[8], input float b[8], output float y[8]) {"
            " index i[0:7]; y[i] = a[i] + b[i]; }"
        )
        wide_factor = map_statement(wide).rebalance_factor(dsp_blocks=32)
        flat_factor = map_statement(flat).rebalance_factor(dsp_blocks=32)
        assert wide_factor > flat_factor
        assert flat_factor == pytest.approx(1.0)

    def test_empty_graph(self):
        from repro.srdfg.graph import SrDFG

        stages = map_stages(SrDFG("empty"))
        assert stages.depth == 0
        assert stages.rebalance_factor(64) == 1.0


class TestVtaUops:
    def test_tile_counts(self):
        stream = generate_gemm_stream(free_size=64, reduce_size=64)
        assert stream.tiles == (4, 4)
        assert stream.count("gemm") == 16
        assert stream.count("load") == 32  # weight + input per gemm
        assert stream.count("store") == 4

    def test_ragged_sizes_round_up(self):
        stream = generate_gemm_stream(free_size=17, reduce_size=1)
        assert stream.tiles == (2, 1)

    def test_cycles_monotone_in_work(self):
        small = generate_gemm_stream(32, 32)
        big = generate_gemm_stream(256, 256)
        assert big.total_cycles > small.total_cycles
        assert big.overlapped_cycles <= big.total_cycles

    def test_stream_for_fragment_consistent_with_cost_model(self):
        source = (
            "main(input float A[256][256], input float x[256],"
            " output float y[256]) {"
            " index i[0:255], j[0:255]; y[j] = sum[i](A[j][i]*x[i]); }"
        )
        accelerator = Vta()
        compiler = PolyMath({"DL": accelerator}, pipeline=None)
        app = compiler.compile(source, domain="DL")
        fragment = next(
            f for f in app.programs["DL"].fragments if f.op == "matvec"
        )
        stream = stream_for_fragment(fragment)
        analytic_cycles = (
            accelerator.fragment_cost(fragment).seconds
            * accelerator.params.frequency_hz
        )
        # Two independent models of the same compute agree within 4x (the
        # stream's load/store side assumes streaming weights, which the
        # analytic model treats as resident, so only compute is compared).
        assert analytic_cycles / 4 < stream.compute_cycles < analytic_cycles * 4

    def test_listing_truncates(self):
        stream = generate_gemm_stream(256, 256)
        text = listing(stream, limit=12)
        assert "more ..." in text
        assert "gemm" in text


class TestProfileApi:
    def test_profile_sums_to_total(self, mpc_source):
        compiler = PolyMath(default_accelerators())
        app = compiler.compile(mpc_source, domain="RBT")
        rows, total = app.profile(top=100)
        assert total > 0
        assert sum(row[2] for row in rows) == pytest.approx(total)
        assert abs(sum(row[3] for row in rows) - 1.0) < 1e-9

    def test_profile_report_renders(self, mpc_source):
        compiler = PolyMath(default_accelerators())
        app = compiler.compile(mpc_source, domain="RBT")
        report = app.profile_report(top=5)
        assert "total accelerator time" in report
        assert "RBT" in report


class TestPrecisionModes:
    SOURCE = (
        "main(input float A[64][64], input float x[64], output float y[64]) {"
        " index i[0:63], j[0:63]; y[j] = sum[i](A[j][i]*x[i]); }"
    )

    def test_f32_outputs_are_float32(self):
        graph = build(self.SOURCE)
        rng = np.random.default_rng(0)
        result = Executor(graph, precision="f32").run(
            inputs={"A": rng.normal(size=(64, 64)), "x": rng.normal(size=64)}
        )
        assert result.outputs["y"].dtype == np.float32

    def test_f32_error_small_but_nonzero(self):
        graph = build(self.SOURCE)
        rng = np.random.default_rng(0)
        inputs = {"A": rng.normal(size=(64, 64)), "x": rng.normal(size=64)}
        high = Executor(graph).run(inputs=inputs).outputs["y"]
        low = Executor(graph, precision="f32").run(inputs=inputs).outputs["y"]
        error = np.max(np.abs(high - low))
        assert 0 < error < 1e-3

    def test_unknown_precision_rejected(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError, match="precision"):
            Executor(build(self.SOURCE), precision="f16")

    def test_f32_propagates_into_components(self, mpc_source, mpc_data):
        graph = build(mpc_source, domain="RBT")
        result = Executor(graph, precision="f32").run(**mpc_data)
        assert result.outputs["ctrl_sgnl"].dtype == np.float32
