"""Tests for the cycle-level TABLA scheduler."""

import pytest

from repro.srdfg import build, expand_scalar
from repro.targets.tabla_schedule import (
    Schedule,
    TablaScheduler,
    is_nonlinear,
    op_latency,
)


def scalar_graph(source):
    graph = build(source)
    [node] = graph.compute_nodes()
    return expand_scalar(node)


MATVEC = (
    "main(input float A[8][8], input float x[8], output float y[8]) {"
    " index i[0:7], j[0:7]; y[j] = sum[i](A[j][i]*x[i]); }"
)


class TestLatencies:
    def test_basic_latencies(self):
        assert op_latency("add") == 1
        assert op_latency("mul") == 1
        assert op_latency("div") == 4
        assert op_latency("sigmoid") == 4

    def test_custom_combine_latency(self):
        assert op_latency("combine[rmin]") == 1

    def test_nonlinear_detection(self):
        assert is_nonlinear("sigmoid")
        assert is_nonlinear("gaussian")
        assert not is_nonlinear("mul")
        assert not is_nonlinear("relu")  # ALU-class


class TestScheduleValidity:
    @pytest.fixture(scope="class")
    def schedule(self):
        return TablaScheduler(num_pes=8).schedule_graph(scalar_graph(MATVEC))

    def test_all_ops_scheduled(self, schedule):
        # 64 multiplies + 8x7 sum combines.
        assert len(schedule.ops) == 64 + 56

    def test_no_pe_oversubscription(self, schedule):
        for cycle, busy in enumerate(schedule.occupancy_profile()):
            assert busy <= schedule.num_pes, cycle

    def test_dependencies_respected(self):
        # A dependent chain y = sigmoid(a*b + c) must serialise.
        source = (
            "main(input float a, input float b, input float c,"
            " output float y) { y = sigmoid(a*b + c); }"
        )
        schedule = TablaScheduler(num_pes=64).schedule_graph(scalar_graph(source))
        by_name = {op.name: op for op in schedule.ops}
        assert by_name["mul"].end_cycle <= by_name["add"].start_cycle
        assert by_name["add"].end_cycle <= by_name["sigmoid"].start_cycle
        assert schedule.makespan == 1 + 1 + 4

    def test_makespan_meets_lower_bound(self, schedule):
        scheduler = TablaScheduler(num_pes=8)
        bound = scheduler.analytic_lower_bound(scalar_graph(MATVEC))
        assert schedule.makespan >= bound
        # List scheduling is within 2x of optimal (Graham's bound).
        assert schedule.makespan <= 2 * bound

    def test_more_pes_never_slower(self):
        graph_small = scalar_graph(MATVEC)
        graph_big = scalar_graph(MATVEC)
        small = TablaScheduler(num_pes=4, nonlinear_pes=2).schedule_graph(graph_small)
        big = TablaScheduler(num_pes=64).schedule_graph(graph_big)
        assert big.makespan <= small.makespan

    def test_nonlinear_ops_restricted(self):
        source = (
            "main(input float x[16], output float y[16]) {"
            " index i[0:15]; y[i] = sigmoid(x[i]); }"
        )
        schedule = TablaScheduler(num_pes=16, nonlinear_pes=2).schedule_graph(
            scalar_graph(source)
        )
        pes_used = {op.pe for op in schedule.ops if op.name == "sigmoid"}
        assert pes_used <= {0, 1}
        # 16 sigmoids on 2 lookup units at 4 cycles each: 32 cycles.
        assert schedule.makespan == 32

    def test_utilisation_bounded(self, schedule):
        assert 0.0 < schedule.utilisation <= 1.0

    def test_empty_graph(self):
        from repro.srdfg.graph import SrDFG

        schedule = TablaScheduler().schedule_graph(SrDFG("empty"))
        assert schedule.makespan == 0

    def test_nonlinear_pool_validation(self):
        with pytest.raises(ValueError):
            TablaScheduler(num_pes=4, nonlinear_pes=8)


class TestScheduleStatementApi:
    def test_schedules_compute_node_directly(self):
        graph = build(MATVEC)
        [node] = graph.compute_nodes()
        schedule = TablaScheduler(num_pes=16).schedule_statement(node)
        assert isinstance(schedule, Schedule)
        assert schedule.makespan > 0
        # Expansion attached the scalar level to the node (srDFG recursion).
        assert node.subgraph is not None

    def test_schedule_within_a_band_of_the_analytic_cost(self):
        """The list-scheduled makespan and the analytic ``fragment_cost``
        of one 16x16 matvec agree within a factor of 8 either way."""
        from repro.driver import CompilerSession
        from repro.targets import Tabla

        source = (
            "main(input float A[16][16], input float x[16], output float y[16]) {"
            " index i[0:15], j[0:15]; y[j] = sum[i](A[j][i]*x[i]); }"
        )
        [node] = build(source, domain="DA").compute_nodes()
        schedule = TablaScheduler(num_pes=64, nonlinear_pes=8).schedule_statement(node)
        accelerator = Tabla()
        app = CompilerSession({"DA": accelerator}, pipeline=None).compile(
            source, domain="DA"
        )
        fragment = next(
            f for f in app.programs["DA"].fragments if f.attrs.get("op_counts")
        )
        analytic_cycles = (
            accelerator.fragment_cost(fragment).seconds
            * accelerator.params.frequency_hz
        )
        assert analytic_cycles / 8 < schedule.makespan < analytic_cycles * 8
