"""Tests for the event-level GRAPHICIONADO stream simulation."""

import numpy as np
import pytest

from repro.targets.graphicionado_sim import (
    PIPELINE_DEPTH,
    edge_list_from_adjacency,
    simulate_bfs,
    simulate_sweep,
)
from repro.workloads import reference
from repro.workloads.datasets import rmat_graph


@pytest.fixture(scope="module")
def graph_data():
    return rmat_graph(256, 8, seed=13)


class TestSweep:
    def test_every_edge_processed_once(self, graph_data):
        result = simulate_sweep(graph_data.adjacency, streams=8)
        assert result.total_edges == graph_data.edges

    def test_makespan_at_least_analytic(self, graph_data):
        # Load imbalance means the event simulation can never beat the
        # perfectly balanced analytic estimate.
        result = simulate_sweep(graph_data.adjacency, streams=8)
        assert result.makespan_cycles >= result.analytic_cycles

    def test_makespan_within_four_times_analytic(self, graph_data):
        # The analytic model is optimistic on a power-law graph, but by a
        # bounded factor on hash-partitioned streams.
        result = simulate_sweep(graph_data.adjacency, streams=8)
        assert result.makespan_cycles < 4 * result.analytic_cycles

    def test_power_law_graph_is_imbalanced(self, graph_data):
        result = simulate_sweep(graph_data.adjacency, streams=8)
        assert result.imbalance > 1.0

    def test_uniform_graph_is_balanced(self):
        rng = np.random.default_rng(0)
        adjacency = (rng.random((128, 128)) < 0.1).astype(np.int8)
        np.fill_diagonal(adjacency, 0)
        result = simulate_sweep(adjacency, streams=8)
        assert result.imbalance < 1.3

    def test_more_streams_never_slower(self, graph_data):
        slow = simulate_sweep(graph_data.adjacency, streams=2)
        fast = simulate_sweep(graph_data.adjacency, streams=16)
        assert fast.makespan_cycles <= slow.makespan_cycles

    def test_empty_graph(self):
        result = simulate_sweep(np.zeros((16, 16), dtype=np.int8), streams=4)
        assert result.total_edges == 0
        assert result.makespan_cycles == PIPELINE_DEPTH

    def test_edge_list_matches_nonzeros(self, graph_data):
        src, dst = edge_list_from_adjacency(graph_data.adjacency)
        assert src.size == graph_data.edges
        assert np.all(graph_data.adjacency[src, dst] == 1)


class TestBfs:
    def test_levels_match_reference(self, graph_data):
        levels, _, _ = simulate_bfs(
            graph_data.adjacency, graph_data.source, streams=8
        )
        expected = reference.bfs_levels(graph_data.adjacency, graph_data.source)
        reached = expected < reference.UNREACHED
        assert np.allclose(levels[reached], expected[reached])
        assert np.all(np.isinf(levels[~reached]))

    def test_frontier_filtering_beats_full_sweeps(self, graph_data):
        # Active-vertex queues process each edge only when its source is
        # on the frontier; full sweeps reprocess every edge every level.
        _, frontier_cycles, sweeps = simulate_bfs(
            graph_data.adjacency, graph_data.source, streams=8
        )
        full = simulate_sweep(graph_data.adjacency, streams=8)
        assert frontier_cycles < full.makespan_cycles * sweeps

    def test_max_sweeps_cap(self, graph_data):
        _, _, sweeps = simulate_bfs(
            graph_data.adjacency, graph_data.source, streams=8, max_sweeps=2
        )
        assert sweeps == 2

    def test_converges(self, graph_data):
        _, _, sweeps = simulate_bfs(graph_data.adjacency, graph_data.source)
        assert 1 < sweeps < graph_data.vertices
