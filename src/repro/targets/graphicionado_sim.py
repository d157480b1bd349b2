"""Event-level simulation of GRAPHICIONADO's processing streams.

The analytic model in :mod:`repro.targets.graphicionado` charges
``edges / streams`` cycles per sweep. Real pipelines are not perfectly
balanced: destination vertices are partitioned across streams, so a
power-law graph (exactly what R-MAT produces) leaves some streams with far
more edges than others, and the sweep finishes when the *slowest* stream
drains. This module simulates that at edge granularity from the actual
edge list, exposing the load-imbalance the analytic model hides — bounded
against the analytic model in ``tests/test_graphicionado_sim.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

#: Pipeline latency from edge ingress to property write-back.
PIPELINE_DEPTH = 8
#: Extra cycles when consecutive edges update the same destination vertex
#: (read-modify-write hazard on the property store).
HAZARD_PENALTY = 2


@dataclass
class StreamTrace:
    """Per-stream accounting for one sweep."""

    stream: int
    edges: int = 0
    hazard_stalls: int = 0
    cycles: int = 0


@dataclass
class SweepResult:
    """Result of simulating one full relaxation sweep."""

    streams: List[StreamTrace] = field(default_factory=list)
    makespan_cycles: int = 0

    @property
    def total_edges(self):
        return sum(trace.edges for trace in self.streams)

    @property
    def imbalance(self):
        """Slowest-stream load over the mean load (1.0 = perfectly even)."""
        loads = [trace.edges for trace in self.streams]
        mean = sum(loads) / len(loads) if loads else 0
        return max(loads) / mean if mean else 0.0

    @property
    def analytic_cycles(self):
        """The analytic model's estimate (edges evenly divided)."""
        return self.total_edges / len(self.streams) + PIPELINE_DEPTH


def edge_list_from_adjacency(adjacency):
    """(src, dst) arrays from a dense 0/1 adjacency matrix."""
    src, dst = np.nonzero(adjacency)
    return src.astype(np.int64), dst.astype(np.int64)


def simulate_sweep(adjacency, streams=8):
    """Simulate one Process/Reduce/Apply sweep over all edges.

    Destination-vertex partitioning (GRAPHICIONADO hashes vertices to
    streams so reductions stay local): stream ``s`` owns every vertex ``v``
    with ``v % streams == s``.
    """
    src, dst = edge_list_from_adjacency(adjacency)
    result = SweepResult(
        streams=[StreamTrace(stream=s) for s in range(streams)]
    )
    owner = dst % streams
    for s in range(streams):
        mine = np.flatnonzero(owner == s)
        trace = result.streams[s]
        trace.edges = int(mine.size)
        # One edge per cycle, plus a hazard stall when the previous edge
        # hit the same destination vertex (sorted edge lists make this
        # common for high-degree vertices).
        destinations = dst[mine]
        if destinations.size:
            hazards = int(np.count_nonzero(destinations[1:] == destinations[:-1]))
        else:
            hazards = 0
        trace.hazard_stalls = hazards
        trace.cycles = trace.edges + hazards * HAZARD_PENALTY + PIPELINE_DEPTH
    result.makespan_cycles = max(trace.cycles for trace in result.streams)
    return result


def simulate_bfs(adjacency, source, streams=8, max_sweeps=None):
    """Simulate BFS to convergence; returns (levels, total_cycles, sweeps).

    Functionally identical to the dense srDFG iteration (and checked
    against it in tests), but cycle-accounted at edge granularity with
    *active-frontier* filtering: a sweep only processes edges whose source
    vertex joined the frontier in the previous sweep — the thing
    GRAPHICIONADO's active-vertex queue does in hardware.
    """
    vertices = adjacency.shape[0]
    src, dst = edge_list_from_adjacency(adjacency)
    level = np.full(vertices, np.inf)
    level[source] = 0
    frontier = np.zeros(vertices, dtype=bool)
    frontier[source] = True
    total_cycles = 0
    sweeps = 0
    owner = dst % streams

    while frontier.any():
        if max_sweeps is not None and sweeps >= max_sweeps:
            break
        active = frontier[src]
        active_dst = dst[active]
        active_owner = owner[active]
        stream_cycles = []
        for s in range(streams):
            mine = active_dst[active_owner == s]
            hazards = (
                int(np.count_nonzero(mine[1:] == mine[:-1])) if mine.size else 0
            )
            stream_cycles.append(mine.size + hazards * HAZARD_PENALTY + PIPELINE_DEPTH)
        total_cycles += max(stream_cycles)
        sweeps += 1

        # Relax: scatter-min the candidate level of every active edge.
        candidates = level[src[active]] + 1
        best = np.full(vertices, np.inf)
        np.minimum.at(best, active_dst, candidates)
        improved = best < level
        level = np.minimum(level, best)
        frontier = improved

    return level, total_cycles, sweeps
