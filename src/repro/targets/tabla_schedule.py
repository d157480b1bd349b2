"""Cycle-level scheduling of scalar DFGs onto the TABLA PE array.

TABLA's defining feature (Mahajan et al., HPCA'16) is its *static
scheduler*: the compiler maps every scalar operation of the dataflow graph
onto a processing-engine array ahead of time, cycle by cycle. The analytic
cost model in :mod:`repro.targets.tabla` approximates the resulting
makespan; this module computes it exactly for statements small enough to
scalar-expand, which both demonstrates the paper's "scalar granularity"
lowering path concretely and validates the analytic model (see
``tests/test_tabla_schedule.py``).

The algorithm is resource-constrained list scheduling:

* each cycle, every ready operation (all predecessors finished) competes
  for a PE; ties break by *slack* (critical-path priority);
* ALU/multiply ops run on any PE; non-linear ops only on the PEs with a
  lookup unit (one per PU);
* each op has a latency by cost class (mul 1, div 4, non-linear 4 cycles,
  matching multi-cycle units).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List

from ..pmlang.builtins import SCALAR_FUNCTIONS
from ..srdfg.expand import expand_scalar

#: Latency in cycles per scalar op name.
_LATENCY = {
    "add": 1,
    "sub": 1,
    "neg": 1,
    "not": 1,
    "eq": 1,
    "ne": 1,
    "lt": 1,
    "gt": 1,
    "le": 1,
    "ge": 1,
    "and": 1,
    "or": 1,
    "select": 1,
    "sum": 1,
    "max": 1,
    "min": 1,
    "prod": 1,
    "mul": 1,
    "div": 4,
    "mod": 4,
    "pow": 4,
}
_NONLINEAR_LATENCY = 4


def op_latency(name):
    """Latency in cycles of the scalar operation *name*."""
    if name in _LATENCY:
        return _LATENCY[name]
    base = name.split("[")[0]
    if base in _LATENCY:
        return _LATENCY[base]
    if base in SCALAR_FUNCTIONS:
        return _NONLINEAR_LATENCY
    return 1


def is_nonlinear(name):
    base = name.split("[")[0]
    return base in SCALAR_FUNCTIONS and SCALAR_FUNCTIONS[base][2] == "nonlinear"


@dataclass
class ScheduledOp:
    """Placement of one scalar operation."""

    name: str
    start_cycle: int
    pe: int
    latency: int

    @property
    def end_cycle(self):
        return self.start_cycle + self.latency


@dataclass
class Schedule:
    """A complete static schedule for one statement."""

    ops: List[ScheduledOp] = field(default_factory=list)
    makespan: int = 0
    num_pes: int = 0

    @property
    def utilisation(self):
        """Busy PE-cycles over available PE-cycles."""
        if self.makespan == 0 or self.num_pes == 0:
            return 0.0
        busy = sum(op.latency for op in self.ops)
        return busy / (self.makespan * self.num_pes)

    def occupancy_profile(self):
        """Number of busy PEs per cycle (for visualisation/tests)."""
        profile = [0] * self.makespan
        for op in self.ops:
            for cycle in range(op.start_cycle, op.end_cycle):
                profile[cycle] += 1
        return profile


class TablaScheduler:
    """Resource-constrained list scheduler for TABLA's PE array."""

    def __init__(self, num_pes=64, nonlinear_pes=8):
        if nonlinear_pes > num_pes:
            raise ValueError("nonlinear_pes cannot exceed num_pes")
        self.num_pes = num_pes
        self.nonlinear_pes = nonlinear_pes

    # -- graph preparation ---------------------------------------------------

    def _dependency_structure(self, graph):
        """(ops, preds, succs) over non-leaf scalar nodes.

        Leaf nodes (operand loads) are free: TABLA's operand delivery is
        part of the static schedule's data routing, not a PE op.
        """
        op_nodes = [node for node in graph.nodes if not node.attrs.get("leaf")]
        op_ids = {node.uid for node in op_nodes}
        preds: Dict[int, List[int]] = {node.uid: [] for node in op_nodes}
        succs: Dict[int, List[int]] = {node.uid: [] for node in op_nodes}
        for edge in graph.edges:
            if edge.src.uid in op_ids and edge.dst.uid in op_ids:
                preds[edge.dst.uid].append(edge.src.uid)
                succs[edge.src.uid].append(edge.dst.uid)
        return op_nodes, preds, succs

    def _critical_path_priority(self, op_nodes, succs):
        """Longest path to any sink, per op (classic CP list scheduling)."""
        priority: Dict[int, int] = {}
        by_uid = {node.uid: node for node in op_nodes}

        def height(uid):
            if uid in priority:
                return priority[uid]
            latency = op_latency(by_uid[uid].name)
            below = max((height(s) for s in succs[uid]), default=0)
            priority[uid] = latency + below
            return priority[uid]

        for node in op_nodes:
            height(node.uid)
        return priority

    # -- scheduling --------------------------------------------------------------

    def schedule_graph(self, graph):
        """Schedule a scalar srDFG; returns :class:`Schedule`."""
        op_nodes, preds, succs = self._dependency_structure(graph)
        if not op_nodes:
            return Schedule(ops=[], makespan=0, num_pes=self.num_pes)
        by_uid = {node.uid: node for node in op_nodes}
        priority = self._critical_path_priority(op_nodes, succs)

        remaining_preds = {uid: len(preds[uid]) for uid in preds}
        ready = [
            (-priority[uid], uid) for uid in preds if remaining_preds[uid] == 0
        ]
        heapq.heapify(ready)

        #: cycle -> list of (uid, pe) finishing then.
        finish_events: Dict[int, List[int]] = {}
        pe_free_at = [0] * self.num_pes  # next free cycle per PE
        scheduled: List[ScheduledOp] = []
        op_start: Dict[int, int] = {}
        cycle = 0
        completed = 0
        total = len(op_nodes)

        while completed < total:
            # Retire operations finishing at this cycle.
            for uid in finish_events.pop(cycle, []):
                completed += 1
                for successor in succs[uid]:
                    remaining_preds[successor] -= 1
                    if remaining_preds[successor] == 0:
                        heapq.heappush(ready, (-priority[successor], successor))

            # Issue ready operations onto free PEs.
            deferred = []
            while ready:
                _, uid = heapq.heappop(ready)
                node = by_uid[uid]
                nonlinear = is_nonlinear(node.name)
                pool = range(self.nonlinear_pes) if nonlinear else range(self.num_pes)
                chosen = None
                for pe in pool:
                    if pe_free_at[pe] <= cycle:
                        chosen = pe
                        break
                if chosen is None:
                    deferred.append((-priority[uid], uid))
                    continue
                latency = op_latency(node.name)
                pe_free_at[chosen] = cycle + latency
                op_start[uid] = cycle
                scheduled.append(
                    ScheduledOp(
                        name=node.name, start_cycle=cycle, pe=chosen, latency=latency
                    )
                )
                finish_events.setdefault(cycle + latency, []).append(uid)
            for item in deferred:
                heapq.heappush(ready, item)
            cycle += 1

        makespan = max(op.end_cycle for op in scheduled)
        return Schedule(ops=scheduled, makespan=makespan, num_pes=self.num_pes)

    def schedule_statement(self, compute_node, limit=20000):
        """Scalar-expand a compute node and schedule it."""
        graph = compute_node.subgraph or expand_scalar(compute_node, limit=limit)
        return self.schedule_graph(graph)

    # -- validation helper -----------------------------------------------------------

    def analytic_lower_bound(self, graph):
        """max(critical path, work / PEs): no schedule can beat this."""
        op_nodes, preds, succs = self._dependency_structure(graph)
        if not op_nodes:
            return 0
        priority = self._critical_path_priority(op_nodes, succs)
        critical_path = max(priority.values())
        work = sum(op_latency(node.name) for node in op_nodes)
        import math

        return max(critical_path, math.ceil(work / self.num_pes))
