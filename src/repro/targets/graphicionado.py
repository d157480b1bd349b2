"""GRAPHICIONADO backend — vertex-programming pipeline ASIC.

Models Ham et al. (MICRO'16): graph algorithms expressed as vertex
programs run on parallel *processing streams*, each a hardware pipeline of
``Process edge -> Reduce -> Apply`` stages fed by a scratchpad holding the
vertex property array (the paper's Fig 6 shows PolyMath's srDFG being
converted to exactly this pipeline IR).

The functional srDFG path evaluates graph formulas densely (an adjacency
matrix lattice); real hardware streams only the *actual edges*. The
workload therefore supplies ``data_hints`` (vertex/edge counts) which this
backend uses for cycle accounting, while the dense path is used only for
functional validation. See DESIGN.md's substitution notes.
"""

from __future__ import annotations

from ..hw.cost import HardwareParams, PerfStats
from .base import Accelerator, AcceleratorSpec, IRFragment, _edge_operands

_GROUP_OPS = frozenset(
    {
        "copy",
        "elemwise",
        "elemwise_add",
        "elemwise_sub",
        "elemwise_mul",
        "reduce_sum",
        "reduce_max",
        "reduce_min",
        "reduce_argmin",
        "reduce_argmax",
        "map_abs",
        "map_fmin",
        "map_fmax",
        "multi_reduce",
    }
)


def _is_vertex_reduce(node):
    descriptor = node.attrs.get("descriptor")
    return (
        descriptor is not None
        and node.name.startswith("reduce_")
        and descriptor.reduce_indices
    )


class Graphicionado(Accelerator):
    """GRAPHICIONADO: graph-analytics pipeline ASIC (GA domain)."""

    name = "graphicionado"
    domain = "GA"
    spec = AcceleratorSpec(
        supported_ops=_GROUP_OPS,
        scalar_classes=frozenset({"alu", "mul", "div"}),
    )
    params = HardwareParams(
        name="GRAPHICIONADO (ASIC)",
        frequency_hz=1.0e9,
        throughput={"alu": 64.0, "mul": 16.0, "div": 2.0},
        power_w=7.0,
        static_fraction=0.3,
        # 64 MB eDRAM scratchpad gives enormous effective vertex bandwidth.
        dram_bw=40e9,
        onchip_bw=256e9,
        dispatch_overhead_s=1e-7,
        onchip_capacity_bytes=64 * 1024 * 1024,  # Table VI: 64 MB eDRAM
        efficiency=0.8,
    )

    #: Parallel processing streams (Table VI "Compute Units" = 8).
    streams = 8

    # -- translation -----------------------------------------------------------

    def translate_compute(self, graph, node):
        """Vertex reductions become Process/Reduce/Apply pipeline blocks."""
        if not _is_vertex_reduce(node):
            return super().translate_compute(graph, node)
        descriptor = node.attrs["descriptor"]
        inputs, outputs, onchip = _edge_operands(graph, node)
        reduce_kind = node.name.replace("reduce_", "")
        return IRFragment(
            op="pipeline",
            target=self.name,
            domain=node.domain,
            inputs=inputs,
            outputs=outputs,
            attrs={
                "stages": ("process_edge", f"reduce[{reduce_kind}]", "apply"),
                "op_counts": dict(descriptor.op_counts),
                "free_size": descriptor.free_size,
                "reduce_size": descriptor.reduce_size,
                "dram_bytes": 0,
                "onchip_bytes": onchip,
                "predicate": descriptor.has_predicate,
                "node_uid": node.uid,
            },
        )

    # -- cost ---------------------------------------------------------------------

    def fragment_cost(self, fragment):
        if fragment.op != "pipeline":
            return super().fragment_cost(fragment)
        vertices = self.data_hints.get("vertices", fragment.attrs.get("free_size", 1))
        edges = self.data_hints.get(
            "edges", fragment.attrs.get("free_size", 1) * fragment.attrs.get("reduce_size", 1)
        )
        # One edge per stream per cycle once the pipeline is full, plus a
        # vertex read and a vertex apply per destination vertex.
        cycles = edges / self.streams + 2.0 * vertices / self.streams + 64.0
        seconds = cycles / self.params.frequency_hz
        # Property/edge traffic: 16B per edge record, 8B per vertex touch.
        onchip_bytes = edges * 16 + vertices * 8
        dram_bytes = fragment.attrs.get("dram_bytes", 0)
        energy = (
            self.params.power_w * seconds
            + onchip_bytes * 1.0e-12
            + dram_bytes * 20.0e-12
        )
        return PerfStats(
            seconds=seconds,
            op_count=int(edges + vertices),
            dram_bytes=int(dram_bytes),
            onchip_bytes=int(onchip_bytes),
            energy_j=energy,
            kernels=1,
            breakdown={"pipeline": seconds},
        )
