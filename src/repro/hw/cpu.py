"""Xeon CPU baseline model (Table VI: Xeon E-2176G, 6 cores, 3.7 GHz, 80 W).

The paper's CPU baselines are *optimized* library implementations (ACADO,
GraphMat, FFTW, mlpack/OpenBLAS, TensorFlow-MKL). We model them as the
same lowered srDFG executed on a multicore with AVX2 SIMD, with a
per-domain *achieved efficiency* factor encoding how close each library
family typically gets to peak: dense BLAS-style kernels run far closer to
peak than pointer-chasing graph traversals.

These efficiency factors are the only domain-specific inputs; everything
else (op counts, bytes, kernel counts) comes from the program structure.
"""

from __future__ import annotations

from dataclasses import replace

from ..hw.cost import HardwareParams, PerfStats, RooflineModel
from ..srdfg.graph import COMPUTE

#: Peak: 6 cores x 2 FMA ports x 8 fp32 lanes = 96 mul + 96 add per cycle.
XEON_PARAMS = HardwareParams(
    name="Xeon E-2176G",
    frequency_hz=3.7e9,
    throughput={"alu": 96.0, "mul": 96.0, "div": 6.0, "nonlinear": 12.0},
    power_w=80.0,
    static_fraction=0.4,
    dram_bw=42e9,
    onchip_bw=700e9,  # L2/L3 aggregate
    dispatch_overhead_s=2e-7,  # library-call / loop-setup cost per kernel
    efficiency=1.0,  # replaced per domain below
    system_power_w=15.0,  # DRAM + board beyond the 80 W package
)

#: Fraction of peak the paper's baseline libraries sustain, per domain.
#: Batch-1, latency-bound kernels on a multicore sit in the low single
#: digits of peak FLOPS (ACADO's small matvecs, GraphMat's pointer-heavy
#: traversals, mlpack's Armadillo loops, unplanned strided butterflies);
#: only cuDNN/MKL-style dense CNN inference approaches half of peak.
#: These factors are this reproduction's calibration inputs — see
#: EXPERIMENTS.md ("Baseline calibration").
CPU_EFFICIENCY = {
    "RBT": 0.04,
    "GA": 0.012,
    "DA": 0.03,
    "DSP": 0.025,
    "DL": 0.35,
}


class BaselinePlatform:
    """CPU/GPU cost estimator over a lowered srDFG."""

    def __init__(self, params, efficiency_by_domain, name=None):
        self.params = params
        self.efficiency_by_domain = dict(efficiency_by_domain)
        self.name = name or params.name
        self._models = {}

    def _model(self, domain):
        if domain not in self._models:
            # Private sub-domain tags (e.g. "DA-BLKS") inherit the parent
            # domain's library efficiency.
            base = domain.split("-")[0] if domain else domain
            efficiency = self.efficiency_by_domain.get(
                domain, self.efficiency_by_domain.get(base, 0.2)
            )
            self._models[domain] = RooflineModel(
                replace(self.params, efficiency=efficiency)
            )
        return self._models[domain]

    def estimate_graph(self, graph, hints=None):
        """PerfStats of executing one invocation of *graph*.

        *hints* may carry ``op_scale`` — the ratio of real algorithmic work
        to the dense srDFG lattice (graph workloads execute sparsely in
        every real implementation; see DESIGN.md substitutions). The same
        scale is applied to every platform so ratios stay fair.
        """
        hints = hints or {}
        op_scale = hints.get("op_scale", 1.0)
        total = PerfStats()
        self._accumulate(graph, op_scale, total)
        return total

    def _accumulate(self, graph, op_scale, total):
        """Charge every compute node at every recursion level.

        Unlowered multi-granularity graphs keep their component nodes;
        descending into subgraphs makes the estimate granularity-agnostic
        (lowered graphs are flat, so this is a no-op for them).
        """
        for node in graph.nodes:
            if node.subgraph is not None:
                self._accumulate(node.subgraph, op_scale, total)
            total.add(self.node_cost(graph, node, op_scale))

    def node_cost(self, graph, node, op_scale=1.0):
        """PerfStats of one node of *graph*; zero unless it is a kernel."""
        descriptor = node.attrs.get("descriptor")
        if node.kind != COMPUTE or descriptor is None:
            return PerfStats()
        op_counts = {
            cls: count * op_scale for cls, count in descriptor.op_counts.items()
        }
        dram, onchip = _node_bytes(graph, node, op_scale)
        return self._model(node.domain or graph.domain).kernel_cost(
            op_counts, dram, onchip, label=node.name
        )


def _node_bytes(graph, node, op_scale):
    from ..srdfg.metadata import LOCAL

    dram = onchip = 0
    seen = set()
    for edge in graph.in_edges(node):
        key = (edge.src.uid, edge.md.producer_name)
        if key in seen:
            continue
        seen.add(key)
        if edge.md.modifier == LOCAL:
            onchip += edge.md.nbytes
        else:
            dram += edge.md.nbytes
    for edge in graph.out_edges(node):
        key = ("out", edge.md.producer_name)
        if key not in seen:
            seen.add(key)
            dram += edge.md.nbytes
    # Sparse workloads touch op_scale of the dense operand footprint.
    return dram * min(1.0, op_scale), onchip * min(1.0, op_scale)


def make_xeon():
    """The paper's CPU baseline."""
    return BaselinePlatform(XEON_PARAMS, CPU_EFFICIENCY, name="Xeon E-2176G")
