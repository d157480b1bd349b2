"""Roofline-style cost model shared by every hardware backend.

Each backend (accelerators, CPU, GPUs) is parameterised by a
:class:`HardwareParams` record built from Table VI of the paper. For a
compute node the model charges

``time = max(compute_time, memory_time) + dispatch_overhead``

where compute time divides the node's *actual* scalar-op counts (from
:mod:`repro.srdfg.opclass`) by the platform's per-class throughput, and
memory time divides the operand bytes by the relevant bandwidth. On an
accelerator every kernel operand is on chip: ``input``/``output`` streams
cross DRAM once per invocation through their FIFO fragments, ``param``/
``state`` stay resident in scratchpads (what PMLang's type modifiers tell
the hardware, §II-A), and ``local`` intermediates never leave the chip;
resident bytes beyond the device's capacity are the SoC walk's spill
(:mod:`repro.hw.soc`). The CPU/GPU baselines instead move every boundary
operand over DRAM, kernel by kernel.

Nothing here hard-codes a benchmark result; speedups emerge from unit
counts, frequencies, efficiencies, and the structure of the lowered srDFG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..pmlang.builtins import COST_ALU, COST_DIV, COST_MUL, COST_NONLINEAR
from ..util import ReadOnlyDict

#: DRAM access energy, picojoules per byte (LPDDR4-class figure).
DRAM_PJ_PER_BYTE = 20.0


def safe_div(numerator, denominator, default=0.0):
    """``numerator / denominator``, or *default* for a zero/None denominator.

    Cost models divide by bandwidths, rates, and measured totals that DSE
    sweeps and chaos runs can legitimately drive to zero; every ratio in
    ``repro.hw`` routes through this guard instead of crashing mid-report.
    """
    if denominator is None or denominator <= 0:
        return default
    return numerator / denominator
#: On-chip SRAM access energy, picojoules per byte.
SRAM_PJ_PER_BYTE = 1.0
#: Scalar-op energy by class, picojoules per op (45nm-class figures).
OP_PJ = {COST_ALU: 1.0, COST_MUL: 4.0, COST_DIV: 12.0, COST_NONLINEAR: 20.0}


@dataclass(frozen=True)
class HardwareParams:
    """Static description of one execution platform.

    A frozen value, ``throughput`` included: a variant (a DSE grid point,
    a per-domain CPU efficiency) is ``dataclasses.replace(params, ...)``,
    a new object with its own ``fingerprint_part``, never an edit of a
    shared one.
    """

    name: str
    frequency_hz: float
    #: Scalar operations retired per cycle, by cost class.
    throughput: Dict[str, float]
    #: Board/package power in watts while running.
    power_w: float
    #: Idle/static fraction of power (energy still burned when stalled).
    static_fraction: float = 0.3
    #: Off-chip bandwidth, bytes per second.
    dram_bw: float = 10e9
    #: On-chip bandwidth, bytes per second.
    onchip_bw: float = 100e9
    #: Fixed cost charged per dispatched node/kernel, seconds.
    dispatch_overhead_s: float = 0.0
    #: Fraction of peak throughput sustained on real kernels.
    efficiency: float = 0.8
    #: Wall-power overhead beyond the device itself (host, DRAM, board
    #: regulators) charged for the full duration of a run. The paper's
    #: energy numbers are wall measurements, so a 3.4 W ASIC still burns
    #: system watts while it computes.
    system_power_w: float = 8.0
    #: On-chip memory capacity in bytes (Table VI: 512 KB for the ASICs'
    #: task memory, 64 MB eDRAM for GRAPHICIONADO, ~75 MB BRAM on the
    #: KCU1500). ``param``/``state`` footprints beyond this spill to DRAM
    #: every invocation (priced by :mod:`repro.hw.soc`). ``None`` disables
    #: the check.
    onchip_capacity_bytes: float = None
    #: What this record contributes to
    #: :func:`~repro.driver.cache.accelerator_fingerprint` — the repr of
    #: its repr — computed once, so a compile-cache hit does not re-render
    #: it.
    fingerprint_part: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "throughput", ReadOnlyDict(self.throughput))
        object.__setattr__(self, "fingerprint_part", repr(repr(self)))

    def ops_per_second(self, cost_class):
        rate = self.throughput.get(cost_class)
        if rate is None or rate <= 0:
            return None
        return rate * self.frequency_hz * self.efficiency


@dataclass
class PerfStats:
    """Accumulated performance/energy estimate for one run."""

    seconds: float = 0.0
    op_count: int = 0
    dram_bytes: int = 0
    onchip_bytes: int = 0
    energy_j: float = 0.0
    kernels: int = 0
    breakdown: Dict[str, float] = field(default_factory=dict)

    def add(self, other):
        """Merge another PerfStats (sequential composition)."""
        self.seconds += other.seconds
        self.op_count += other.op_count
        self.dram_bytes += other.dram_bytes
        self.onchip_bytes += other.onchip_bytes
        self.energy_j += other.energy_j
        self.kernels += other.kernels
        for key, value in other.breakdown.items():
            self.breakdown[key] = self.breakdown.get(key, 0.0) + value
        return self

    def scaled(self, factor):
        """PerfStats for *factor* repetitions of this run."""
        return PerfStats(
            seconds=self.seconds * factor,
            op_count=int(self.op_count * factor),
            dram_bytes=int(self.dram_bytes * factor),
            onchip_bytes=int(self.onchip_bytes * factor),
            energy_j=self.energy_j * factor,
            kernels=int(self.kernels * factor),
            breakdown={k: v * factor for k, v in self.breakdown.items()},
        )

    @property
    def watts(self):
        return safe_div(self.energy_j, self.seconds)

    def __repr__(self):
        return (
            f"PerfStats(seconds={self.seconds:.6g}, ops={self.op_count}, "
            f"dram_bytes={self.dram_bytes}, onchip_bytes={self.onchip_bytes}, "
            f"energy_j={self.energy_j:.6g}, kernels={self.kernels})"
        )


class RooflineModel:
    """Charges time/energy for op/byte workloads on a platform."""

    def __init__(self, params):
        self.params = params

    def kernel_cost(self, op_counts, dram_bytes, onchip_bytes, label="kernel"):
        """PerfStats for one kernel with the given op/byte profile."""
        params = self.params
        # Per-class units run concurrently (FMA ports next to SFUs on a
        # GPU, MAC chains next to CORDIC slices on an overlay), so the
        # kernel's compute time is the *slowest class*, roofline-style.
        compute_s = 0.0
        total_ops = 0
        for cost_class, count in op_counts.items():
            if count <= 0:
                continue
            total_ops += count
            rate = params.ops_per_second(cost_class)
            if rate is None:
                # Class not natively supported: emulate at ALU rate with a
                # steep penalty (e.g. transcendental on an integer ALU).
                rate = (params.ops_per_second(COST_ALU) or 1.0) / 16.0
            compute_s = max(compute_s, count / rate)
        memory_s = safe_div(dram_bytes, params.dram_bw) + safe_div(
            onchip_bytes, params.onchip_bw
        )
        busy_s = max(compute_s, memory_s)
        seconds = busy_s + params.dispatch_overhead_s

        op_energy = sum(
            count * OP_PJ.get(cost_class, 1.0) * 1e-12
            for cost_class, count in op_counts.items()
        )
        mem_energy = (
            dram_bytes * DRAM_PJ_PER_BYTE + onchip_bytes * SRAM_PJ_PER_BYTE
        ) * 1e-12
        static_energy = params.power_w * params.static_fraction * seconds
        # Dynamic board power scales with utilisation of the busy window.
        utilisation = safe_div(busy_s, seconds)
        dynamic_energy = (
            params.power_w * (1.0 - params.static_fraction) * seconds * utilisation
        )
        energy = (
            max(op_energy + mem_energy, 0.0)
            + static_energy
            + dynamic_energy
            + params.system_power_w * seconds
        )

        return PerfStats(
            seconds=seconds,
            op_count=total_ops,
            dram_bytes=int(dram_bytes),
            onchip_bytes=int(onchip_bytes),
            energy_j=energy,
            kernels=1,
            breakdown={label: seconds},
        )

    def transfer_cost(self, nbytes, label="dma"):
        """PerfStats for a DMA transfer of *nbytes* over DRAM."""
        seconds = safe_div(nbytes, self.params.dram_bw) + self.params.dispatch_overhead_s
        energy = (
            nbytes * DRAM_PJ_PER_BYTE * 1e-12
            + (self.params.power_w * self.params.static_fraction
               + self.params.system_power_w)
            * seconds
        )
        return PerfStats(
            seconds=seconds,
            dram_bytes=int(nbytes),
            energy_j=energy,
            kernels=0,
            breakdown={label: seconds},
        )
