"""Fault-tolerant multi-accelerator runtime (§V-A3, executable form).

The analytic :class:`~repro.hw.soc.SoCRuntime` prices a perfect SoC; this
package *executes* one that can fail. :class:`HostManager` drives a
compiled application's per-domain programs as discrete dispatch events
with data-dependency tracking, DMA steps, and inter-domain checkpointing;
:class:`FaultPlan` injects deterministic, seedable faults (stalls,
crashes, transient errors, corrupted/dropped transfers);
:class:`RecoveryPolicy` bounds retries, backoff, and watchdog budgets and
enables graceful degradation onto the host CPU model; :class:`RunReport`
surfaces every fault, retry, and fallback as structured, reproducible
events. ``python -m repro chaos`` is the CLI entry point.
"""

from .faults import (
    COMPUTE_FAULTS,
    CRASH,
    DMA_CORRUPT,
    DMA_DROP,
    DMA_FAULTS,
    FAULT_KINDS,
    ActiveFaultPlan,
    FaultPlan,
    FaultSpec,
    Site,
    STALL,
    TRANSIENT,
    parse_fault_spec,
)
from ..hw.soc import HOST_MANAGER_W
from .manager import HostManager
from .policy import RecoveryPolicy
from .report import RunReport, RuntimeEvent

__all__ = [
    "ActiveFaultPlan",
    "COMPUTE_FAULTS",
    "CRASH",
    "DMA_CORRUPT",
    "DMA_DROP",
    "DMA_FAULTS",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "HOST_MANAGER_W",
    "HostManager",
    "RecoveryPolicy",
    "RunReport",
    "RuntimeEvent",
    "STALL",
    "Site",
    "TRANSIENT",
    "parse_fault_spec",
]
