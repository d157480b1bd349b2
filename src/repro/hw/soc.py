"""Multi-accelerator SoC runtime (§V-A3 of the paper).

All accelerators are cascaded as a single system-on-chip with shared DRAM
and a host. "A light-weight manager executes on the host, ensuring data
dependencies between different accelerators and initiating DMA transfers
between DRAM and local accelerator memory."

:func:`schedule` turns Algorithm 2's per-domain fragment streams into the
one ordered list of segments the host manager walks: compute bursts
delimited by the crossing ``load``/``store`` fragments, each load
depending on the segment holding the store of the same producer, and
each domain's resident ``param``/``state`` footprint closing its last
segment. :meth:`SoCRuntime.priced` prices a segment's units under a
placement:

* a compute burst of an accelerated domain to its accelerator model;
* a burst of a host-placed domain (partial-acceleration studies, degraded
  runs) to the CPU baseline cost of the kernels it translates;
* a transfer to :meth:`SoCRuntime.dma_cost`, except between two
  host-placed domains, where it is plain memory and free;
* an accelerated domain's footprint to its spill: the bytes beyond the
  device's ``onchip_capacity_bytes`` (Table VI) stream from DRAM on every
  invocation. A host-placed domain has no scratchpad to overflow.

That stream is the one cost plane: :meth:`SoCRuntime.execute` folds it
into a :class:`SoCRunReport`, and every other price in the stack — the
host manager's, fusion's, ``CompiledApplication.run``'s — folds it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, List, Optional

from .cost import DRAM_PJ_PER_BYTE, PerfStats, safe_div
from .cpu import make_xeon

#: Host-manager cost of initiating one DMA transfer.
HOST_DMA_DISPATCH_S = 5e-6
#: Shared-DRAM DMA bandwidth between accelerator local memories.
SOC_DMA_BW = 16e9
#: Host-manager power draw while orchestrating or waiting.
HOST_MANAGER_W = 2.0


@dataclass(frozen=True)
class Unit:
    """One dispatchable unit: a compute burst, a single DMA transfer, or a
    domain's resident footprint (what spills of it)."""

    domain: str
    label: str
    kind: str = "compute"  # "compute" | "dma" | "spill"
    fragments: tuple = ()  # compute only
    direction: str = ""  # dma only: "load" | "store"
    peer: Optional[str] = None
    buffer: str = ""
    #: dma: the bytes moved; spill: the domain's resident footprint.
    nbytes: int = 0
    #: dma only: the ``(producer uid, producer_name)`` Algorithm 2 stamped
    #: on the store and on every load of what it stores.
    moves: tuple = ()


@dataclass
class Segment:
    """One dispatchable run of a domain's program + its upstream deps.

    A domain whose cross-domain traffic is linear (all loads first, all
    stores last) is a single segment named after the domain. Ping-pong
    traffic — compute, hand off to a peer, consume the peer's result,
    compute again — splits into ``DA#0``, ``DA#1``, ... at each crossing
    load that follows already-scheduled work, so every segment's loads
    precede its stores and the dependency graph is acyclic.
    """

    domain: str
    name: str = ""
    units: List[Unit] = field(default_factory=list)
    deps: set = field(default_factory=set)


def resident_footprint(program):
    """Bytes of ``param``/``state`` data *program* pins on chip."""
    return sum(
        fragment.attrs.get("nbytes", 0)
        for fragment in program.fragments
        if fragment.op in ("alloc_onchip", "load_const_buf")
    )


def schedule(programs):
    """Segments of *programs* in dispatch order.

    Dispatch order is a topological sort of the load-after-store
    dependencies with the compiler's (dataflow) insertion order breaking
    ties. Algorithm 2 emits every store before the loads it feeds, so a
    sweep that places nothing means the fragment streams are malformed.
    """
    segments: List[Segment] = []
    stored: Dict[tuple, str] = {}
    for domain, program in programs.items():
        parts = [Segment(domain)]
        bursts = 0
        #: Whether the current segment already dispatched work a later
        #: crossing load must not be reordered above.
        dirty = False
        for crossing, run in groupby(
            program.fragments, key=lambda f: bool(f.attrs.get("crossing"))
        ):
            if not crossing:
                parts[-1].units.append(
                    Unit(domain, f"{domain}.k{bursts}", fragments=tuple(run))
                )
                bursts += 1
                dirty = True
                continue
            for fragment in run:
                load = fragment.op == "load"
                if load and dirty:
                    parts.append(Segment(domain))
                    dirty = False
                names = fragment.inputs if load else fragment.outputs
                buffer = names[0][0] if names else ""
                parts[-1].units.append(
                    Unit(
                        domain, f"{domain}.{fragment.op}[{buffer}]",
                        kind="dma",
                        direction=fragment.op,
                        peer=fragment.attrs.get("from_domain")
                        or fragment.attrs.get("to_domain"),
                        buffer=buffer,
                        nbytes=fragment.attrs.get("nbytes", 0),
                        # a list after the JSON archive round trip
                        moves=tuple(fragment.attrs["moves"]),
                    )
                )
                if not load:
                    dirty = True
        # Last, so a domain that degrades to the host before finishing on
        # its accelerator never pays its spill.
        parts[-1].units.append(Unit(
            domain, f"{domain}.spill", kind="spill",
            nbytes=resident_footprint(program),
        ))
        for ordinal, part in enumerate(parts):
            part.name = domain if len(parts) == 1 else f"{domain}#{ordinal}"
            # A device executes its own program sequentially.
            if ordinal:
                part.deps.add(parts[ordinal - 1].name)
            for unit in part.units:
                if unit.direction == "store":
                    stored[unit.moves] = part.name
        segments.extend(parts)

    for segment in segments:
        for unit in segment.units:
            if unit.direction == "load":
                segment.deps.add(stored[unit.moves])

    order: List[Segment] = []
    done: set = set()
    while segments:
        blocked = []
        for segment in segments:
            if segment.deps <= done:
                order.append(segment)
                done.add(segment.name)
            else:
                blocked.append(segment)
        assert len(blocked) < len(segments), (
            "cyclic cross-domain dependencies among "
            f"{[segment.name for segment in blocked]}"
        )
        segments = blocked
    return order


def charge(report, unit, stats):
    """Book *stats* for *unit* on *report* (total, its domain, DMA share)."""
    report.total.add(stats)
    report.per_domain.setdefault(unit.domain, PerfStats()).add(stats)
    if unit.kind == "dma":
        report.communication.add(stats)


@dataclass
class SoCRunReport:
    """Per-domain and total accounting for one SoC execution."""

    total: PerfStats
    per_domain: Dict[str, PerfStats] = field(default_factory=dict)
    communication: PerfStats = field(default_factory=PerfStats)

    @property
    def communication_fraction(self):
        return safe_div(self.communication.seconds, self.total.seconds)

    @property
    def pipelined_seconds(self):
        """Steady-state initiation interval under software pipelining.

        The end-to-end applications are chains (FFT -> LR -> MPC); run as
        a pipeline across invocations, throughput is bounded by the
        slowest stage rather than the sum. Latency of one result is still
        ``total.seconds``; this is the per-result cost at steady state.
        """
        if not self.per_domain:
            return self.total.seconds
        slowest = max(stats.seconds for stats in self.per_domain.values())
        return max(slowest, self.communication.seconds)

    @property
    def pipeline_speedup(self):
        """Throughput gain of pipelining over sequential execution."""
        return safe_div(self.total.seconds, self.pipelined_seconds, default=1.0)

    def __repr__(self):
        domains = ", ".join(
            f"{domain}={stats.seconds:.3g}s"
            for domain, stats in self.per_domain.items()
        )
        return (
            f"SoCRunReport(total={self.total.seconds:.6g}s, "
            f"comm={self.communication_fraction:.1%}"
            + (f", {domains}" if domains else "")
            + ")"
        )


class SoCRuntime:
    """Schedules a compiled application across accelerators + host."""

    def __init__(self, accelerators, host=None, fragment_cost=None):
        self.accelerators = dict(accelerators)
        self.host = host or make_xeon()
        #: ``(accelerator, fragment) -> PerfStats`` of an accelerated
        #: fragment; the expert of Figs 9 and 12 passes its own.
        self.fragment_cost = fragment_cost or (
            lambda accelerator, fragment: accelerator.fragment_cost(fragment)
        )

    def execute(self, compiled, accelerated_domains=None, hints=None):
        """Account one invocation of *compiled* on the SoC.

        *accelerated_domains* restricts which domains actually run on
        their accelerator; the rest fall back to the host CPU (this is how
        Fig 10/11's single-domain vs cross-domain combinations are
        produced). Returns :class:`SoCRunReport`.
        """
        accelerated = set(
            self.accelerators if accelerated_domains is None
            else accelerated_domains
        )
        report = SoCRunReport(
            total=PerfStats(),
            per_domain={domain: PerfStats() for domain in compiled.programs},
        )
        for segment in schedule(compiled.programs):
            for unit, cost in self.priced(
                compiled.graph, segment.units, accelerated, hints
            ):
                if cost is not None:
                    charge(report, unit, cost)
        return report

    def priced(self, graph, units, accelerated, hints=None):
        """Yield ``(unit, PerfStats)`` for *units* with *accelerated* domains
        on their accelerators and every other domain on the host.

        A transfer between two host-placed domains is plain memory and
        yields None in place of a cost. A footprint yields only what
        spills of it, and only on an accelerator.
        """
        for unit in units:
            on_host = unit.domain not in accelerated
            if unit.kind == "dma":
                if on_host and unit.peer not in accelerated:
                    yield unit, None
                else:
                    # A logical transfer is a store (producer side) plus a
                    # load (consumer side); the host dispatch is paid
                    # once, on the load.
                    yield unit, self.dma_cost(
                        unit.nbytes, dispatch=unit.direction == "load"
                    )
                continue
            if unit.kind == "spill":
                accelerator = self.accelerators[unit.domain]
                capacity = accelerator.params.onchip_capacity_bytes
                if not on_host and capacity and unit.nbytes > capacity:
                    # Sparse workloads touch op_scale of their operands.
                    scale = min(1.0, accelerator.data_hints.get("op_scale", 1.0))
                    yield unit, accelerator.model.transfer_cost(
                        (unit.nbytes - capacity) * scale, label="spill"
                    )
                continue
            stats = PerfStats()
            if on_host:
                op_scale = (hints or {}).get("op_scale", 1.0)
                for fragment in unit.fragments:
                    uid = fragment.attrs.get("node_uid")
                    if uid is not None:
                        stats.add(
                            self.host.node_cost(
                                graph, graph.node_by_uid(uid), op_scale
                            )
                        )
            else:
                accelerator = self.accelerators[unit.domain]
                for fragment in unit.fragments:
                    stats.add(self.fragment_cost(accelerator, fragment))
            yield unit, stats

    def dma_cost(self, nbytes, dispatch=True):
        """PerfStats for one host-initiated DMA transfer of *nbytes*."""
        seconds = (HOST_DMA_DISPATCH_S if dispatch else 0.0) + safe_div(
            nbytes, SOC_DMA_BW
        )
        energy = nbytes * DRAM_PJ_PER_BYTE * 1e-12 + HOST_MANAGER_W * seconds
        return PerfStats(
            seconds=seconds,
            dram_bytes=int(nbytes),
            energy_j=energy,
            breakdown={"dma": seconds},
        )

    def idle_cost(self, seconds, domain=None):
        """PerfStats for *seconds* of watchdog or backoff waiting: the host
        manager spins and, given *domain*, its accelerator idles."""
        watts = HOST_MANAGER_W
        if domain is not None:
            params = self.accelerators[domain].params
            watts += params.power_w * params.static_fraction + params.system_power_w
        return PerfStats(seconds=seconds, energy_j=watts * seconds)
