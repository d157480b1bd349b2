"""Deterministic, seedable fault-injection plane for the host runtime.

A :class:`FaultPlan` is a declarative description of what should go wrong
during one run of the :class:`~repro.runtime.manager.HostManager`: which
kind of fault, at which injection *site* (an accelerator dispatch or a DMA
transfer, optionally restricted to one domain), and *when* — either at
scheduled occurrence indices or with a per-attempt probability drawn from
a seeded RNG. Because the manager dispatches units in a deterministic
order and the RNG is only consulted for probabilistic specs, the same
plan + seed always reproduces the identical fault/event sequence.

Fault kinds
-----------
``stall``
    The accelerator accepts the dispatch but never signals completion; the
    manager's watchdog expires and the dispatch is retried.
``crash``
    The accelerator goes dark permanently. The watchdog expires, the
    device is marked unhealthy, and (policy permitting) the domain is
    degraded onto the host CPU model.
``transient``
    The dispatch completes but its result fails validation; the work is
    paid for and retried.
``dma-corrupt``
    A DMA transfer completes but the checksum mismatches; the transfer is
    paid for, the buffer is *not* published, and the transfer is retried.
``dma-drop``
    A DMA transfer never completes; the watchdog expires and the transfer
    is retried.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Tuple

STALL = "stall"
CRASH = "crash"
TRANSIENT = "transient"
DMA_CORRUPT = "dma-corrupt"
DMA_DROP = "dma-drop"

#: Faults that strike an accelerator compute dispatch.
COMPUTE_FAULTS = frozenset({STALL, CRASH, TRANSIENT})
#: Faults that strike a host-managed DMA transfer.
DMA_FAULTS = frozenset({DMA_CORRUPT, DMA_DROP})
#: Faults whose only symptom is a missing completion signal (watchdog).
TIMEOUT_FAULTS = frozenset({STALL, CRASH, DMA_DROP})

FAULT_KINDS = COMPUTE_FAULTS | DMA_FAULTS


@dataclass(frozen=True)
class Site:
    """One injection site: a single dispatch/transfer attempt."""

    #: "dispatch" (accelerator compute), "dma" (transfer) or "spill" (the
    #: accelerator streaming its overflow; no fault kind strikes one).
    unit: str
    domain: Optional[str] = None
    peer: Optional[str] = None  # other endpoint of a DMA transfer
    label: str = ""
    placement: str = "accel"  # "accel" or "host"

    def render(self):
        peer = f" peer={self.peer}" if self.peer else ""
        return f"{self.unit} {self.label} [{self.domain}{peer}]"


@dataclass(frozen=True)
class FaultSpec:
    """One fault source: kind + site filter + trigger schedule.

    With neither *probability* nor *at*, the spec fires exactly once, on
    the first eligible attempt (``at=(0,)`` semantics). *at* indices count
    eligible attempts at matching sites, including retries.
    """

    kind: str
    domain: Optional[str] = None  # None matches any domain
    peer: Optional[str] = None  # DMA only: restrict to one peer domain
    probability: Optional[float] = None
    at: Tuple[int, ...] = ()
    max_triggers: Optional[int] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {sorted(FAULT_KINDS)}"
            )
        if self.probability is not None and not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"fault probability {self.probability} not in [0, 1]")

    def matches(self, site):
        """Whether *site* is eligible for this fault."""
        if self.kind in COMPUTE_FAULTS:
            # Accelerator faults only strike accelerator-placed dispatches;
            # a domain already degraded to the host cannot stall or crash.
            if site.unit != "dispatch" or site.placement != "accel":
                return False
        else:
            if site.unit != "dma":
                return False
        if self.domain is not None and site.domain != self.domain:
            return False
        if self.peer is not None and site.peer != self.peer:
            return False
        return True

    def render(self):
        where = f"@{self.domain}" if self.domain else "@*"
        when = ""
        if self.at:
            when = f":at={','.join(str(i) for i in self.at)}"
        elif self.probability is not None:
            when = f":p={self.probability}"
        return f"{self.kind}{where}{when}"


def parse_fault_spec(text):
    """Parse ``kind[@domain][:p=P][:at=I,J][:n=N][:peer=D]`` into a FaultSpec.

    Examples: ``crash@DA``, ``stall@DSP:at=0,2``, ``dma-corrupt:p=0.25``,
    ``transient@RBT:p=1.0:n=3``.
    """
    parts = text.split(":")
    head, options = parts[0], parts[1:]
    if "@" in head:
        kind, _, domain = head.partition("@")
        domain = domain or None
    else:
        kind, domain = head, None
    probability = None
    at: Tuple[int, ...] = ()
    max_triggers = None
    peer = None
    for option in options:
        key, sep, value = option.partition("=")
        if not sep:
            raise ValueError(f"malformed fault option {option!r} in {text!r}")
        if key == "p":
            probability = float(value)
        elif key == "at":
            at = tuple(int(item) for item in value.split(",") if item)
        elif key == "n":
            max_triggers = int(value)
        elif key == "peer":
            peer = value
        else:
            raise ValueError(f"unknown fault option {key!r} in {text!r}")
    return FaultSpec(
        kind=kind,
        domain=domain,
        peer=peer,
        probability=probability,
        at=at,
        max_triggers=max_triggers,
    )


@dataclass
class FaultPlan:
    """A seeded collection of fault specs for one (or more) runs."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        self.specs = tuple(self.specs)

    @classmethod
    def parse(cls, texts, seed=0):
        """FaultPlan from CLI-style spec strings (see :func:`parse_fault_spec`)."""
        return cls(specs=tuple(parse_fault_spec(text) for text in texts), seed=seed)

    def activate(self):
        """Fresh :class:`ActiveFaultPlan` (resets counters and the RNG)."""
        return ActiveFaultPlan(self)

    def render(self):
        if not self.specs:
            return "no faults"
        body = ", ".join(spec.render() for spec in self.specs)
        return f"{body} (seed {self.seed})"


@dataclass
class ActiveFaultPlan:
    """Mutable per-run state of a plan: RNG stream + occurrence counters."""

    plan: FaultPlan
    _rng: random.Random = field(init=False, repr=False)
    _seen: list = field(init=False, repr=False)
    _fired: list = field(init=False, repr=False)

    def __post_init__(self):
        self._rng = random.Random(self.plan.seed)
        self._seen = [0] * len(self.plan.specs)
        self._fired = [0] * len(self.plan.specs)

    def draw(self, site):
        """The FaultSpec striking this attempt at *site*, or None.

        Specs are consulted in plan order; the first one that triggers
        wins (later specs still advance their occurrence counters so the
        schedule of each spec is independent of the others' outcomes).
        """
        struck = None
        for index, spec in enumerate(self.plan.specs):
            if not spec.matches(site):
                continue
            occurrence = self._seen[index]
            self._seen[index] += 1
            limit = spec.max_triggers
            if limit is None and spec.probability is None and not spec.at:
                limit = 1
            if limit is not None and self._fired[index] >= limit:
                continue
            if spec.at:
                fire = occurrence in spec.at
            elif spec.probability is not None:
                fire = self._rng.random() < spec.probability
            else:
                fire = True
            if fire:
                self._fired[index] += 1
                if struck is None:
                    struck = spec
        return struck
