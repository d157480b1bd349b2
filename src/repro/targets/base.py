"""Accelerator abstraction: specs, IR fragments, and the target interface.

Algorithm 2 of the paper compiles a lowered srDFG against per-domain
*accelerator specifications*. A specification is the pair ``(md, +d)``:

* ``md`` maps operator names to *translation functions*
  ``t(srdfg, node) -> IRFragment`` producing the accelerator operation for
  the node, with arguments resolved from edge metadata (types converted,
  input/output edges becoming arguments, state edges becoming initialised
  IR variables, params becoming constants, shapes attached when needed);
* ``+d`` combines an accelerator IR and a fragment — here, appending to an
  :class:`AcceleratorProgram`.

Every concrete backend in this package supplies its specification plus a
hardware cost model: ``fragment_cost`` prices one fragment, and the SoC
walk of :mod:`repro.hw.soc` is what sums them. A compiled application
executes its lowered srDFG through the shared execution plan and reads
its cost from that walk (``CompiledApplication.run``).
"""

from __future__ import annotations

import copy
from abc import ABC
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import TargetError
from ..hw.cost import PerfStats, RooflineModel
from ..hw.soc import SoCRuntime
from ..srdfg.graph import COMPONENT, COMPUTE, CONST, VAR
from ..srdfg.metadata import LOCAL
from ..util import ReadOnlyDict


@dataclass
class IRFragment:
    """One accelerator-IR operation: a basic operator plus its arguments."""

    op: str
    target: str
    domain: Optional[str] = None
    inputs: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    outputs: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    attrs: dict = field(default_factory=dict)

    def describe(self):
        ins = ", ".join(f"{name}{list(shape)}" for name, shape in self.inputs)
        outs = ", ".join(f"{name}{list(shape)}" for name, shape in self.outputs)
        return f"{self.target}.{self.op}({ins}) -> ({outs})"


@dataclass
class AcceleratorProgram:
    """The accelerator IR ``pi_d`` for one domain: an ordered fragment list."""

    target: str
    domain: Optional[str] = None
    fragments: List[IRFragment] = field(default_factory=list)

    def append(self, fragment):
        """The paper's ``+d`` combination operator."""
        self.fragments.append(fragment)
        return self

    def ops(self):
        return [fragment.op for fragment in self.fragments]

    def listing(self):
        return "\n".join(fragment.describe() for fragment in self.fragments)

    def __len__(self):
        return len(self.fragments)


@dataclass(frozen=True)
class AcceleratorSpec:
    """The paper's per-domain specification ``(md, +d)`` plus ``Om``/scalar
    capability sets consumed by Algorithm 1.

    A frozen value, like :class:`~repro.hw.cost.HardwareParams`: the sets
    are frozensets and ``translations`` is read-only, so the
    ``fingerprint_part`` rendered at construction can never go stale.
    """

    #: Group-op names translated natively (the entries of ``Om``).
    supported_ops: frozenset
    #: Scalar cost classes the ALUs implement (for scalar-lowered nodes).
    scalar_classes: frozenset
    #: Operator name -> translation function overrides. Operators without
    #: an override use the target's generic compute translation.
    translations: Dict[str, Callable] = field(default_factory=dict)
    #: Component names accepted wholesale as macro tasks.
    macro_components: frozenset = frozenset()
    #: What this spec contributes to
    #: :func:`~repro.driver.cache.accelerator_fingerprint` — each
    #: capability set and the translated operator names, sorted and
    #: rendered — computed once.
    fingerprint_part: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("supported_ops", "scalar_classes", "macro_components"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        object.__setattr__(self, "translations", ReadOnlyDict(self.translations))
        object.__setattr__(self, "fingerprint_part", ", ".join(
            repr(tuple(sorted(names))) for names in (
                self.supported_ops,
                self.scalar_classes,
                self.macro_components,
                self.translations,
            )
        ))


def _edge_operands(graph, node):
    """(inputs, outputs, onchip_bytes) from a node's edges."""
    inputs, outputs = [], []
    onchip = 0
    seen = set()
    for edge in graph.in_edges(node):
        key = (edge.src.uid, edge.md.producer_name)
        if key in seen:
            continue
        seen.add(key)
        inputs.append((edge.md.name, tuple(edge.md.shape)))
        # Every operand a kernel touches is on chip by the time it runs:
        # inputs were ingested once through the read FIFO (charged by the
        # per-invocation ``read_fifo`` fragment), params/state live in
        # scratchpads across invocations, and locals never leave the chip.
        # Charging DRAM here again would bill an input stream once per
        # *statement* instead of once per invocation.
        onchip += edge.md.nbytes
    for edge in graph.out_edges(node):
        key = ("out", edge.md.producer_name)
        if key in seen:
            continue
        seen.add(key)
        outputs.append((edge.md.producer_name, tuple(edge.md.shape)))
        onchip += edge.md.nbytes
    return tuple(inputs), tuple(outputs), onchip


class Accelerator(ABC):
    """A domain-specific accelerator backend.

    Subclasses set ``name``, ``domain``, ``spec`` and ``params`` (a
    :class:`~repro.hw.cost.HardwareParams`), and may override
    ``fragment_cost`` to model microarchitectural detail beyond the shared
    roofline (pipeline fill, reduction-tree depth, systolic utilisation).
    """

    name = "accelerator"
    domain = None
    spec: AcceleratorSpec = None
    params = None

    def __init__(self, data_hints=None):
        if self.spec is None or self.params is None:
            raise TargetError(f"{type(self).__name__} lacks spec/params")
        self.model = RooflineModel(self.params)
        #: Workload-supplied cost hints; ``op_scale`` is the ratio of true
        #: algorithmic work to the dense srDFG lattice (sparse workloads),
        #: applied identically to every platform's cost model.
        self.data_hints = dict(data_hints or {})

    def bound(self, data_hints=None):
        """Shallow copy of this backend with its own hint dictionary.

        Cost hints are workload properties, not hardware properties, so a
        shared accelerator instance must never be mutated with them — one
        workload's ``op_scale`` would silently leak into the next
        workload's estimates. The compiler session binds hints per
        compile through this method; spec, params, and the cost model are
        shared with the original (they are configuration, and read-only).
        """
        clone = copy.copy(self)
        clone.data_hints = dict(self.data_hints)
        if data_hints:
            clone.data_hints.update(data_hints)
        return clone

    # -- Algorithm 1 inputs -----------------------------------------------------

    def om_entry(self):
        """This target's entry in the lowering map ``Om``."""
        return set(self.spec.supported_ops) | set(self.spec.macro_components)

    def scalar_entry(self):
        return set(self.spec.scalar_classes)

    # -- Algorithm 2: node -> IR fragment -----------------------------------------

    def translate_node(self, graph, node):
        """Translation function ``t(srdfg, n)`` for this target."""
        override = self.spec.translations.get(node.name)
        if override is not None:
            return override(self, graph, node)
        if node.kind == COMPUTE:
            return self.translate_compute(graph, node)
        if node.kind == COMPONENT:
            return self.translate_macro(graph, node)
        if node.kind == CONST:
            return IRFragment(
                op="const",
                target=self.name,
                domain=node.domain,
                attrs={"value": node.attrs.get("value")},
            )
        if node.kind == VAR:
            return self.translate_var(graph, node)
        raise TargetError(f"{self.name} cannot translate node kind {node.kind}")

    def translate_var(self, graph, node):
        modifier = node.attrs.get("modifier", LOCAL)
        op = {
            "input": "read_fifo",
            "output": "write_fifo",
            "state": "alloc_onchip",
            "param": "load_const_buf",
        }.get(modifier, "alloc_local")
        return IRFragment(
            op=op,
            target=self.name,
            domain=node.domain,
            outputs=((node.name, tuple(node.attrs.get("shape", ()))),),
            attrs={
                "dtype": node.attrs.get("dtype"),
                "modifier": modifier,
                "nbytes": _var_nbytes(node),
            },
        )

    def translate_compute(self, graph, node):
        descriptor = node.attrs["descriptor"]
        inputs, outputs, onchip = _edge_operands(graph, node)
        lowered = node.attrs.get("lowered", "group")
        op = node.name if lowered != "scalar" else f"scalar_dfg[{node.name}]"
        return IRFragment(
            op=op,
            target=self.name,
            domain=node.domain,
            inputs=inputs,
            outputs=outputs,
            attrs={
                "op_counts": dict(descriptor.op_counts),
                "free_size": descriptor.free_size,
                "reduce_size": descriptor.reduce_size,
                "lowered": lowered,
                "onchip_bytes": onchip,
                "node_uid": node.uid,
            },
        )

    def translate_macro(self, graph, node):
        inputs, outputs, onchip = _edge_operands(graph, node)
        op_counts = {}
        for _, sub_node in node.subgraph.walk():
            descriptor = sub_node.attrs.get("descriptor")
            if descriptor is None:
                continue
            for cost_class, count in descriptor.op_counts.items():
                op_counts[cost_class] = op_counts.get(cost_class, 0) + count
        return IRFragment(
            op=f"task[{node.name}]",
            target=self.name,
            domain=node.domain,
            inputs=inputs,
            outputs=outputs,
            attrs={
                "op_counts": op_counts,
                "onchip_bytes": onchip,
                "node_uid": node.uid,
            },
        )

    # -- cost --------------------------------------------------------------------

    def fragment_cost(self, fragment):
        """PerfStats for executing one fragment once (steady state).

        ``param``/``state`` buffers are preloaded once per run, not per
        invocation, so their var fragments are free here (what overflows
        the device is the SoC walk's spill); streamed ``input``/``output``
        FIFOs are charged per invocation.
        """
        op_counts = fragment.attrs.get("op_counts")
        if not op_counts:
            nbytes = fragment.attrs.get("nbytes", 0)
            if fragment.op in ("read_fifo", "write_fifo"):
                return self.model.transfer_cost(nbytes, label=fragment.op)
            return PerfStats()
        scale = self.data_hints.get("op_scale", 1.0)
        if scale != 1.0:
            op_counts = {cls: count * scale for cls, count in op_counts.items()}
        return self.model.kernel_cost(
            op_counts,
            dram_bytes=0,
            onchip_bytes=fragment.attrs.get("onchip_bytes", 0) * min(1.0, scale),
            label=fragment.op,
        )

    def estimate(self, program):
        """PerfStats for one invocation of *program* on this accelerator:
        what the SoC walk (:mod:`repro.hw.soc`) charges its domain for
        compute and spill, its cross-domain transfers left out."""
        from .compiler import CompiledApplication

        domain = program.domain
        alone = AcceleratorProgram(program.target, domain, [
            fragment for fragment in program.fragments
            if not fragment.attrs.get("crossing")
        ])
        app = CompiledApplication(None, {domain: alone}, {domain: self})
        return SoCRuntime(app.accelerators).execute(app).total

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} domain={self.domain}>"


def _var_nbytes(node):
    from ..srdfg.metadata import DTYPE_BYTES

    shape = node.attrs.get("shape", ())
    count = 1
    for dim in shape:
        count *= dim
    return count * DTYPE_BYTES.get(node.attrs.get("dtype", "float"), 4)
