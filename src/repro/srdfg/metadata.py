"""Edge metadata for the srDFG (§III-A of the paper).

Every srDFG edge carries the *operand* it represents: the variable name,
element type, type modifier, and shape. The paper stresses that this
metadata is what lets the lowering and translation algorithms parameterise
accelerator IR generation (e.g. GRAPHICIONADO needs to know an edge is a
vertex-property array; TABLA needs shapes to size its dataflow graph).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

# Type-modifier values an edge can carry. LOCAL marks intermediate values
# that never cross the component boundary.
INPUT = "input"
OUTPUT = "output"
STATE = "state"
PARAM = "param"
LOCAL = "local"

MODIFIERS = (INPUT, OUTPUT, STATE, PARAM, LOCAL)

#: Bytes per element for each PMLang element type (used for DMA/energy
#: accounting; ``bin`` is stored as a byte, ``str`` as a pointer-sized ref).
DTYPE_BYTES = {"bin": 1, "int": 4, "float": 4, "complex": 8, "str": 8}


@dataclass(frozen=True)
class EdgeMeta:
    """Metadata attached to one srDFG edge: (name, dtype, modifier, shape).

    ``src_name`` records the name under which the *producer* publishes the
    value when it differs from ``name`` (the name the consumer reads). The
    two diverge only after lowering inlines a component: the caller-side
    producer publishes the actual argument's name while the inlined
    statement reads the formal's name.
    """

    name: str
    dtype: str = "float"
    modifier: str = LOCAL
    shape: Tuple[int, ...] = ()
    src_name: Optional[str] = None

    def __post_init__(self):
        if self.modifier not in MODIFIERS:
            raise ValueError(f"unknown type modifier {self.modifier!r}")

    @property
    def size(self):
        """Number of scalar elements this operand holds."""
        count = 1
        for dim in self.shape:
            count *= dim
        return count

    @property
    def nbytes(self):
        """Storage footprint in bytes (drives DMA and energy models)."""
        return self.size * DTYPE_BYTES.get(self.dtype, 4)

    def with_src_name(self, src_name):
        """Copy of this metadata publishing from a differently-named value."""
        return replace(self, src_name=src_name)

    @property
    def producer_name(self):
        """Name under which the producing node publishes this operand."""
        return self.src_name if self.src_name is not None else self.name

    def describe(self):
        """Human-readable one-liner, e.g. ``state float ctrl_mdl[20]``."""
        dims = "".join(f"[{dim}]" for dim in self.shape)
        return f"{self.modifier} {self.dtype} {self.name}{dims}"


@dataclass(frozen=True)
class VarInfo:
    """Compile-time record of a variable within one component instance."""

    name: str
    dtype: str
    modifier: str
    shape: Tuple[int, ...]

    def meta(self, modifier: Optional[str] = None):
        """Build an :class:`EdgeMeta` for this variable."""
        return EdgeMeta(
            name=self.name,
            dtype=self.dtype,
            modifier=modifier if modifier is not None else self.modifier,
            shape=self.shape,
        )
