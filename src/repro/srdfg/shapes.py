"""Shape bindings and their bucketing.

A workload bakes its dims into the source text, so the srDFG carries
concrete extents and the plan tier's structural key already tells two
bindings of one program apart. This module names the two pieces a
request needs to vary them:

* :class:`ShapeBinding` — an immutable ``dim name -> extent`` mapping, the
  thing a client supplies when it wants a workload at non-default dims.
* :class:`BucketPolicy` — the rounding rule that maps a requested binding
  onto the (possibly coarser) binding actually compiled, bounding how
  many specializations a template can accumulate.

Buckets are *exact-dimension* specializations: the policy rounds the
requested dims up and the workload is re-instantiated at the bucketed
dims, so the compiled program is bit-identical to a one-shot compile at
those dims. Nothing is zero-padded — padding would silently change the
math of workloads like MPC.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Tuple

from ..errors import ShapeError

__all__ = ["BucketPolicy", "ShapeBinding"]


def _fingerprint(*parts):
    # Local import: repro.driver imports this module's classes.
    from ..driver.cache import fingerprint

    return fingerprint(*parts)


class ShapeBinding:
    """An immutable, canonically ordered mapping of symbolic dims to extents.

    ``ShapeBinding(n=8192)`` or ``ShapeBinding({"n": 8192})``; extents
    must be positive integers. Bindings hash and compare by content, so
    they can key caches directly.
    """

    __slots__ = ("_dims",)

    def __init__(self, dims: Optional[Mapping[str, int]] = None, **more: int):
        merged: Dict[str, int] = {}
        if dims:
            merged.update(dims)
        merged.update(more)
        for name, value in merged.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ShapeError(
                    f"dim {name!r} must be an int, got {type(value).__name__}",
                    name=name,
                )
            if value < 1:
                raise ShapeError(
                    f"dim {name!r} must be >= 1, got {value}", name=name
                )
        object.__setattr__(
            self, "_dims", tuple(sorted(merged.items()))
        )

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("ShapeBinding is immutable")

    # -- mapping-ish surface -------------------------------------------------

    def as_dict(self) -> Dict[str, int]:
        return dict(self._dims)

    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self._dims)

    def get(self, name: str, default: Optional[int] = None) -> Optional[int]:
        for key, value in self._dims:
            if key == name:
                return value
        return default

    def __getitem__(self, name: str) -> int:
        value = self.get(name)
        if value is None:
            raise KeyError(name)
        return value

    def __contains__(self, name) -> bool:
        return self.get(name) is not None

    def __len__(self) -> int:
        return len(self._dims)

    def __iter__(self):
        return iter(name for name, _ in self._dims)

    def __bool__(self) -> bool:
        return bool(self._dims)

    # -- identity ------------------------------------------------------------

    def key(self) -> Tuple[Tuple[str, int], ...]:
        """Canonical hashable form (sorted name/extent pairs)."""
        return self._dims

    def fingerprint(self) -> str:
        return _fingerprint("shape-binding", self._dims)

    def __eq__(self, other) -> bool:
        return isinstance(other, ShapeBinding) and self._dims == other._dims

    def __hash__(self) -> int:
        return hash(self._dims)

    def __repr__(self) -> str:
        return f"ShapeBinding({self.describe() or ''})"

    def describe(self) -> str:
        return " ".join(f"{name}={value}" for name, value in self._dims)

    # -- derivation ----------------------------------------------------------

    def merge(self, overrides: Optional[Mapping[str, int]] = None, **more):
        """A new binding with *overrides* applied on top of this one."""
        dims = self.as_dict()
        if overrides:
            dims.update(overrides)
        dims.update(more)
        return ShapeBinding(dims)


class BucketPolicy:
    """Rounds a requested :class:`ShapeBinding` up to its bucket.

    Policies (parsed from a spec string so they travel through CLIs and
    configs):

    * ``exact`` — every distinct binding is its own bucket (no rounding).
    * ``pow2`` — each dim rounds up to the next power of two.
    * ``multiple:N`` — each dim rounds up to the next multiple of ``N``.

    Rounding only ever rounds *up*, so a bucketed program can serve any
    request whose dims fit inside it, and the bucket count per template
    stays logarithmic (pow2) or linear-with-slope-1/N (multiple) in the
    dim range instead of one bucket per distinct extent.
    """

    __slots__ = ("kind", "quantum")

    KINDS = ("exact", "pow2", "multiple")

    def __init__(self, kind: str = "exact", quantum: int = 1):
        if kind not in self.KINDS:
            raise ShapeError(
                f"unknown bucket policy {kind!r}; "
                f"expected one of {', '.join(self.KINDS)}"
            )
        if kind == "multiple" and quantum < 1:
            raise ShapeError(
                f"bucket policy multiple:N needs N >= 1, got {quantum}"
            )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "quantum", int(quantum))

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("BucketPolicy is immutable")

    @classmethod
    def parse(cls, spec) -> "BucketPolicy":
        """``"exact"`` | ``"pow2"`` | ``"multiple:N"`` | an instance."""
        if isinstance(spec, cls):
            return spec
        if spec is None:
            return cls("exact")
        text = str(spec).strip().lower()
        if ":" in text:
            kind, _, arg = text.partition(":")
            if kind != "multiple":
                raise ShapeError(f"unknown bucket policy {text!r}")
            try:
                quantum = int(arg)
            except ValueError:
                raise ShapeError(
                    f"bucket policy multiple:N needs an integer N, got {arg!r}"
                ) from None
            return cls("multiple", quantum)
        return cls(text)

    def round_dim(self, value: int) -> int:
        if self.kind == "pow2":
            return 1 << max(0, math.ceil(math.log2(value)))
        if self.kind == "multiple":
            return ((value + self.quantum - 1) // self.quantum) * self.quantum
        return value

    def bucket(self, binding: ShapeBinding) -> ShapeBinding:
        """The binding actually compiled for a request at *binding*."""
        if self.kind == "exact":
            return binding
        return ShapeBinding(
            {name: self.round_dim(value) for name, value in binding.key()}
        )

    def describe(self) -> str:
        if self.kind == "multiple":
            return f"multiple:{self.quantum}"
        return self.kind

    def fingerprint(self) -> str:
        return _fingerprint("bucket-policy", self.describe())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BucketPolicy)
            and self.kind == other.kind
            and self.quantum == other.quantum
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.quantum))

    def __repr__(self) -> str:
        return f"BucketPolicy({self.describe()!r})"
