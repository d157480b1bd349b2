"""The compilation driver layer: sessions, stage records, caching,
diagnostics.

This package turns the stack's implicit pipeline (parse -> semantic ->
srdfg-build -> optimize -> lower -> translate) into an explicit,
instrumented, replayable driver. ``repro.PolyMath`` remains the simple
facade; every compile in the repository flows through
:class:`CompilerSession`.
"""

from ..srdfg.shapes import BucketPolicy, ShapeBinding
from .cache import ArtifactCache, CacheStats, accelerator_fingerprint, fingerprint
from .diagnostics import Diagnostic, Diagnostics
from .session import (
    CACHE_HIT_STAGE,
    FUSE_STAGE,
    STAGES,
    CompilerSession,
    StageRecord,
)

__all__ = [
    "ArtifactCache",
    "BucketPolicy",
    "CACHE_HIT_STAGE",
    "CacheStats",
    "CompilerSession",
    "ShapeBinding",
    "Diagnostic",
    "Diagnostics",
    "FUSE_STAGE",
    "STAGES",
    "StageRecord",
    "accelerator_fingerprint",
    "fingerprint",
]
