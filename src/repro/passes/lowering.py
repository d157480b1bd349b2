"""Alias of :func:`repro.rewrite.lowering.lower`, kept only for
``benchmarks/ledger/compile_cold.py``."""

from ..rewrite.lowering import lower  # noqa: F401
