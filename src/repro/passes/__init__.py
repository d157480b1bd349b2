"""Alias of :func:`repro.rewrite.default_pipeline`, kept only for
``benchmarks/ledger/compile_cold.py``; nothing else imports this package."""

from ..rewrite import default_pipeline  # noqa: F401
