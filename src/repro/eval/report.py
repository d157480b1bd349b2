"""One-shot full-evaluation report (all tables + all figures)."""

from __future__ import annotations

from .figures import all_figures
from .harness import Harness
from .tables import all_tables


def full_report(validate=False):
    """Regenerate every table and figure; returns the report text."""
    sections = []
    for table in all_tables().values():
        sections.append(table.render())
    harness = Harness(validate=validate)
    for figure in all_figures(harness).values():
        sections.append(figure.render())
    return "\n\n".join(sections)
