"""Shared fixtures for the supporting benchmark (tracer overhead), which
writes its rendered rows to ``results/<id>.txt``. The paper's figures and
their claims are ``repro.eval.claims``, run in tier-1 by
``tests/test_claims.py``.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def emit():
    """Write a rendered table/figure to results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(identifier, rendered):
        path = RESULTS_DIR / f"{identifier}.txt"
        path.write_text(rendered + "\n")
        print(f"\n{rendered}\n[written to {path}]")
        return path

    return _emit
