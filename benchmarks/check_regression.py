#!/usr/bin/env python
"""Benchmark regression gate: fresh results vs committed baselines.

CI regenerates ``results/BENCH_figures.json`` (figure/fusion/rule-trip
data), then runs this script against the baseline committed under
``results/baselines/``. Performance is not gated here: the ledger
(``benchmarks/ledger/``) measures compile, both execution tiers and
serving on real work. A run fails when a numeric leaf of the figures
file drifts more than ``--tolerance`` (default 15%) from the baseline
(wall-clock leaves — ``compile_seconds``, ``wall_seconds`` — are
skipped; everything else in that file is deterministic cost-model
output), or a baseline leaf disappears.

Updating a baseline is deliberate: rerun the benchmark and commit the
new file to ``results/baselines/`` in the same PR that changed the
numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Leaf-path substrings excluded from the figures comparison: wall-clock
#: measurements vary run to run; the modeled numbers do not.
WALL_CLOCK_MARKERS = ("compile_seconds", "wall_seconds")


def load(path):
    with open(path) as handle:
        return json.load(handle)


def numeric_leaves(value, path=""):
    """Yield ``(path, number)`` for every numeric leaf of a JSON tree."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from numeric_leaves(value[key], f"{path}/{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from numeric_leaves(item, f"{path}[{index}]")
    elif isinstance(value, bool):
        return
    elif isinstance(value, (int, float)):
        yield path, float(value)


def check_figures(current, baseline, tolerance, epsilon=1e-9):
    """Failures among the deterministic numeric leaves of the figures file."""
    failures = []
    current_leaves = dict(numeric_leaves(current))
    for path, expected in numeric_leaves(baseline):
        if any(marker in path for marker in WALL_CLOCK_MARKERS):
            continue
        got = current_leaves.get(path)
        if got is None:
            failures.append(f"figures: {path} missing from current results")
            continue
        scale = max(abs(expected), abs(got))
        if scale <= epsilon:
            continue
        drift = abs(got - expected) / scale
        if drift > tolerance:
            failures.append(
                f"figures: {path} drifted {drift:.1%} "
                f"(baseline {expected:g}, got {got:g})"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--figures", required=True, metavar="PATH",
        help="fresh BENCH_figures.json",
    )
    parser.add_argument(
        "--baseline-dir",
        default="results/baselines",
        metavar="DIR",
        help="directory holding the committed baseline copies "
        "(default results/baselines)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        metavar="FRACTION",
        help="allowed relative regression (default 0.15)",
    )
    args = parser.parse_args(argv)

    baselines = Path(args.baseline_dir)
    failures = check_figures(
        load(args.figures),
        load(baselines / "BENCH_figures.json"),
        args.tolerance,
    )

    for failure in failures:
        print(f"REGRESSION {failure}", file=sys.stderr)
    if failures:
        print(
            f"{len(failures)} regression(s) beyond {args.tolerance:.0%} "
            f"of baseline (see above); if intentional, refresh "
            f"{baselines}/ in this PR",
            file=sys.stderr,
        )
        return 1
    print(
        f"regression gate ok: {args.figures} within "
        f"{args.tolerance:.0%} of {baselines}/"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
