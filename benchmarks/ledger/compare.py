"""Compare two sets of ledger runs against the bounds in BENCHMARK.json.

    python3 benchmarks/ledger/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a report file written
by ``run.py --out``, a JSON list of such reports, or a directory of them.
One row is printed per (end-to-end metric, workload):

* ``better``        every run of B reads better than every run of A, or
                    B's median is better by more than the spread;
* ``within-bound``  B's median is no worse than A's by more than the bound;
* ``worse``         B's median is worse than A's by more than the bound;
* ``unresolved``    the run-to-run spread (interquartile range over
                    median, the wider of the two sides) exceeds the bound,
                    so the runs cannot tell — lengthen or repeat them.

Per-layer metrics marked exact in ``spec.EXACT`` must be bit-equal
wherever both sides report them; a difference is ``worse``. The exit
code is 1 when any row is ``worse``, 0 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from collections import defaultdict

from harness import spread
from spec import END_TO_END, EXACT


def load(path):
    """Every run report under *path*, grouped by workload."""
    path = pathlib.Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = defaultdict(list)
    for file in files:
        document = json.loads(file.read_text())
        for report in document if isinstance(document, list) else [document]:
            runs[report["workload"]].append(report)
    return runs


def verdict(parent, change, better, bound):
    """``(verdict, worse_by, spread)`` for one metric on one workload.

    *worse_by* is the share of the parent's median by which the change's
    median is worse (negative when it is better).
    """
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    worse_by = sign * (statistics.median(change) - base) / base
    noise = max(spread(parent), spread(change))
    if max(sign * v for v in change) < min(sign * v for v in parent):
        return "better", worse_by, noise
    if noise > bound:
        return "unresolved", worse_by, noise
    if worse_by > bound:
        return "worse", worse_by, noise
    if -worse_by > noise:
        return "better", worse_by, noise
    return "within-bound", worse_by, noise


def exact_differences(parent, change):
    """Exact per-layer metrics whose values differ between the sides."""
    rows = []
    for name in sorted(EXACT):
        seen = {
            side: {r["per_layer"][name] for r in runs if "per_layer" in r}
            for side, runs in (("A", parent), ("B", change))
        }
        if seen["A"] and seen["B"] and (
            len(seen["A"] | seen["B"]) != 1
        ):
            rows.append((name, sorted(seen["A"]), sorted(seen["B"])))
    return rows


def compare(parent_runs, change_runs, out=sys.stdout):
    """Print the table; returns the number of ``worse`` rows."""
    worse = 0
    for side, runs in (("A", parent_runs), ("B", change_runs)):
        pinned = {
            json.dumps(
                {k: v for k, v in r["environment"].items()
                 if k not in ("seed", "commit")},
                sort_keys=True,
            )
            for reports in runs.values() for r in reports
        }
        if len(pinned) > 1:
            print(f"warning: runs of {side} differ in environment", file=out)
    print(
        f"{'workload':16s} {'metric':16s} {'A median':>12s} {'B median':>12s} "
        f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict",
        file=out,
    )
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        for name, metric in END_TO_END.items():
            a = [r["end_to_end"][name] for r in parent]
            b = [r["end_to_end"][name] for r in change]
            result, worse_by, noise = verdict(
                a, b, metric["better"], metric["bound"]
            )
            worse += result == "worse"
            print(
                f"{workload:16s} {name:16s} {statistics.median(a):12.4f} "
                f"{statistics.median(b):12.4f} {worse_by:+9.1%} "
                f"{noise:7.1%} {metric['bound']:6.0%}  {result}",
                file=out,
            )
        for name, a, b in exact_differences(parent, change):
            worse += 1
            print(
                f"{workload:16s} {name}: exact metric differs, "
                f"A {a} vs B {b}  worse",
                file=out,
            )
    return worse


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(1 if compare(load(argv[0]), load(argv[1])) else 0)


if __name__ == "__main__":
    main()
