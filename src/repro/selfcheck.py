"""The smoke table: every end-to-end claim this repo checks, written once.

``python -m repro selfcheck [row ...]`` runs the rows of :data:`TABLE` in
table order, each as ``python <argv>`` from the repository root with
``src`` on ``PYTHONPATH``, and holds the row's JSON report (the file its
``--json`` names, else its last stdout line) to the row's expectations.
Output, reports and artefacts land in ``results/selfcheck/``;
one verdict line per row; a nonzero exit names the row and the JSON path
that failed. CI runs this one command, and the docs name rows instead of
restating flag strings (``tests/test_docs.py`` holds them to it).
"""

from __future__ import annotations

import json
import operator
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .obs import CATEGORIES
from .workloads import END_TO_END, SINGLE_DOMAIN

ROOT = Path(__file__).resolve().parents[2]
#: Where every row writes, relative to :data:`ROOT`.
OUT = "results/selfcheck"

_OPS = {"==": operator.eq, ">=": operator.ge, "<=": operator.le, "is": operator.is_}


@dataclass
class Row:
    """One claim and the command that proves it (exit status 0, always)."""

    name: str
    #: What follows ``python``; written as one string, split on whitespace.
    argv: tuple
    #: Held against the command's JSON report — the file its ``--json``
    #: names, else its last stdout line: ``(keys, op, value)`` with *op*
    #: one of ``==``, ``>=``, ``<=``, ``is``, or a predicate whose
    #: docstring states it.
    expect: tuple = ()
    #: Consecutive runs that must all exit 0.
    repeat: int = 1

    def __post_init__(self):
        self.argv = tuple(self.argv.split())


def one_plan_per_config(report):
    """plan_reuse.plans_built == plan_reuse.distinct_configs"""
    reuse = report["plan_reuse"]
    return reuse["plans_built"] == reuse["distinct_configs"]


def sites_cover_executed(report):
    """provenance.site counts sum to completed + failed"""
    sites = report["provenance"].get("site", {})
    return sum(sites.values()) == report["completed"] + report["failed"]


def claims_reproduce(report):
    """every paper claim holds and no leaf drifted from the baseline"""
    from .eval.claims import BASELINE, failures

    found = failures(report, json.loads(BASELINE.read_text()))
    for failure in found:
        print(f"figures: {failure}", file=sys.stderr)
    return not found


_ALL_KERNEL = (("provenance", "execute"), "==", {"kernel": 32})
_VERDICT = ((("correct",), "is", True), (("failed",), "==", 0))
#: Contractions each program must keep on einsum (none back on the lattice).
_EINSUM_FLOORS = {"ResNet-18": 22, "MobileNet": 19, "DCT-1024": 2, "DCT-2048": 2}
#: Takes each program may print: one per (SSA base, index constant); a
#: CNN's, one per 3x3 window its matmul would copy through ``reshape``.
_GATHER_CEILINGS = {
    "FFT-8192": 78, "FFT-16384": 84, "BrainStimul": 72, "ResNet-18": 0, "MobileNet": 8,
}
#: Ufuncs writing over a dead statement result: MovieL's ``err`` into
#: ``pred`` (12.7 MB at 100K, 100 MB at 20M), at least.
_REUSE_FLOORS = {"MovieL-100K": 1, "MovieL-20M": 1}
#: Partial stores writing over a dead buffer: the CNNs' padded copies.
_IN_PLACE_FLOORS = {"ResNet-18": 17, "MobileNet": 9}
#: Statements folded slice by slice: ElecUse's 4-wide ``dsq`` sum alone.
_SHORT_SUMS = {"ElecUse": 1}
#: Reductions run on their predicate's points: each graph program's relax.
_COMPRESSED = {"Twitter-BFS": 1, "Wiki-BFS": 1, "LiveJourn-SSP": 1}
#: Tables III and IV of the paper.
_PAPER_PROGRAMS = SINGLE_DOMAIN + END_TO_END

TABLE = (
    # The rule pipeline and Algorithm 1's lowering rules fire on MPC and an FFT.
    Row(
        "rewrite",
        f"-m repro rewrite MobileRobot FFT-8192 --json {OUT}/rewrite.json",
        expect=(
            (("counters", "constant-folding/fold-binop.rewrites"), ">=", 1),
            (("counters", "lowering", "lowering/inline-component.rewrites"), ">=", 1),
        ),
    ),
    # The paper's figure claims hold, and the figures match the baseline.
    Row(
        "figures",
        f"-m repro figures --json {OUT}/BENCH_figures.json",
        expect=(claims_reproduce,),
    ),
    # A crash in DA recovers through the host fallback, bit for bit, at f32.
    Row(
        "chaos",
        "-m repro chaos BrainStimul --inject crash@DA --seed 7 --compare "
        "--quiet --precision f32",
    ),
    # MPC plans each statement exactly once over eight executions.
    Row(
        "plan-reuse",
        "-m repro stats --workload MobileRobot --execute 8 --assert-plan-reuse",
    ),
    # 32 concurrent requests coalesce per config, are bit-identical to a
    # serial run, and are all answered by their generated kernel.
    Row(
        "serve-thread",
        "-m repro serve --requests 32 --workers 4 --pool thread "
        f"--assert-plan-reuse --compare-serial --json {OUT}/serve-thread.json",
        expect=(_ALL_KERNEL, one_plan_per_config),
    ),
    # Exactly one build per key: the 4-thread kernel barrier, the 8-thread
    # first touch of a served config, and the torn-lease regression.
    Row(
        "one-build-soak",
        "-m pytest -q -x "
        "tests/test_serve.py::test_concurrent_codegen_plans_build_one_kernel "
        "tests/test_serve.py::test_first_touch_of_a_config_builds_everything_once "
        "tests/test_procpool.py::test_lease_is_never_visible_without_its_payload",
        repeat=20,
    ),
    # The same trace on worker processes: cross-process lease coalescing;
    # every executed request ran in the parent or in a child.
    Row(
        "serve-process",
        "-m repro serve --requests 32 --workers 4 --pool process "
        "--assert-plan-reuse --assert-conservation --compare-serial "
        f"--json {OUT}/serve-process.json",
        expect=(_ALL_KERNEL, sites_cover_executed),
    ),
    # Differential oracles, 25 seeds x 2 dim variants; the validation matrix.
    Row(
        "fuzz",
        "-m repro fuzz --programs 25 --seed 7 --campaigns smoke "
        f"--dim-variants 2 --json {OUT}/BENCH_resilience.json",
    ),
    # Deadlines + faults + breakers: every request in exactly one bucket.
    Row(
        "serve-resilience",
        "-m repro serve --requests 16 --workers 2 --deadline 60 "
        "--fault-rate 0.3 --breaker-threshold 3 --assert-conservation",
    ),
    # 50-step stateful streams: one plan per binding, >= 2x over stateless
    # re-submission, bit-identical to it — in both pools.
    *(
        Row(
            f"session-{pool}",
            "-m repro serve --sessions 2 --session-steps 50 "
            f"--workloads MobileRobot --pool {pool} --assert-speedup 2 "
            "--assert-plan-reuse --assert-conservation "
            f"--json {OUT}/session-{pool}.json",
            expect=(
                (("session_compare", "bit_identical"), "is", True),
                (("plan_reuse", "ok"), "is", True),
            ),
        )
        for pool in ("thread", "process")
    ),
    # The kernel tier is bit-identical to the interpreter (--compare; a
    # declined build fails it), scatters none of the 17 paper programs'
    # stores (each is a slice or a cover); conv / DCT
    # contractions stay off the lattice; no take repeats; MovieL's err
    # writes over a dead result instead of a fresh buffer, and the CNNs'
    # pads over their dead zero fills; only
    # ElecUse's short sum folds slice by slice; each graph program's
    # relax runs on its predicate's points.
    Row(
        "codegen",
        "-m repro codegen "
        + "".join(f"--workload {name} " for name in _PAPER_PROGRAMS)
        + f"--compare --json {OUT}/codegen.json "
        f"--dump-source {OUT}/codegen-src",
        expect=(
            *((("workloads", name, "scatters"), "==", 0) for name in _PAPER_PROGRAMS),
            *((("workloads", name, "einsum"), ">=", n) for name, n in _EINSUM_FLOORS.items()),
            *((("workloads", name, "gathers"), "<=", n) for name, n in _GATHER_CEILINGS.items()),
            *((("workloads", name, "reuses"), ">=", n) for name, n in _REUSE_FLOORS.items()),
            *((("workloads", name, "in_place"), ">=", n) for name, n in _IN_PLACE_FLOORS.items()),
            *((("workloads", name, "short_sums"), "==", _SHORT_SUMS.get(name, 0))
              for name in _PAPER_PROGRAMS),
            *((("workloads", name, "compressed"), "==", _COMPRESSED.get(name, 0))
              for name in _PAPER_PROGRAMS),
        ),
    ),
    # The ledger's own verdicts: traced compile; kernel == interpreter on
    # seven programs; exact plan/compile/config counts across processes.
    Row(
        "ledger-compile-cold",
        "benchmarks/ledger/run.py --workload compile-cold --seed 1 "
        f"--seconds 4 --trace 1 --out {OUT}/ledger-compile-cold.json",
        expect=_VERDICT,
    ),
    Row(
        "ledger-execute-steady",
        "benchmarks/ledger/run.py --workload execute-steady --seed 1 "
        "--seconds 4 --trace 0",
        expect=_VERDICT,
    ),
    *(
        Row(
            f"ledger-serve-{pool}",
            f"benchmarks/ledger/run.py --workload serve-{pool} --seed 1 "
            "--seconds 4 --trace 0",
            expect=_VERDICT,
        )
        for pool in ("thread", "process")
    ),
    # Spans from all six layers on one timeline (the fault-injecting
    # requests route through the HostManager, which is the runtime layer).
    Row(
        "trace",
        "-m repro serve --requests 6 --workers 2 "
        "--workloads MobileRobot,ElecUse --max-steps 2 --fault-rate 0.3 "
        f"--trace {OUT}/trace.json --json {OUT}/trace-report.json",
        expect=tuple(
            (("trace_spans", category), ">=", 1) for category in CATEGORIES
        ),
    ),
)


def _failure(report, expectation):
    """What *expectation* finds wrong with *report*, or None."""
    if callable(expectation):
        if expectation(report):
            return None
        return f"{expectation.__doc__} does not hold"
    keys, op, value = expectation
    path, found = ".".join(keys), report
    try:
        for key in keys:
            found = found[key]
    except (KeyError, TypeError):
        return f"{path} is missing from the report"
    if _OPS[op](found, value):
        return None
    return f"{path} {op} {value!r} does not hold: it is {found!r}"


def run_row(row):
    """Run *row* once per ``repeat``; what failed, or None."""
    out = ROOT / OUT
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    report_path = None
    if "--json" in row.argv:
        report_path = ROOT / row.argv[row.argv.index("--json") + 1]
        # A report left by an earlier run is not this run's evidence.
        report_path.unlink(missing_ok=True)
    with open(out / f"{row.name}.log", "w") as log:
        for attempt in range(1, row.repeat + 1):
            process = subprocess.run(
                [sys.executable, *row.argv], cwd=ROOT, env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            )
            log.write(process.stdout)
            if process.returncode:
                tail = "\n".join(process.stdout.splitlines()[-15:])
                return (
                    f"exit status {process.returncode} on run {attempt} of "
                    f"{row.repeat} ({OUT}/{row.name}.log):\n{tail}"
                )
    if not row.expect:
        return None
    try:
        if report_path is None:
            report = json.loads(process.stdout.splitlines()[-1])
        else:
            report = json.loads(report_path.read_text())
    except (OSError, ValueError, IndexError) as exc:
        where = report_path or "the last stdout line"
        return f"no JSON report at {where} ({type(exc).__name__})"
    failures = (_failure(report, expectation) for expectation in row.expect)
    return next(filter(None, failures), None)


def run(names=(), table=TABLE):
    """Run the named rows of *table* (all when none are named) in table
    order; 0 when every one holds, 1 otherwise, 2 for an unknown name."""
    known = [row.name for row in table]
    unknown = [name for name in names if name not in known]
    if unknown:
        print(
            f"selfcheck: no row named {', '.join(unknown)} "
            f"(rows: {', '.join(known)})",
            file=sys.stderr,
        )
        return 2
    status = 0
    for row in table:
        if names and row.name not in names:
            continue
        started = time.perf_counter()
        failure = run_row(row)
        seconds = time.perf_counter() - started
        print(
            f"{'ok' if failure is None else 'FAIL':4s} {row.name:22s} "
            f"{seconds:6.1f} s",
            flush=True,
        )
        if failure is not None:
            status = 1
            print(f"selfcheck FAILED: row {row.name}: {failure}", file=sys.stderr)
    return status
