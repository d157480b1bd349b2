"""The ledger benchmark: one command per workload, every metric by name.

    python3 benchmarks/ledger/run.py --workload compile-cold --seed 1 \\
        --seconds 16 --trace 0

Prints a human-readable report, then — as the last line of standard
output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics measured with
no recorder attached; ``--trace 1`` alternates untraced and traced
batches and reports the per-layer metrics from the recorded spans.
See README.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import os
import sys
import time

_STARTED = time.time()

from spec import END_TO_END, PER_LAYER, PINNED_ENV, ROOT, WORKLOADS  # noqa: E402

# Pin the environment before numpy loads: thread counts are read when
# OpenBLAS initialises and the hash seed when the interpreter starts, so
# a mismatch means starting over in a corrected environment.
if __name__ == "__main__" and any(
    os.environ.get(key) != value for key, value in PINNED_ENV.items()
):
    os.environ.update(PINNED_ENV)
    os.environ["LEDGER_STARTED"] = repr(_STARTED)
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse  # noqa: E402
from collections import defaultdict  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"ledger: no stack to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402  (numpy must load in the pinned environment)


def load_workload(name):
    """The module implementing *name*, and extra ``prepare`` arguments."""
    import compile_cold
    import execute_steady
    import serve

    return {
        "compile-cold": (compile_cold, ()),
        "execute-steady": (execute_steady, ()),
        "serve-thread": (serve, ("thread",)),
        "serve-process": (serve, ("process",)),
    }[name]


def hook(module, name):
    """An optional workload hook; absent means nothing to do."""
    return getattr(module, name, lambda *args: None)


def set_up(module, extra, seed, work_dir, samples, calibrator):
    """Run the workload's set-up ``SETUP_REPEATS`` times; keep the last.

    Returns ``(context, raw seconds of each repeat)``; series the
    workload records during set-up go to *samples*.
    """
    seconds = []
    context = None
    calibrator.sample(harness.CAL_RUNS_PER_SETUP)
    for _ in range(module.SETUP_REPEATS):
        if context is not None:
            hook(module, "discard")(context)
            context = None
            gc.collect()
        start = time.perf_counter()
        context = module.prepare(seed, work_dir, samples, *extra)
        seconds.append(time.perf_counter() - start)
        calibrator.sample(harness.CAL_RUNS_PER_SETUP)
    return context, seconds


def measure(module, context, seconds, trace, series, calibrator, recorder):
    """Batches until *seconds* of wall time are used; returns ops done.

    ``cal()`` runs are taken between batches, while the system under
    test idles. Traced runs alternate untraced and traced batches
    (``series[False]`` / ``series[True]``), so both see the same host
    conditions and their ratio is the tracing overhead.
    """
    attempted = 0
    batches = 0
    start = time.perf_counter()
    while True:
        traced = trace and batches % 2 == 1
        attempted += module.run_batch(
            context, series[traced], recorder if traced else None
        )
        calibrator.sample(harness.CAL_RUNS_PER_BATCH)
        batches += 1
        elapsed = time.perf_counter() - start
        # Stop when the next batch would overshoot by more than half of
        # itself; a traced run needs at least one batch of each kind.
        if elapsed + 0.5 * elapsed / batches > seconds and batches >= 1 + trace:
            return attempted


def run(workload, seed, seconds, trace, spans_out=None):
    module, extra = load_workload(workload)
    import_seconds = time.time() - float(
        os.environ.get("LEDGER_STARTED", _STARTED)
    )
    calibrator = harness.Calibrator()
    recorder = harness.SpanRecorder()
    #: Raw seconds by series name, of untraced and of traced batches.
    raw = {False: defaultdict(list), True: defaultdict(list)}
    work_dir = HERE / ".work" / str(os.getpid())
    work_dir.mkdir(parents=True)
    try:
        context, setups = set_up(
            module, extra, seed, work_dir, raw[False], calibrator
        )
        attempted = measure(
            module, context, seconds, trace, raw, calibrator, recorder
        )
        if trace:
            hook(module, "trace_extras")(context, raw[False])
        hook(module, "close")(context)
        rss = harness.peak_rss_mb()
        failed = module.verify(context)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    scale = calibrator.scale()
    series = harness.scaled(raw[False], scale)
    end_to_end = module.end_to_end(series)
    setup_raw = import_seconds + harness.median(setups)
    end_to_end["setup_s"] = setup_raw * scale
    end_to_end["peak_rss_mb"] = rss
    end_to_end_raw = module.end_to_end(raw[False])
    end_to_end_raw["setup_s"] = setup_raw
    report = {
        "workload": workload,
        "environment": harness.environment(seed, ROOT, PINNED_ENV),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "end_to_end_raw": end_to_end_raw,
        "setup": {"import_s": import_seconds, "repeats_s": setups},
        "cal_ms": harness.median(calibrator.samples),
        "orders": context.orders,
    }
    if trace:
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(
            module.per_layer(context, series, recorder.by_name(scale))
        )
        traced = module.end_to_end(
            {**series, **harness.scaled(raw[True], scale)}
        )
        layers["harness.cal_ms_median"] = harness.median(calibrator.samples)
        layers["harness.cal_spread"] = harness.spread(calibrator.samples)
        layers["harness.trace_overhead_share"] = (
            traced["typical_ms"] / end_to_end["typical_ms"] - 1.0
        )
        layers["harness.ops"] = attempted
        unknown = sorted(set(layers) - set(PER_LAYER))
        if unknown:
            raise KeyError(f"per-layer metrics not in BENCHMARK.json: {unknown}")
        report["per_layer"] = layers
        if spans_out:
            pathlib.Path(spans_out).write_text(json.dumps(recorder.spans))
    return report


def render(report):
    lines = [
        f"ledger: {report['workload']}  seed {report['environment']['seed']}  "
        f"{report['attempted']} ops, {report['failed']} failed",
        "environment: " + json.dumps(report["environment"], sort_keys=True),
        "setup: " + json.dumps(report["setup"]),
        f"cal() median: {report['cal_ms']:.3f} ms",
        f"  {'end-to-end metric':34s} {'calibrated':>14s} {'raw':>14s}  unit",
    ]
    for name, value in report["end_to_end"].items():
        raw = report["end_to_end_raw"].get(name)
        lines.append(
            f"  {name:34s} {value:14.4f} "
            f"{'-' if raw is None else format(raw, '14.4f'):>14}  "
            f"{END_TO_END[name]['unit']}"
        )
    if "per_layer" in report:
        lines.append(f"  {'per-layer metric':50s} {'value':>14s}  unit")
        for name, value in report["per_layer"].items():
            lines.append(f"  {name:50s} {value:14.4f}  {PER_LAYER[name]}")
    return "\n".join(lines)


def result_line(report, trace):
    """The contract's last line: correct / attempted / failed / metrics."""
    if trace:
        metrics = {
            name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in report["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": report["end_to_end"][name], "unit": spec["unit"]}
            for name, spec in END_TO_END.items()
        }
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full report as JSON here")
    parser.add_argument("--spans-out", help="write the traced spans here")
    args = parser.parse_args(argv)
    report = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.spans_out,
    )
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(report, indent=1))
    print(render(report))
    print(result_line(report, bool(args.trace)))


if __name__ == "__main__":
    main()
