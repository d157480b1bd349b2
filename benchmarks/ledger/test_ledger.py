"""Self-test of the ledger benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

A smoke-sized pass of all four workloads through the real command line:
output schema, metric names and count limits of the contract, the same
seed giving the same program order and request trace, and every metric
marked exact bit-equal across two passes.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from spec import (  # noqa: E402
    END_TO_END, EXACT, PER_LAYER, PINNED_ENV, SPEC, WORKLOADS,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMOKE_SECONDS = "1"


def run_ledger(workload, trace, out):
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", SMOKE_SECONDS, "--trace", str(trace),
            "--out", str(out),
        ],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), json.loads(out.read_text())


@pytest.fixture(scope="module", params=WORKLOADS)
def passes(request, tmp_path_factory):
    """One untraced and two traced smoke runs of one workload."""
    tmp = tmp_path_factory.mktemp(request.param)
    return {
        "untraced": run_ledger(request.param, 0, tmp / "u.json"),
        "traced": [
            run_ledger(request.param, 1, tmp / f"t{i}.json") for i in (1, 2)
        ],
    }


def test_contract_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert END_TO_END["setup_s"]["unit"] == "s"
    assert END_TO_END["setup_s"]["better"] == "lower"
    assert EXACT <= set(PER_LAYER)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert not any(
        path.name.startswith("bench_") for path in HERE.glob("*.py")
    ), "bench_*.py would be collected by the old pytest-benchmark suite"


def check_result(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))


def test_untraced_run_reports_every_end_to_end_metric(passes):
    result, report = passes["untraced"]
    check_result(result, END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == END_TO_END[name]["unit"]
        assert entry["value"] > 0, f"{name} must never be 0"
    assert report["environment"]["pinned"] == PINNED_ENV


def test_traced_run_reports_every_per_layer_metric(passes):
    for result, _ in passes["traced"]:
        check_result(result, PER_LAYER)


def test_same_seed_same_order(passes):
    """Program order of each sweep / request trace of each round."""
    first, second = (report["orders"] for _, report in passes["traced"])
    shared = min(len(first), len(second))
    assert shared >= 1
    assert first[:shared] == second[:shared]


def test_exact_metrics_repeat(passes):
    first, second = (report["per_layer"] for _, report in passes["traced"])
    for name in EXACT:
        assert first[name] == second[name], name


def test_compare_verdicts():
    lower = dict(better="lower", bound=0.10)
    steady = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(steady, steady, **lower)[0] == "within-bound"
    assert compare.verdict(steady, [12.0] * 4, **lower)[0] == "worse"
    assert compare.verdict(steady, [9.0] * 4, **lower)[0] == "better"
    noisy = [8.0, 10.0, 12.0, 14.0]
    assert compare.verdict(noisy, noisy, **lower)[0] == "unresolved"
    higher = dict(better="higher", bound=0.10)
    assert compare.verdict(steady, [8.0] * 4, **higher)[0] == "worse"
    assert compare.verdict(steady, [12.0] * 4, **higher)[0] == "better"
