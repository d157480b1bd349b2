"""The smoke table's own tests: real rows, through the real runner."""

import pytest

from repro import selfcheck
from repro.cli import main
from repro.selfcheck import OUT, Row


def test_named_rows_run_in_table_order(capsys):
    # `trace` is also the only check of what `serve --trace` took over
    # from the deleted `repro trace`: span counts per layer in --json.
    assert main(["selfcheck", "trace", "plan-reuse", "rewrite"]) == 0
    verdicts = [line.split()[:2] for line in capsys.readouterr().out.splitlines()]
    assert verdicts == [["ok", "rewrite"], ["ok", "plan-reuse"], ["ok", "trace"]]
    for left_behind in ("rewrite.json", "plan-reuse.log", "trace.json"):
        assert (selfcheck.ROOT / OUT / left_behind).exists()


def test_a_false_expectation_names_the_row_and_the_json_path(capsys):
    false = Row(
        "rewrite-false",
        f"-m repro rewrite MobileRobot --json {OUT}/rewrite-false.json",
        expect=(
            (("counters", "cse.sweeps"), ">=", 1),
            (("counters", "cse.sweeps"), "==", -1),
        ),
    )
    assert selfcheck.run(table=(false,)) == 1
    captured = capsys.readouterr()
    assert captured.out.split()[:2] == ["FAIL", "rewrite-false"]
    assert "row rewrite-false: counters.cse.sweeps == -1 does not hold" in captured.err


def test_report_on_the_last_stdout_line(capsys):
    argv = """-c print('noise');print('{"correct":true,"built":2,"kept":3}')"""

    def built_is_kept(report):
        """built == kept"""
        return report["built"] == report["kept"]

    cases = {
        ((("correct",), "is", True),): None,
        ((("failed",), "==", 0),): "failed is missing from the report",
        (built_is_kept,): "built == kept does not hold",
    }
    for expect, failure in cases.items():
        assert selfcheck.run_row(Row("stdout", argv, expect)) == failure
    # A command that fails is the failure, whatever it printed.
    failed = selfcheck.run_row(Row("stdout", "-c raise(SystemExit(3))"))
    assert failed.startswith("exit status 3 on run 1 of 1")


def test_a_misspelt_row_runs_nothing(capsys):
    assert main(["selfcheck", "rewrit"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no row named rewrit (rows: rewrite, figures," in captured.err


def test_trace_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["trace", "--assert-layers"])
    assert "invalid choice: 'trace'" in capsys.readouterr().err
