"""Tests for the command-line interface."""

import argparse
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import _mismatches, build_parser, main


@pytest.fixture()
def mpc_file(tmp_path, mpc_source):
    path = tmp_path / "mpc.pm"
    path.write_text(mpc_source)
    return str(path)


class TestWorkloadsCommand:
    def test_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "MobileRobot" in out
        assert "BrainStimul" in out


class TestCheckCommand:
    def test_single_workload_passes(self, capsys):
        assert main(["check", "MobileRobot"]) == 0
        assert "ok" in capsys.readouterr().out


class TestCompileCommand:
    def test_compile_prints_programs(self, capsys, mpc_file):
        assert main(["compile", mpc_file, "--domain", "RBT"]) == 0
        out = capsys.readouterr().out
        assert "RBT -> robox" in out
        assert "matvec" in out


class TestStatsCommand:
    def test_stats_reports_stages_and_cache(self, capsys, mpc_file):
        assert main(["stats", mpc_file, "--domain", "RBT"]) == 0
        out = capsys.readouterr().out
        for stage in ("parse", "semantic", "srdfg-build", "optimize",
                      "lower", "translate"):
            assert stage in out
        # Default --repeat 2: the second compile hits the artifact cache.
        assert "cache-hit" in out
        assert "1 hit(s) / 1 miss(es)" in out
        assert "nodes" in out and "edges" in out
        assert "diagnostics:" in out

    def test_stats_single_compile_never_hits(self, capsys, mpc_file):
        assert main(["stats", mpc_file, "--domain", "RBT", "--repeat", "1"]) == 0
        out = capsys.readouterr().out
        assert "cache-hit" not in out
        assert "0 hit(s) / 1 miss(es)" in out


class TestShowCommand:
    def test_text_rendering(self, capsys, mpc_file):
        assert main(["show", mpc_file, "--domain", "RBT"]) == 0
        out = capsys.readouterr().out
        assert "srDFG 'main'" in out
        assert "mvmul" in out

    def test_dot_rendering(self, capsys, mpc_file):
        assert main(["show", mpc_file, "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestTablesAndFigures:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        for table in ("Table I", "Table II", "Table III", "Table IV",
                      "Table V", "Table VI"):
            assert table in out

    def test_unknown_figure_rejected(self, capsys):
        assert main(["figures", "fig99"]) == 2

    def test_single_figure(self, capsys):
        assert main(["figures", "fig13"]) == 0
        assert "Figure 13" in capsys.readouterr().out


class TestProfileAndDse:
    def test_profile_command(self, capsys, mpc_file):
        assert main(["profile", mpc_file, "--domain", "RBT", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "total accelerator time" in out

    def test_dse_command(self, capsys):
        assert main(
            ["dse", "MobileRobot", "robox", "--scales", "1,2",
             "--freqs-mhz", "500,1000"]
        ) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out

    def test_dse_unknown_accelerator(self, capsys):
        assert main(["dse", "MobileRobot", "tpu"]) == 2

    def test_save_ir_command(self, capsys, mpc_file, tmp_path):
        out_path = tmp_path / "ir.json"
        assert main(
            ["save-ir", mpc_file, "--domain", "RBT", "--out", str(out_path)]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["format"] == "polymath-accelerator-ir"


class TestServeSessions:
    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_session_mode_compares_against_one_shot(
        self, capsys, tmp_path, pool
    ):
        out = tmp_path / "serve.json"
        assert main(
            ["serve", "--sessions", "1", "--session-steps", "6",
             "--workloads", "MobileRobot", "--assert-plan-reuse",
             "--assert-conservation", "--pool", pool, "--json", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "sessions: 1 opened" in text
        assert "bit-identity ok" in text

        payload = json.loads(out.read_text())
        # Session mode honours the server flags trace mode does.
        assert payload["pool"] == pool
        compare = payload["session_compare"]
        assert compare["bit_identical"] is True
        assert compare["steps"] == 6
        assert payload["sessions"][0]["steps"] == 6

    def test_session_mode_rejects_bad_dims(self, capsys):
        assert main(
            ["serve", "--sessions", "1", "--workloads", "MobileRobot",
             "--dims", "nonsense"]
        ) == 2
        assert "bad --dims" in capsys.readouterr().err

    def test_fuzz_dim_variants_tag_matrix_rows(self, capsys):
        assert main(
            ["fuzz", "--programs", "2", "--campaigns", "none",
             "--dim-variants", "2", "--json", "none", "--no-minimize"]
        ) == 0
        assert "2 dim variant(s)" in capsys.readouterr().out


#: ``{subcommand: sorted((option strings or dest, default, choices,
#: nargs, type name, action class))}`` of ``build_parser()``: a changed
#: flag, default or choice fails here, not only a missing one.
PARSER_SURFACE = {
    "workloads": [
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
    ],
    "check": [
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
        (("names",), None, None, "*", None, "_StoreAction"),
    ],
    "compile": [
        (("--domain",), None, None, None, None, "_StoreAction"),
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
        (("source",), None, None, None, None, "_StoreAction"),
    ],
    "stats": [
        (("--assert-plan-reuse",), False, None, 0, None, "_StoreTrueAction"),
        (("--domain",), None, None, None, None, "_StoreAction"),
        (("--execute",), 0, None, None, "int", "_StoreAction"),
        (("--json",), None, None, None, None, "_StoreAction"),
        (("--precision",), "f64", ("f64", "f32"), None, None, "_StoreAction"),
        (("--repeat",), 2, None, None, "int", "_StoreAction"),
        (("--workload",), None, None, None, None, "_StoreAction"),
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
        (("source",), None, None, "?", None, "_StoreAction"),
    ],
    "serve": [
        (("--assert-conservation",), False, None, 0, None, "_StoreTrueAction"),
        (("--assert-plan-reuse",), False, None, 0, None, "_StoreTrueAction"),
        (("--assert-speedup",), None, None, None, "float", "_StoreAction"),
        (("--breaker-threshold",), 5, None, None, "int", "_StoreAction"),
        (("--bucket-policy",), "exact", None, None, None, "_StoreAction"),
        (("--cache-dir",), None, None, None, None, "_StoreAction"),
        (("--compare-serial",), False, None, 0, None, "_StoreTrueAction"),
        (("--deadline",), None, None, None, "float", "_StoreAction"),
        (("--dims",), None, None, None, None, "_StoreAction"),
        (("--fault-rate",), 0.0, None, None, "float", "_StoreAction"),
        (("--json",), None, None, None, None, "_StoreAction"),
        (("--max-steps",), 4, None, None, "int", "_StoreAction"),
        (("--pool",), "thread", ("thread", "process"), None, None, "_StoreAction"),
        (("--precision",), "f64", ("f64", "f32"), None, None, "_StoreAction"),
        (("--queue-depth",), 16, None, None, "int", "_StoreAction"),
        (("--requests",), 32, None, None, "int", "_StoreAction"),
        (("--seed",), 0, None, None, "int", "_StoreAction"),
        (("--session-steps",), 50, None, None, "int", "_StoreAction"),
        (("--sessions",), 0, None, None, "int", "_StoreAction"),
        (("--trace",), None, None, None, None, "_StoreAction"),
        (("--workers",), 4, None, None, "int", "_StoreAction"),
        (("--workloads",), "MobileRobot,ElecUse,FFT-8192,DCT-1024", None, None, None, "_StoreAction"),
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
    ],
    "selfcheck": [
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
        (("rows",), None, None, "*", None, "_StoreAction"),
    ],
    "rewrite": [
        (("--explain",), False, None, 0, None, "_StoreTrueAction"),
        (("--fuse",), False, None, 0, None, "_StoreTrueAction"),
        (("--json",), None, None, None, None, "_StoreAction"),
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
        (("names",), None, None, "*", None, "_StoreAction"),
    ],
    "profile": [
        (("--domain",), None, None, None, None, "_StoreAction"),
        (("--top",), 10, None, None, "int", "_StoreAction"),
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
        (("source",), None, None, None, None, "_StoreAction"),
    ],
    "dse": [
        (("--freqs-mhz",), "100,150,300", None, None, None, "_StoreAction"),
        (("--scales",), "0.5,1,2", None, None, None, "_StoreAction"),
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
        (("accelerator",), None, None, None, None, "_StoreAction"),
        (("workload",), None, None, None, None, "_StoreAction"),
    ],
    "save-ir": [
        (("--domain",), None, None, None, None, "_StoreAction"),
        (("--out",), None, None, None, None, "_StoreAction"),
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
        (("source",), None, None, None, None, "_StoreAction"),
    ],
    "show": [
        (("--depth",), None, None, None, "int", "_StoreAction"),
        (("--domain",), None, None, None, None, "_StoreAction"),
        (("--dot",), False, None, 0, None, "_StoreTrueAction"),
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
        (("source",), None, None, None, None, "_StoreAction"),
    ],
    "tables": [
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
    ],
    "figures": [
        (("--json",), None, None, None, None, "_StoreAction"),
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
        (("ids",), None, None, "*", None, "_StoreAction"),
    ],
    "report": [
        (("--validate",), False, None, 0, None, "_StoreTrueAction"),
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
    ],
    "chaos": [
        (("--compare",), False, None, 0, None, "_StoreTrueAction"),
        (("--inject",), [], None, None, None, "_AppendAction"),
        (("--json",), None, None, None, None, "_StoreAction"),
        (("--no-fallback",), False, None, 0, None, "_StoreTrueAction"),
        (("--precision",), "f64", ("f64", "f32"), None, None, "_StoreAction"),
        (("--quiet",), False, None, 0, None, "_StoreTrueAction"),
        (("--retries",), 3, None, None, "int", "_StoreAction"),
        (("--seed",), 0, None, None, "int", "_StoreAction"),
        (("--steps",), 1, None, None, "int", "_StoreAction"),
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
        (("workload",), "BrainStimul", None, "?", None, "_StoreAction"),
    ],
    "fuzz": [
        (("--campaigns",), "all", ("all", "smoke", "none"), None, None, "_StoreAction"),
        (("--dim-variants",), 1, None, None, "int", "_StoreAction"),
        (("--json",), "results/BENCH_resilience.json", None, None, None, "_StoreAction"),
        (("--minimize", "--no-minimize"), True, None, 0, None, "BooleanOptionalAction"),
        (("--programs",), 25, None, None, "int", "_StoreAction"),
        (("--seed",), 0, None, None, "int", "_StoreAction"),
        (("--verbose",), False, None, 0, None, "_StoreTrueAction"),
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
    ],
    "codegen": [
        (("--compare",), False, None, 0, None, "_StoreTrueAction"),
        (("--dump-source",), None, None, None, None, "_StoreAction"),
        (("--json",), None, None, None, None, "_StoreAction"),
        (("--statement-ms",), False, None, 0, None, "_StoreTrueAction"),
        (("--steps",), 3, None, None, "int", "_StoreAction"),
        (("--workload",), None, None, None, None, "_AppendAction"),
        (("-h", "--help"), "==SUPPRESS==", None, 0, None, "_HelpAction"),
    ],
}


def _surface(parser):
    sub = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: sorted(
            (
                tuple(action.option_strings) or (action.dest,),
                action.default,
                None if action.choices is None else tuple(action.choices),
                action.nargs,
                getattr(action.type, "__name__", None),
                type(action).__name__,
            )
            for action in subparser._actions
        )
        for name, subparser in sub.choices.items()
    }


def test_parser_surface_is_pinned():
    surface = _surface(build_parser())
    assert list(surface) == list(PARSER_SURFACE)
    assert surface == PARSER_SURFACE


def _result(**outputs):
    return SimpleNamespace(outputs=outputs, state={})


@pytest.mark.parametrize("reference, result, expected", [
    (_result(y=np.array([0.0])), _result(y=np.array([-0.0])), ["output y"]),
    (_result(y=np.array([np.nan])), _result(y=np.array([np.nan])), []),
    (_result(y=np.zeros(2)), _result(y=np.zeros(2, np.float32)), ["output y"]),
    (_result(y=np.zeros(2)), _result(y=np.zeros((1, 2))), ["output y"]),
    (_result(y=np.zeros(2)), _result(), ["output y"]),
    (
        SimpleNamespace(outputs={}, state={"s": np.ones(3)}),
        SimpleNamespace(outputs={}, state={"s": np.ones(3) * 2}),
        ["state s"],
    ),
])
def test_mismatches_compare_bits(reference, result, expected):
    assert _mismatches(reference, result) == expected


def test_chaos_compares_every_step_and_writes_json_like_the_rest(capsys, tmp_path):
    out = tmp_path / "missing" / "chaos.json"
    assert main(
        ["chaos", "BrainStimul", "--inject", "crash@DA", "--seed", "7",
         "--compare", "--quiet", "--precision", "f32", "--steps", "3",
         "--json", str(out)]
    ) == 0
    text = capsys.readouterr().out
    assert "faulty vs fault-free outputs: bit-for-bit identical" in text
    assert f"wrote JSON report to {out}" in text
    keys = list(json.loads(out.read_text()))
    assert keys == sorted(keys)
