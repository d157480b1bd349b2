"""Tests for the command-line interface."""

import pytest

from repro.cli import main


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
        import json

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

        import json

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
