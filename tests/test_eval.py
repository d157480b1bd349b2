"""Tests for the evaluation harness, figures, and tables."""

import pytest

from repro.eval import Harness, all_tables, geomean
from repro.eval.optimal import percent_of_optimal
from repro.workloads import END_TO_END, SINGLE_DOMAIN

#: A cheap-but-representative subset: one workload per domain.
SUBSET = ["MobileRobot", "Wiki-BFS", "ElecUse", "FFT-8192", "MobileNet"]


@pytest.fixture(scope="module")
def harness():
    return Harness()


@pytest.fixture(scope="module")
def runs(harness):
    return {name: harness.run(name) for name in SUBSET}


class TestHarnessRuns:
    def test_all_measurements_positive(self, runs):
        for name, run in runs.items():
            for stats in (run.accel, run.cpu, run.titan, run.jetson, run.expert):
                assert stats.seconds > 0, name
                assert stats.energy_j > 0, name

    def test_run_is_cached(self, harness):
        assert harness.run("MobileRobot") is harness.run("MobileRobot")

    def test_accelerator_names_match_table_v(self, runs):
        assert runs["MobileRobot"].accelerator_names["RBT"] == "robox"
        assert runs["Wiki-BFS"].accelerator_names["GA"] == "graphicionado"
        assert runs["ElecUse"].accelerator_names["DA"] == "tabla"
        assert runs["FFT-8192"].accelerator_names["DSP"] == "deco"
        assert runs["MobileNet"].accelerator_names["DL"] == "vta"


class TestFigure9Shape:
    def test_expert_never_slower(self, runs):
        for name, run in runs.items():
            assert run.expert.seconds <= run.accel.seconds * 1.0001, name

    def test_percent_of_optimal_helper(self):
        from repro.hw.cost import PerfStats

        assert percent_of_optimal(
            PerfStats(seconds=2.0), PerfStats(seconds=1.0)
        ) == pytest.approx(50.0)


class TestTables:
    @pytest.fixture(scope="class")
    def tables(self):
        return all_tables()

    def test_all_tables_render(self, tables):
        assert set(tables) == {f"table{i}" for i in range(1, 7)}
        for table in tables.values():
            text = table.render()
            assert table.caption in text

    def test_table1_keywords(self, tables):
        keywords = {row[1] for row in tables["table1"].rows}
        assert "input" in keywords and "index" in keywords

    def test_table2_polymath_covers_five_domains(self, tables):
        table2 = tables["table2"]
        header = table2.columns
        polymath_column = header.index("PolyMath")
        supported = [row[polymath_column] for row in table2.rows]
        assert supported.count("yes") == 5
        genomics_row = next(row for row in table2.rows if row[0] == "Genomics")
        assert genomics_row[polymath_column] == "no"
        gpp = header.index("General-Purpose Processors")
        assert [row[gpp] for row in table2.rows].count("yes") == 7

    def test_table3_lists_all_benchmarks(self, tables):
        table3 = tables["table3"]
        names = {row[1] for row in table3.rows}
        assert names == set(SINGLE_DOMAIN)
        # PMLang programs stay compact: every workload under ~200 LOC, and
        # the formula-style kernels (graph/DSP) under ~25.
        loc = {row[1]: row[4] for row in table3.rows}
        assert all(lines < 200 for lines in loc.values())
        assert loc["Twitter-BFS"] < 25 and loc["FFT-8192"] < 25

    def test_table4_lists_end_to_end(self, tables):
        table4 = tables["table4"]
        assert {row[0] for row in table4.rows} == set(END_TO_END)
        brain = next(row for row in table4.rows if row[0] == "BrainStimul")
        assert set(brain[2].split("+")) == {"DSP", "DA", "RBT"}

    def test_table5_accelerator_map(self, tables):
        mapping = {row[0]: row[1] for row in tables["table5"].rows}
        names = {"RBT": "ROBOX", "GA": "GRAPHICIONADO", "DA": "TABLA", "DSP": "DECO", "DL": "VTA"}
        for domain, accelerator in names.items():
            assert accelerator in mapping[domain], domain

    def test_table6_platform_count(self, tables):
        table6 = tables["table6"]
        assert len(table6.rows) == 9  # CPU + 2 GPUs + 6 accelerators

    def test_table6_hardware_specs(self, tables):
        by_name = {row[0]: row for row in tables["table6"].rows}
        assert by_name["Xeon E-2176G"][2] == 80.0
        assert by_name["Titan Xp"][2] == 250.0
        assert by_name["ROBOX (ASIC)"][1] == 1.0  # GHz


class TestGeomean:
    def test_geomean_basic(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_ignores_nonpositive(self):
        assert geomean([2.0, 0.0, -1.0]) == pytest.approx(2.0)

    def test_geomean_empty(self):
        assert geomean([]) == 0.0


class TestValidatedHarness:
    def test_validate_mode_checks_functionally(self):
        validated = Harness(validate=True)
        run = validated.run("MobileRobot")
        assert run.functional_ok is True
        assert run.functional_error < 1e-9
