"""Tests for the experiment drivers at tiny scale.

The heavy campaign drivers run here with 1-2 inputs and few locations —
enough to validate wiring, determinism and the aggregation shapes; the
full reproductions live in ``benchmarks/``.
"""

import pytest

from repro.emulation.operators import ASSIGNMENT_CLASS, CHECKING_CLASS
from repro.experiments import (
    CATEGORY_A,
    CATEGORY_B,
    CATEGORY_C,
    ExperimentConfig,
    PAPER_TABLE4,
    Section6Results,
    fig9,
    fig10,
    run_metric_guidance,
    run_section6,
    run_table2,
    run_table3,
    run_table4,
)
from repro.swifi.outcomes import MODE_ORDER


class TestConfig:
    def test_defaults_are_scaled_down(self):
        config = ExperimentConfig()
        assert config.campaign_inputs < 300
        assert config.table1_runs_camelot < 10_000

    def test_paper_scale(self):
        config = ExperimentConfig.paper_scale()
        assert config.campaign_inputs == 300
        assert config.location_fraction == 1.0

    def test_chosen_locations_scale_with_paper_counts(self):
        config = ExperimentConfig(location_fraction=1.0, min_locations=1)
        assert config.chosen_locations("SOR", "assignment") == 12
        assert config.chosen_locations("JB.team6", "checking") == 5

    def test_chosen_locations_floor(self):
        config = ExperimentConfig(location_fraction=0.01, min_locations=2)
        assert config.chosen_locations("JB.team6", "assignment") == 2

    def test_scaled(self):
        config = ExperimentConfig().scaled(0.5)
        assert config.campaign_inputs <= ExperimentConfig().campaign_inputs

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "77")
        config = ExperimentConfig.from_env()
        assert config.seed == 77


class TestStaticTables:
    def test_table2_rows(self):
        result = run_table2()
        assert len(result.rows) == 8
        sor_row = next(r for r in result.rows if r.program == "SOR")
        assert sor_row.num_cores == 4
        assert "Table 2" in result.render()

    def test_table3_covers_both_classes(self):
        result = run_table3()
        classes = {row[0] for row in result.rows}
        assert classes == {"assignment", "checking"}
        assert len(result.rows) == 18

    def test_table4_counts(self):
        config = ExperimentConfig.tiny()
        result = run_table4(config)
        assert len(result.rows) == 16  # 8 programs x 2 classes
        for row in result.rows:
            assert row.chosen <= row.possible
            assert row.injected == row.faults * row.runs_per_fault
            assert row.paper_injected == PAPER_TABLE4[row.program][row.klass][2]
        assert result.total_injected() > 0
        assert "108,600" in result.render()

    def test_table4_deterministic(self):
        config = ExperimentConfig.tiny()
        first = run_table4(config)
        second = run_table4(config)
        assert [(r.program, r.klass, r.faults) for r in first.rows] == [
            (r.program, r.klass, r.faults) for r in second.rows
        ]


@pytest.fixture(scope="module")
def small_section6():
    config = ExperimentConfig.tiny()
    return run_section6(config, programs=["JB.team6", "JB.team11"])


class TestSection6:
    def test_campaign_shape(self, small_section6):
        assert len(small_section6.campaigns) == 4  # 2 programs x 2 classes
        assert small_section6.total_runs > 0

    def test_series_by_program_sums_to_100(self, small_section6):
        series = small_section6.series_by_program(ASSIGNMENT_CLASS)
        for distribution in series.values():
            assert sum(distribution.values()) == pytest.approx(100.0)

    def test_series_by_error_label(self, small_section6):
        series = small_section6.series_by_error_label(ASSIGNMENT_CLASS)
        assert set(series) <= {"value +1", "value -1", "no assign", "random"}
        assert series

    def test_figures_from_results(self, small_section6):
        for figure in (fig9(small_section6), fig10(small_section6)):
            assert figure.series
            text = figure.render()
            assert figure.figure in text

    def test_records_filter(self, small_section6):
        only_jb6 = small_section6.records(program="JB.team6")
        assert only_jb6
        assert all(r.meta["program"] == "JB.team6" for r in only_jb6)

    def test_activated_fraction_bounds(self, small_section6):
        fraction = small_section6.activated_fraction()
        assert 0.0 <= fraction <= 1.0

    def test_json_roundtrip(self, small_section6, tmp_path):
        path = tmp_path / "s6.json"
        small_section6.to_json(str(path))
        loaded = Section6Results.from_json(str(path))
        assert loaded.total_runs == small_section6.total_runs
        assert loaded.series_by_program(CHECKING_CLASS) == (
            small_section6.series_by_program(CHECKING_CLASS)
        )


class TestAblations:
    def test_metric_guidance_table(self):
        result = run_metric_guidance(total_faults=50)
        for allocation in result.allocations.values():
            assert sum(allocation.values()) == 50
        assert "Ablation A1" in result.render()

    def test_rank_correlation_bounds(self):
        result = run_metric_guidance(total_faults=50)
        rho = result.rank_correlation("mccabe", "sites")
        assert -1.0 <= rho <= 1.0
        assert result.rank_correlation("loc", "loc") == pytest.approx(1.0)


class TestSec5Categories:
    def test_category_labels(self):
        assert "A" in CATEGORY_A and "B" in CATEGORY_B and "C" in CATEGORY_C

    def test_mode_order_unchanged(self):
        assert [m.value for m in MODE_ORDER] == ["correct", "incorrect", "hang", "crash"]


class TestTable1Driver:
    def test_tiny_run_shape(self):
        from repro.experiments import run_table1

        result = run_table1(ExperimentConfig.tiny())
        assert [row.program for row in result.rows] == [
            "C.team1", "C.team2", "C.team3", "C.team4", "C.team5",
            "JB.team6", "JB.team7",
        ]
        for row in result.rows:
            assert row.wrong + row.hangs + row.crashes <= row.runs
            low, high = row.confidence_interval
            assert 0.0 <= low <= high <= 100.0
        # The paper's strongest Table-1 claim, at any scale: no hangs, no
        # crashes from real software faults.
        assert result.total_hangs_and_crashes == 0
        assert "Table 1" in result.render()

    def test_seed_is_the_same_in_every_process(self):
        # hash() of a str is salted per process (PYTHONHASHSEED); the
        # per-program seed offset must not be.
        import os
        import subprocess
        import sys

        import repro

        script = ("from repro.experiments.table1 import table1_seed; "
                  "print([table1_seed(0, name) for name in "
                  "('C.team1', 'C.team5', 'JB.team6')])")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        seeds = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            seeds.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert len(seeds) == 1


class TestSec5Driver:
    def test_tiny_run_categories(self):
        from repro.experiments import run_sec5

        result = run_sec5(ExperimentConfig.tiny())
        counts = result.category_counts()
        assert counts[CATEGORY_A] == 2
        assert counts[CATEGORY_B] == 1
        assert counts[CATEGORY_C] == 4
        rendered = result.render()
        assert "44" in rendered  # the field-share headline
