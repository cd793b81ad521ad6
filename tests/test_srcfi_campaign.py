"""Source-tier campaigns: routing, journal/resume, jobs parity, fuzzing."""

import json
import os

import pytest

from repro.lang import compile_source
from repro.srcfi import SourceLocator, generate_source_error_set
from repro.swifi import (
    CampaignConfig,
    CampaignError,
    CampaignRunner,
    InputCase,
)

SOURCE = """
int in_x;
int out[2];

void main() {
    int i;
    int total = 0;
    for (i = 0; i < 4; i++) {
        total = total + in_x;
    }
    if (total > 8) {
        total = total - 1;
    }
    out[0] = total;
    print_int(total);
    exit(0);
}
"""


@pytest.fixture(scope="module")
def target():
    compiled = compile_source(SOURCE, "srcfi-target")
    cases = [
        InputCase("a", {"in_x": 3}, b"11"),
        InputCase("b", {"in_x": 1}, b"4"),
    ]
    faults = SourceLocator(compiled).source_faults(max_sites_per_operator=2)
    assert faults
    return compiled, cases, faults


class TestRouting:
    def test_tier_source_routes_to_source_campaign(self, target):
        compiled, cases, faults = target
        runner = CampaignRunner(compiled, cases)
        result = runner.run(faults, config=CampaignConfig(tier="source"))
        assert len(result.records) == len(faults) * len(cases)
        # Records keep (fault, case) order and SourceFault identity.
        assert result.records[0].fault_id == faults[0].fault_id
        assert all(record.injections == 1 for record in result.records)

    def test_machine_fault_list_is_rejected(self, target):
        compiled, cases, _ = target
        from repro.swifi.faults import (
            Action,
            Arithmetic,
            MachineFault,
            OpcodeFetch,
            StoreValue,
        )

        machine_fault = MachineFault(
            "mf", OpcodeFetch(0), (Action(StoreValue(), Arithmetic(1)),),
        )
        runner = CampaignRunner(compiled, cases)
        with pytest.raises(CampaignError, match="SourceFault"):
            runner.run([machine_fault], config=CampaignConfig(tier="source"))

    def test_snapshot_and_planner_are_machine_only(self, target):
        compiled, cases, faults = target
        runner = CampaignRunner(compiled, cases)
        with pytest.raises(CampaignError, match="snapshot"):
            runner.run(faults[:1], config=CampaignConfig(
                tier="source", snapshot="auto"))
        with pytest.raises(CampaignError, match="planner"):
            runner.run(faults[:1], config=CampaignConfig(
                tier="source", prune=True))

    def test_bad_tier_rejected_by_config(self):
        with pytest.raises(Exception):
            CampaignConfig(tier="firmware")


class TestParity:
    def test_jobs_and_engine_are_bit_identical(self, target):
        compiled, cases, faults = target
        base = CampaignRunner(compiled, cases).run(
            faults, config=CampaignConfig(tier="source"))
        for kwargs in ({"jobs": 2}, {"engine": "block"}):
            other = CampaignRunner(compiled, cases).run(
                faults, config=CampaignConfig(tier="source", **kwargs))
            assert [r.to_dict() for r in other.records] == \
                [r.to_dict() for r in base.records], kwargs


class TestJournal:
    def test_resume_skips_journaled_runs(self, target, tmp_path):
        compiled, cases, faults = target
        journal_dir = str(tmp_path / "j")
        first = CampaignRunner(compiled, cases).run(
            faults, config=CampaignConfig(
                tier="source", journal_dir=journal_dir))
        runs_file = os.path.join(journal_dir, "runs.jsonl")
        with open(runs_file, encoding="utf-8") as handle:
            journaled_lines = handle.read().splitlines()
        progressed = []
        resumed = CampaignRunner(compiled, cases).run(
            faults,
            config=CampaignConfig(
                tier="source", journal_dir=journal_dir, resume=True),
            progress=lambda done, total: progressed.append((done, total)),
        )
        assert [r.to_dict() for r in resumed.records] == \
            [r.to_dict() for r in first.records]
        # Everything came from the journal: no run was re-executed or
        # re-journaled, and every tick already reports the full campaign.
        with open(runs_file, encoding="utf-8") as handle:
            run_lines = [line for line in handle.read().splitlines()
                         if json.loads(line)["type"] == "run"]
        assert len(run_lines) == len(first.records)
        assert run_lines == [line for line in journaled_lines
                             if json.loads(line)["type"] == "run"]
        assert progressed
        assert all(done == total for done, total in progressed)

    def test_resume_with_a_different_fault_list_is_refused(self, target,
                                                           tmp_path):
        from repro.orchestrator import JournalError

        compiled, cases, faults = target
        journal_dir = str(tmp_path / "j")
        CampaignRunner(compiled, cases).run(
            faults[:-1], config=CampaignConfig(
                tier="source", journal_dir=journal_dir))
        with pytest.raises(JournalError, match="different campaign"):
            CampaignRunner(compiled, cases).run(
                faults, config=CampaignConfig(
                    tier="source", journal_dir=journal_dir, resume=True))

    def test_traced_parallel_campaign_reports_every_record(self, target,
                                                           tmp_path):
        from repro.observability import build_trace_report, render_trace_report

        compiled, cases, faults = target
        journal_dir = str(tmp_path / "j")
        result = CampaignRunner(compiled, cases).run(
            faults, config=CampaignConfig(
                tier="source", jobs=2, trace=True, journal_dir=journal_dir))
        report = build_trace_report(journal_dir)
        assert report.record_count == len(result.records) \
            == len(faults) * len(cases)
        assert report.traced_count == report.record_count
        assert sum(report.merged_stats().paths.values()) == report.record_count
        rendered = render_trace_report(report)
        assert f"journaled runs: {report.record_count}" in rendered
        total_row = next(line for line in rendered.splitlines()
                         if line.split()[:1] == ["total"])
        assert int(total_row.split()[1]) == report.record_count


class TestToolFaults:
    """A mutant that cannot be built is a tool fault, never an outcome."""

    def test_unrealizable_fault_is_a_campaign_error_inline(self, target):
        from repro.srcfi import SourceFault

        compiled, cases, faults = target
        bad = SourceFault(operator="no-such-operator", site_index=0)
        with pytest.raises(CampaignError, match="no-such-operator"):
            CampaignRunner(compiled, cases).run(
                faults[:1] + [bad], config=CampaignConfig(tier="source"))

    def test_unrealizable_fault_is_a_shard_failure_in_the_pool(self, target,
                                                               tmp_path):
        from repro.orchestrator.journal import load_runs_file
        from repro.srcfi import SourceFault

        compiled, cases, faults = target
        bad = SourceFault(operator="no-such-operator", site_index=0)
        good = faults[:3]
        journal_dir = str(tmp_path / "j")
        result = CampaignRunner(compiled, cases).run(
            good + [bad], config=CampaignConfig(
                tier="source", jobs=2, journal_dir=journal_dir))
        serial = CampaignRunner(compiled, cases).run(
            good, config=CampaignConfig(tier="source"))
        assert [r.to_dict() for r in result.records] == \
            [r.to_dict() for r in serial.records]

        state = load_runs_file(os.path.join(journal_dir, "runs.jsonl"))
        bad_runs = set(range(len(good) * len(cases),
                             (len(good) + 1) * len(cases)))
        assert bad.fault_id not in {r.fault_id for r in state.records.values()}
        assert not bad_runs & set(state.records)
        failed = {index for entry in state.past_failures
                  for index in entry["runs"]}
        assert failed == bad_runs
        assert all("no-such-operator" in entry["error"]
                   for entry in state.past_failures)


class TestErrorSets:
    def test_source_error_set_covers_requested_class(self, target):
        import random

        compiled, _, _ = target
        error_set = generate_source_error_set(
            compiled, "algorithm", max_locations=2, rng=random.Random(5))
        assert error_set.klass == "algorithm"
        assert error_set.faults
        assert all(f.meta["klass"] == "algorithm" for f in error_set.faults)

    def test_run_section6_source_tier(self):
        from repro.experiments import ExperimentConfig, run_section6

        results = run_section6(
            ExperimentConfig().tiny(),
            programs=["JB.team6"],
            classes=("checking",),
            tier="source",
        )
        assert results.total_runs > 0
        assert all(
            record.fault_id.startswith("sf:")
            for record in results.records()
        )

    def test_run_section6_rejects_unknown_tier(self):
        from repro.experiments import ExperimentConfig, run_section6

        with pytest.raises(ValueError, match="tier"):
            run_section6(ExperimentConfig().tiny(), tier="firmware")


class TestSourceFuzz:
    def test_source_tier_fuzz_is_clean_and_resumable(self, tmp_path):
        from repro.verify import FuzzConfig, run_fuzz

        journal_dir = str(tmp_path / "fuzz")
        config = dict(
            seed=1, cases=8, tier="source", faults_per_program=3,
            inputs_per_program=1, jobs_axis=(1, 2),
            journal_dir=journal_dir,
        )
        first = run_fuzz(FuzzConfig(**config))
        assert first.ok(), [d.summary() for d in first.divergences]
        assert first.state_cases >= 8
        assert first.record_campaigns > 0

        again = run_fuzz(FuzzConfig(**config, resume=True))
        assert again.ok()
        assert again.resumed_programs == first.programs
        assert again.state_cases == first.state_cases

    def test_fuzz_rejects_unknown_tier(self):
        from repro.verify import FuzzConfig, run_fuzz

        with pytest.raises(CampaignError, match="tier"):
            run_fuzz(FuzzConfig(tier="firmware"))
