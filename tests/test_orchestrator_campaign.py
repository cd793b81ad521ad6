"""Integration tests for orchestrated campaigns.

The contract under test is the ISSUE's acceptance criteria:

* any ``jobs`` value produces results bit-identical to the serial loop;
* a campaign killed mid-way (supervisor interrupt or simulated worker
  crash) resumes from its journal without re-executing journaled runs,
  and the merged result equals an uninterrupted serial run record for
  record;
* a shard whose worker keeps dying is recorded as failed without
  aborting the campaign.

The fast cases use a two-statement MiniC program; one slower case runs a
real (tiny) §6 campaign through ``run_section6`` at ``--jobs 4``.
"""

import os

import pytest

from repro.lang import compile_source
from repro.orchestrator import (
    CampaignInterrupted,
    CampaignOrchestrator,
    JournalError,
    OrchestratorOptions,
)
from repro.swifi import (
    Action,
    Arithmetic,
    CampaignRunner,
    MachineFault,
    InputCase,
    OpcodeFetch,
    StoreValue,
)

SOURCE = """
int in_x;
void main() {
    int doubled = in_x * 2;
    print_int(doubled);
    exit(0);
}
"""


@pytest.fixture(scope="module")
def campaign():
    compiled = compile_source(SOURCE, "double")
    cases = [
        InputCase("a", {"in_x": 3}, b"6"),
        InputCase("b", {"in_x": -5}, b"-10"),
    ]
    runner = CampaignRunner(compiled, cases)
    site = compiled.debug.assignments[0]
    faults = [
        MachineFault(
            f"f{delta}",
            OpcodeFetch(site.address),
            (Action(StoreValue(), Arithmetic(delta)),),
        ).with_metadata(klass="assignment", error_type=f"value+{delta}")
        for delta in range(1, 7)
    ]
    serial = runner.run(faults)
    return runner, faults, serial


def orchestrate(runner, faults, **options):
    orchestrator = CampaignOrchestrator.from_runner(
        runner, faults, options=OrchestratorOptions(**options)
    )
    return orchestrator.run()


class TestDeterminism:
    def test_inline_orchestrator_matches_serial(self, campaign):
        runner, faults, serial = campaign
        outcome = orchestrate(runner, faults, jobs=1, seed=11)
        assert outcome.result.records == serial.records

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_serial_bit_for_bit(self, campaign, jobs):
        runner, faults, serial = campaign
        outcome = orchestrate(runner, faults, jobs=jobs, seed=11, shard_size=2)
        assert outcome.result.records == serial.records
        assert outcome.result.tally() == serial.tally()
        assert outcome.result.percentages() == serial.percentages()

    def test_shard_size_does_not_change_results(self, campaign):
        runner, faults, serial = campaign
        for shard_size in (1, 3, 5):
            outcome = orchestrate(
                runner, faults, jobs=2, seed=11, shard_size=shard_size
            )
            assert outcome.result.records == serial.records


class TestJournalResume:
    def test_interrupted_campaign_resumes_without_rerunning(self, campaign, tmp_path):
        runner, faults, serial = campaign
        journal_dir = str(tmp_path / "journal")
        with pytest.raises(CampaignInterrupted) as info:
            orchestrate(
                runner, faults,
                jobs=2, seed=11, shard_size=2,
                journal_dir=journal_dir, interrupt_after=5,
            )
        journaled = info.value.completed_runs
        assert 0 < journaled < len(serial.records)

        outcome = orchestrate(
            runner, faults,
            jobs=2, seed=11, shard_size=2,
            journal_dir=journal_dir, resume=True,
        )
        # Telemetry proves the journaled runs were not re-executed.
        assert outcome.resumed_runs == journaled
        assert outcome.executed_runs == len(serial.records) - journaled
        assert outcome.snapshot.resumed_runs == journaled
        # The merged result equals an uninterrupted serial run, record
        # for record.
        assert outcome.result.records == serial.records

    def test_worker_crash_then_campaign_kill_then_resume(self, campaign, tmp_path):
        """The full §6-at-scale failure story in miniature: a worker crashes
        (shard retried), then the whole campaign dies, then --resume."""
        runner, faults, serial = campaign
        journal_dir = str(tmp_path / "journal")
        with pytest.raises(CampaignInterrupted):
            orchestrate(
                runner, faults,
                jobs=2, seed=11, shard_size=3,
                journal_dir=journal_dir,
                crash_shards={0: (1, 1)},   # shard 0 dies once after 1 run
                interrupt_after=4,          # then the campaign itself is killed
            )
        outcome = orchestrate(
            runner, faults,
            jobs=2, seed=11, shard_size=3,
            journal_dir=journal_dir, resume=True,
        )
        assert outcome.result.records == serial.records
        assert outcome.resumed_runs + outcome.executed_runs == len(serial.records)
        assert outcome.resumed_runs >= 4

    def test_resume_of_complete_journal_executes_nothing(self, campaign, tmp_path):
        runner, faults, serial = campaign
        journal_dir = str(tmp_path / "journal")
        orchestrate(runner, faults, jobs=2, seed=11, journal_dir=journal_dir)
        outcome = orchestrate(
            runner, faults, jobs=2, seed=11, journal_dir=journal_dir, resume=True
        )
        assert outcome.executed_runs == 0
        assert outcome.resumed_runs == len(serial.records)
        assert outcome.result.records == serial.records

    def test_journal_refuses_other_campaign(self, campaign, tmp_path):
        runner, faults, _ = campaign
        journal_dir = str(tmp_path / "journal")
        orchestrate(runner, faults, jobs=1, seed=11, journal_dir=journal_dir)
        with pytest.raises(JournalError):
            orchestrate(
                runner, faults[:-1], jobs=1, seed=11,
                journal_dir=journal_dir, resume=True,
            )

    def test_existing_journal_requires_resume_flag(self, campaign, tmp_path):
        runner, faults, _ = campaign
        journal_dir = str(tmp_path / "journal")
        orchestrate(runner, faults, jobs=1, seed=11, journal_dir=journal_dir)
        with pytest.raises(JournalError):
            orchestrate(runner, faults, jobs=1, seed=11, journal_dir=journal_dir)


class TestSupervision:
    def test_crashing_worker_is_retried(self, campaign):
        runner, faults, serial = campaign
        outcome = orchestrate(
            runner, faults,
            jobs=2, seed=11, shard_size=3,
            crash_shards={0: (1, 2)},  # dies on attempt 1 after 2 runs
        )
        assert outcome.result.records == serial.records
        assert outcome.snapshot.retries >= 1

    def test_persistently_dead_shard_fails_without_aborting(self, campaign, tmp_path):
        runner, faults, serial = campaign
        journal_dir = str(tmp_path / "journal")
        outcome = orchestrate(
            runner, faults,
            jobs=2, seed=11, shard_size=3, max_attempts=2,
            journal_dir=journal_dir,
            crash_shards={0: (99, 1)},  # dies on every attempt after 1 run
        )
        # One run per attempt completed before the crash; the remainder of
        # shard 0 is recorded as failed and every other shard finished.
        assert outcome.failed_runs
        assert outcome.snapshot.failed_runs == len(outcome.failed_runs)
        survivors = {
            (record.fault_id, record.case_id) for record in outcome.result.records
        }
        assert len(survivors) == len(serial.records) - len(outcome.failed_runs)
        # The failure is journaled for the post-mortem...
        with open(os.path.join(journal_dir, "runs.jsonl")) as handle:
            assert '"shard-failed"' in handle.read()
        # ...and a resume re-attempts exactly the failed runs.
        resumed = orchestrate(
            runner, faults,
            jobs=2, seed=11, shard_size=3,
            journal_dir=journal_dir, resume=True,
        )
        assert resumed.result.records == serial.records

    def test_deadline_kill_is_retried_and_recovers(self, campaign):
        runner, faults, serial = campaign
        # Shard 0 hangs on its first attempt; the 0.5s deadline kills it and
        # the retry (which does not stall) completes the campaign intact.
        outcome = orchestrate(
            runner, faults,
            jobs=2, seed=11, shard_size=3,
            shard_deadline=0.5,
            stall_shards={0: (1, 30.0)},
        )
        assert outcome.result.records == serial.records
        assert outcome.snapshot.retries >= 1

    def test_persistently_hung_shard_fails_without_aborting(self, campaign):
        runner, faults, serial = campaign
        outcome = orchestrate(
            runner, faults,
            jobs=2, seed=11, shard_size=3, max_attempts=1,
            shard_deadline=0.5,
            stall_shards={0: (99, 30.0)},  # hangs on every attempt
        )
        assert len(outcome.failed_runs) == 3
        assert all("deadline" in reason for reason in outcome.failed_runs.values())
        assert outcome.result.total_runs == len(serial.records) - 3


    def test_deadline_is_per_run_progress_not_per_shard(self, campaign, monkeypatch):
        """Each run renews the shard's lease: a shard whose runs together
        outlast ``shard_deadline`` is not killed while every run lands in
        time."""
        import multiprocessing
        import time

        import repro.orchestrator.worker as worker

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("slowed runs reach the workers only through fork")
        runner, faults, serial = campaign
        execute = worker.execute_injection_run

        def slow_run(*args, **kwargs):
            time.sleep(0.4)
            return execute(*args, **kwargs)

        monkeypatch.setattr(worker, "execute_injection_run", slow_run)
        started = time.monotonic()
        outcome = orchestrate(
            runner, faults[:4],
            jobs=2, seed=11, shard_size=4, max_attempts=1,
            shard_deadline=1.0,
        )
        # Two shards of four 0.4 s runs each: 1.6 s per shard.
        assert time.monotonic() - started > 1.6
        assert outcome.failed_runs == {}
        assert outcome.snapshot.retries == 0
        assert outcome.result.records == serial.records[:8]


class TestSection6Parallel:
    def test_jobs4_matches_jobs1_on_small_campaign(self):
        """ISSUE acceptance: same seed, --jobs 1 vs --jobs 4, identical
        per-mode tallies and identical sorted RunRecord lists."""
        from repro.experiments import ExperimentConfig, run_section6

        config = ExperimentConfig.tiny()
        serial = run_section6(config, programs=["JB.team11"])
        parallel = run_section6(config, programs=["JB.team11"], jobs=4)
        assert len(serial.campaigns) == len(parallel.campaigns) == 2
        for ours, theirs in zip(serial.campaigns, parallel.campaigns):
            assert ours.records == theirs.records
        key = lambda record: (record.fault_id, record.case_id)
        assert sorted(serial.records(), key=key) == sorted(
            parallel.records(), key=key
        )
        for klass in ("assignment", "checking"):
            assert serial.series_by_program(klass) == parallel.series_by_program(klass)
            assert serial.series_by_error_label(klass) == (
                parallel.series_by_error_label(klass)
            )
