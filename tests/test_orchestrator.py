"""Unit tests for the orchestration subsystem: scheduler, journal,
telemetry, and the atomic persistence helper."""

import json
import os

import pytest

from repro.orchestrator import (
    CampaignJournal,
    JournalError,
    TelemetryAggregator,
    campaign_fingerprint,
    default_shard_size,
    pair_for_index,
    plan_shards,
    shard_stream_seed,
)
from repro.orchestrator.scheduler import MAX_SHARD_SIZE
from repro.persist import atomic_write_json, atomic_write_text
from repro.swifi import FailureMode, RunRecord


def make_record(fault="f1", case="a", mode=FailureMode.CORRECT):
    return RunRecord(
        fault_id=fault, case_id=case, mode=mode, status="exited",
        exit_code=0, trap_kind=None, activations=1, injections=1,
        instructions=10, metadata=(("klass", "assignment"),),
    )


class TestScheduler:
    def test_pair_for_index_is_fault_major(self):
        # Serial loop order: fault 0 × cases, fault 1 × cases, ...
        assert pair_for_index(0, 3) == (0, 0)
        assert pair_for_index(2, 3) == (0, 2)
        assert pair_for_index(3, 3) == (1, 0)
        assert pair_for_index(7, 3) == (2, 1)

    def test_pair_for_index_rejects_zero_cases(self):
        with pytest.raises(ValueError):
            pair_for_index(0, 0)

    def test_plan_shards_partitions_exactly(self):
        shards = plan_shards(range(17), jobs=4, campaign_seed=7, shard_size=5)
        covered = [index for shard in shards for index in shard.run_indices]
        assert covered == list(range(17))
        assert [len(s) for s in shards] == [5, 5, 5, 2]

    def test_plan_shards_deterministic(self):
        first = plan_shards(range(40), jobs=3, campaign_seed=9)
        second = plan_shards(range(40), jobs=3, campaign_seed=9)
        assert first == second

    def test_plan_shards_empty(self):
        assert plan_shards([], jobs=4, campaign_seed=1) == []

    def test_plan_shards_rejects_bad_size(self):
        with pytest.raises(ValueError):
            plan_shards(range(4), jobs=1, campaign_seed=1, shard_size=0)

    def test_shard_seeds_differ_per_shard_and_campaign(self):
        shards = plan_shards(range(30), jobs=2, campaign_seed=5, shard_size=10)
        seeds = {shard.seed for shard in shards}
        assert len(seeds) == len(shards)
        other = plan_shards(range(30), jobs=2, campaign_seed=6, shard_size=10)
        assert {s.seed for s in other}.isdisjoint(seeds)

    def test_shard_seed_anchored_to_content_not_position(self):
        # A shard keeps its RNG stream when planned from a resumed (shorter)
        # pending list, as long as it starts at the same run index.
        assert shard_stream_seed(3, 40) == shard_stream_seed(3, 40)
        full = plan_shards(range(20), jobs=1, campaign_seed=3, shard_size=10)
        resumed = plan_shards(range(10, 20), jobs=1, campaign_seed=3, shard_size=10)
        assert resumed[0].seed == full[1].seed

    def test_default_shard_size_bounds(self):
        assert default_shard_size(0, 4) == 1
        assert default_shard_size(3, 8) == 1
        assert 1 <= default_shard_size(10_000, 4) <= MAX_SHARD_SIZE


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def make_queue(indices=range(6), *, shard_size=3, max_attempts=2,
               lease_timeout=10.0):
    from repro.orchestrator.scheduler import ShardQueue, plan_shards

    clock = FakeClock()
    queue = ShardQueue(
        plan_shards(indices, jobs=1, campaign_seed=0, shard_size=shard_size),
        max_attempts=max_attempts, lease_timeout=lease_timeout, clock=clock,
    )
    return queue, clock


class TestShardQueue:
    def test_leases_every_planned_shard_once(self):
        queue, _ = make_queue()
        first, second = queue.lease(), queue.lease()
        assert (first.shard_id, first.attempt, first.indices) == (0, 1, (0, 1, 2))
        assert (second.shard_id, second.indices) == (1, (3, 4, 5))
        assert queue.lease() is None
        assert (queue.pending, queue.leased) == (0, 2)

    def test_complete_needs_every_run_reported(self):
        queue, _ = make_queue(range(3))
        lease = queue.lease()
        queue.mark_done(0)
        assert not queue.complete(lease.shard_id, lease.attempt)
        for index in (1, 2):
            queue.mark_done(index)
        assert queue.complete(lease.shard_id, lease.attempt)
        assert queue.finished

    def test_void_requeues_only_unreported_runs(self):
        queue, _ = make_queue(range(3))
        lease = queue.lease()
        queue.mark_done(1)
        voided = queue.void(lease.shard_id, lease.attempt, "worker died")
        assert (voided.requeued, voided.failed) == ((0, 2), ())
        retry = queue.lease()
        assert (retry.shard_id, retry.attempt, retry.indices) == (0, 2, (0, 2))
        assert retry.seed == lease.seed

    def test_stale_attempt_cannot_complete_renew_or_void(self):
        queue, _ = make_queue(range(3))
        old = queue.lease()
        queue.void(old.shard_id, old.attempt, "killed")
        live = queue.lease()
        for index in old.indices:
            queue.mark_done(index)  # a killed attempt's late runs still count
        assert not queue.renew(old.shard_id, old.attempt)
        assert not queue.complete(old.shard_id, old.attempt)
        assert queue.void(old.shard_id, old.attempt, "late error") is None
        assert queue.leased == 1
        assert queue.complete(live.shard_id, live.attempt)
        assert queue.finished

    def test_holder_must_match(self):
        queue, _ = make_queue(range(3))
        lease = queue.lease("w1")
        assert not queue.renew(lease.shard_id, lease.attempt, "w2")
        assert queue.void(lease.shard_id, lease.attempt, "x", "w2") is None
        assert queue.renew(lease.shard_id, lease.attempt, "w1")

    def test_abandons_at_max_attempts_with_the_reason(self):
        queue, _ = make_queue(range(3), max_attempts=2)
        lease = queue.lease()
        queue.void(lease.shard_id, lease.attempt, "first")
        lease = queue.lease()
        queue.mark_done(0)
        voided = queue.void(lease.shard_id, lease.attempt, "worker died")
        assert (voided.requeued, voided.failed) == ((), (1, 2))
        assert voided.reason == "worker died"
        assert queue.finished and queue.lease() is None

    def test_void_with_every_run_reported_just_closes(self):
        queue, _ = make_queue(range(3), max_attempts=1)
        lease = queue.lease()
        for index in lease.indices:
            queue.mark_done(index)
        voided = queue.void(lease.shard_id, lease.attempt, "died after")
        assert (voided.requeued, voided.failed) == ((), ())
        assert queue.finished

    def test_expiry_measures_from_the_last_renewal(self):
        queue, clock = make_queue(range(3), lease_timeout=10.0)
        lease = queue.lease()
        for _ in range(5):
            clock.now += 8.0
            assert queue.expire(lambda *_: "expired") == []
            assert queue.renew(lease.shard_id, lease.attempt)
        clock.now += 10.0
        [voided] = queue.expire(lambda shard, attempt: f"{shard}/{attempt} expired")
        assert voided.requeued == (0, 1, 2) and voided.reason == "0/1 expired"
        assert queue.lease().attempt == 2

    def test_no_timeout_never_expires(self):
        queue, clock = make_queue(range(3), lease_timeout=None)
        queue.lease()
        clock.now += 1e9
        assert queue.expire(lambda *_: "expired") == []
        assert queue.leased == 1

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError, match="max_attempts"):
            make_queue(max_attempts=0)
        with pytest.raises(ValueError, match="lease_timeout"):
            make_queue(lease_timeout=0)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"a": 1})
        atomic_write_json(path, {"a": 2})
        with open(path) as handle:
            assert json.load(handle) == {"a": 2}

    def test_no_temp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "hello")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_creates_parent_directory(self, tmp_path):
        path = str(tmp_path / "deep" / "out.txt")
        atomic_write_text(path, "x")
        with open(path) as handle:
            assert handle.read() == "x"


def fingerprint(**overrides):
    base = dict(
        program="p", seed=1, fault_ids=["f1", "f2"], case_ids=["a", "b"]
    )
    base.update(overrides)
    return campaign_fingerprint(**base)


class TestJournal:
    def test_fresh_open_then_resume_roundtrip(self, tmp_path):
        directory = str(tmp_path / "j")
        journal = CampaignJournal(directory, fingerprint())
        state = journal.open(resume=False)
        assert state.completed_runs == 0
        journal.append_record(0, make_record())
        journal.append_record(3, make_record(fault="f2", case="b"))
        journal.close()

        reopened = CampaignJournal(directory, fingerprint())
        state = reopened.open(resume=True)
        reopened.close()
        assert sorted(state.records) == [0, 3]
        assert state.records[0] == make_record()

    def test_existing_journal_requires_resume(self, tmp_path):
        directory = str(tmp_path / "j")
        journal = CampaignJournal(directory, fingerprint())
        journal.open(resume=False)
        journal.close()
        with pytest.raises(JournalError, match="resume"):
            CampaignJournal(directory, fingerprint()).open(resume=False)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        directory = str(tmp_path / "j")
        journal = CampaignJournal(directory, fingerprint())
        journal.open(resume=False)
        journal.close()
        other = CampaignJournal(directory, fingerprint(seed=2))
        with pytest.raises(JournalError, match="different"):
            other.open(resume=True)

    def test_resume_on_missing_directory_starts_fresh(self, tmp_path):
        directory = str(tmp_path / "new")
        journal = CampaignJournal(directory, fingerprint())
        state = journal.open(resume=True)
        journal.close()
        assert state.completed_runs == 0

    def test_truncated_last_line_tolerated(self, tmp_path):
        directory = str(tmp_path / "j")
        journal = CampaignJournal(directory, fingerprint())
        journal.open(resume=False)
        journal.append_record(0, make_record())
        journal.append_record(1, make_record(case="b"))
        journal.close()
        # Simulate a crash mid-append: chop the final line in half.
        runs_path = os.path.join(directory, "runs.jsonl")
        with open(runs_path, "r+", encoding="utf-8") as handle:
            content = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(content[: len(content) - 25])
        state = CampaignJournal(directory, fingerprint()).open(resume=True)
        assert sorted(state.records) == [0]

    def test_corrupt_middle_line_raises(self, tmp_path):
        directory = str(tmp_path / "j")
        journal = CampaignJournal(directory, fingerprint())
        journal.open(resume=False)
        journal.append_record(0, make_record())
        journal.close()
        runs_path = os.path.join(directory, "runs.jsonl")
        with open(runs_path, "a", encoding="utf-8") as handle:
            handle.write("{garbage\n")
            handle.write(
                json.dumps({"type": "run", "index": 1,
                            "record": make_record(case="b").to_dict()}) + "\n"
            )
        with pytest.raises(JournalError, match="corrupt"):
            CampaignJournal(directory, fingerprint()).open(resume=True)

    def test_shard_failures_are_informational(self, tmp_path):
        directory = str(tmp_path / "j")
        journal = CampaignJournal(directory, fingerprint())
        journal.open(resume=False)
        journal.append_shard_failure(2, [4, 5], "worker died with exit code 9")
        journal.close()
        state = CampaignJournal(directory, fingerprint()).open(resume=True)
        # Failed runs are NOT completed: resume re-attempts them.
        assert state.completed_runs == 0
        assert state.past_failures[0]["runs"] == [4, 5]

    def test_manifest_written_atomically(self, tmp_path):
        directory = str(tmp_path / "j")
        journal = CampaignJournal(directory, fingerprint())
        journal.open(resume=False)
        journal.close()
        entries = sorted(os.listdir(directory))
        assert entries == ["manifest.json", "runs.jsonl"]


class TestTelemetry:
    def test_aggregator_counts_and_modes(self):
        aggregator = TelemetryAggregator(label="t", total_runs=4, workers=2)
        aggregator.record_run(make_record())
        aggregator.record_run(make_record(mode=FailureMode.CRASH))
        aggregator.record_retry()
        snapshot = aggregator.snapshot()
        assert snapshot.executed_runs == 2
        assert snapshot.completed_runs == 2
        assert snapshot.remaining_runs == 2
        assert snapshot.retries == 1
        assert snapshot.mode_tallies["correct"] == 1
        assert snapshot.mode_tallies["crash"] == 1
        assert snapshot.runs_per_second > 0

    def test_resumed_records_count_toward_tallies(self):
        resumed = {0: make_record(), 1: make_record(mode=FailureMode.HANG)}
        aggregator = TelemetryAggregator(
            label="t", total_runs=4, workers=1, resumed=resumed
        )
        snapshot = aggregator.snapshot()
        assert snapshot.resumed_runs == 2
        assert snapshot.completed_runs == 2
        assert snapshot.mode_tallies["hang"] == 1

    def test_snapshot_is_json_serialisable(self):
        aggregator = TelemetryAggregator(label="t", total_runs=1, workers=1)
        aggregator.record_failures(1)
        payload = aggregator.snapshot().to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["failed_runs"] == 1


class TestTelemetryTraceAdditivity:
    def test_no_trace_key_when_tracing_off(self):
        aggregator = TelemetryAggregator(label="t", total_runs=1, workers=1)
        aggregator.record_run(make_record())
        payload = aggregator.snapshot().to_dict()
        assert "trace" not in payload

    def test_trace_block_when_tracing_on(self):
        aggregator = TelemetryAggregator(
            label="t", total_runs=2, workers=1, tracing=True
        )
        aggregator.record_run(
            make_record(),
            trace={"seconds": 0.5, "path": "snapshot", "mode": "Correct",
                   "phases": {"snapshot-restore": 0.1}},
        )
        aggregator.record_run(make_record())  # a run without a payload
        aggregator.record_retry()
        payload = aggregator.snapshot().to_dict()
        assert payload["trace"]["runs"] == 1
        assert payload["trace"]["paths"] == {"snapshot": 1}
        assert payload["trace"]["fast_path_hits"] == 1
        assert payload["trace"]["retries"] == 1
        assert json.loads(json.dumps(payload)) == payload

    def test_resumed_runs_count_as_resume_skips(self):
        resumed = {0: make_record(), 1: make_record()}
        aggregator = TelemetryAggregator(
            label="t", total_runs=4, workers=1, resumed=resumed, tracing=True
        )
        assert aggregator.snapshot().trace["resume_skips"] == 2


class TestRateGuards:
    def test_rate_positive_immediately_after_first_run(self):
        """Zero elapsed clock on the first record_run cannot zero the rate."""
        aggregator = TelemetryAggregator(label="t", total_runs=4, workers=1)
        aggregator.record_run(make_record())
        aggregator.started = aggregator._recent[-1]  # force elapsed == 0
        assert aggregator.rate() > 0

    def test_rate_zero_before_any_run(self):
        aggregator = TelemetryAggregator(label="t", total_runs=4, workers=1)
        assert aggregator.rate() == 0.0
        assert aggregator.snapshot().eta_seconds is None


class TestProgressRendererGuards:
    def _snapshot(self, aggregator=None):
        aggregator = aggregator or TelemetryAggregator(
            label="t", total_runs=2, workers=1
        )
        return aggregator.snapshot()

    def test_begin_always_renders_even_with_small_monotonic_clock(self):
        import io
        import time
        from unittest import mock

        from repro.orchestrator import ProgressRenderer

        stream = io.StringIO()
        renderer = ProgressRenderer(stream, interval=10.0)
        # Simulate a platform whose monotonic epoch is near zero: with the
        # old `_last_emit = 0.0` initialiser, begin()'s render was dropped.
        with mock.patch.object(time, "monotonic", return_value=0.001):
            renderer.begin(self._snapshot())
        assert "[t]" in stream.getvalue()

    def test_finish_renders_final_totals_despite_throttle(self):
        import io

        from repro.orchestrator import ProgressRenderer

        stream = io.StringIO()
        renderer = ProgressRenderer(stream, interval=3600.0)
        aggregator = TelemetryAggregator(label="t", total_runs=2, workers=1)
        renderer.begin(aggregator.snapshot())
        aggregator.record_run(make_record())
        renderer.update(aggregator.snapshot())  # throttled away
        aggregator.record_run(make_record())
        renderer.update(aggregator.snapshot())  # throttled away
        renderer.finish(aggregator.snapshot())
        lines = [line for line in stream.getvalue().splitlines() if line]
        assert "0/2" in lines[0]
        assert "2/2" in lines[-1]  # the final snapshot always lands

    def test_trace_fields_appear_on_the_progress_line(self):
        import io

        from repro.orchestrator import ProgressRenderer

        stream = io.StringIO()
        aggregator = TelemetryAggregator(
            label="t", total_runs=1, workers=1, tracing=True
        )
        aggregator.record_run(
            make_record(), trace={"seconds": 0.1, "path": "snapshot"}
        )
        ProgressRenderer(stream).finish(aggregator.snapshot())
        assert "fast=1" in stream.getvalue()


class TestJsonTelemetryWriterStreaming:
    def test_update_writes_in_progress_snapshot(self, tmp_path):
        from repro.orchestrator import JsonTelemetryWriter

        path = str(tmp_path / "telemetry.json")
        writer = JsonTelemetryWriter(path, interval=0.0)
        aggregator = TelemetryAggregator(label="t", total_runs=2, workers=1)
        aggregator.record_run(make_record())
        writer.update(aggregator.snapshot())
        # Mid-campaign, the file already exists with the latest snapshot.
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert len(payload) == 1
        assert payload[0]["in_progress"] is True
        assert payload[0]["executed_runs"] == 1

    def test_finish_replaces_in_progress_with_final(self, tmp_path):
        from repro.orchestrator import JsonTelemetryWriter

        path = str(tmp_path / "telemetry.json")
        writer = JsonTelemetryWriter(path, interval=0.0)
        aggregator = TelemetryAggregator(label="t", total_runs=1, workers=1)
        aggregator.record_run(make_record())
        writer.update(aggregator.snapshot())
        writer.finish(aggregator.snapshot())
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert len(payload) == 1
        assert "in_progress" not in payload[0]

    def test_throttle_skips_rapid_updates(self, tmp_path):
        from repro.orchestrator import JsonTelemetryWriter

        path = str(tmp_path / "telemetry.json")
        writer = JsonTelemetryWriter(path, interval=3600.0)
        aggregator = TelemetryAggregator(label="t", total_runs=3, workers=1)
        aggregator.record_run(make_record())
        writer.update(aggregator.snapshot())   # first write goes through
        first = os.path.getmtime(path)
        aggregator.record_run(make_record())
        writer.update(aggregator.snapshot())   # throttled: no rewrite
        assert os.path.getmtime(path) == first
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)[0]["executed_runs"] == 1


class TestJournalCrashRecovery:
    """A kill mid-append leaves a partial trailing line; every layer must
    tolerate it — the reader by dropping it, the writer by trimming it
    before appending (so the next resume never sees mid-file garbage)."""

    def _crashed_journal(self, tmp_path):
        directory = str(tmp_path / "j")
        journal = CampaignJournal(directory, fingerprint())
        journal.open(resume=False)
        journal.append_record(0, make_record())
        journal.append_record(1, make_record(case="b"))
        journal.close()
        # Simulate a kill mid-append: a truncated, unterminated record.
        with open(journal.runs_path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "run", "index": 2, "rec')
        return directory, journal.runs_path

    def test_reader_drops_partial_trailing_line(self, tmp_path):
        from repro.orchestrator.journal import load_runs_file

        _, runs_path = self._crashed_journal(tmp_path)
        state = load_runs_file(runs_path)
        assert sorted(state.records) == [0, 1]

    def test_resume_after_crash_loads_complete_records(self, tmp_path):
        directory, _ = self._crashed_journal(tmp_path)
        journal = CampaignJournal(directory, fingerprint())
        state = journal.open(resume=True)
        journal.close()
        assert sorted(state.records) == [0, 1]

    def test_append_after_crash_does_not_corrupt_midfile(self, tmp_path):
        # The regression: appending onto the partial line used to fuse
        # the fragment with the next record, so the *second* resume died
        # on a corrupt line in the middle of the file.
        directory, runs_path = self._crashed_journal(tmp_path)
        journal = CampaignJournal(directory, fingerprint())
        journal.open(resume=True)
        journal.append_record(2, make_record(fault="f2"))
        journal.close()

        reopened = CampaignJournal(directory, fingerprint())
        state = reopened.open(resume=True)
        reopened.close()
        assert sorted(state.records) == [0, 1, 2]
        with open(runs_path, "r", encoding="utf-8") as handle:
            for line in handle.read().splitlines():
                json.loads(line)  # every surviving line is valid JSON

    def test_whole_file_partial_line_trimmed(self, tmp_path):
        directory = str(tmp_path / "j")
        journal = CampaignJournal(directory, fingerprint())
        journal.open(resume=False)
        journal.close()
        with open(journal.runs_path, "w", encoding="utf-8") as handle:
            handle.write('{"type": "ru')  # no complete record at all
        reopened = CampaignJournal(directory, fingerprint())
        state = reopened.open(resume=True)
        reopened.append_record(0, make_record())
        reopened.close()
        third = CampaignJournal(directory, fingerprint())
        state = third.open(resume=True)
        third.close()
        assert sorted(state.records) == [0]

    def test_midfile_corruption_still_raises(self, tmp_path):
        from repro.orchestrator.journal import load_runs_file

        directory, runs_path = self._crashed_journal(tmp_path)
        with open(runs_path, "a", encoding="utf-8") as handle:
            handle.write("\n")  # terminate the fragment: now mid-file junk
            handle.write('{"type": "shard-failed", "shard": 0, "runs": [], "error": "x"}\n')
        with pytest.raises(JournalError, match="corrupt journal line"):
            load_runs_file(runs_path)
