"""The shared JSONL log, and crash-truncated tails in every journal.

A ``kill -9`` mid-append leaves an unterminated final line in a JSON-lines
journal.  Readers tolerate the torn line, but a writer re-opening in append
mode would fuse its first new record onto it — corrupting two records.
:class:`repro.persist.JsonlLog` and :func:`repro.persist.read_jsonl` are
tested directly first.  Then these tests simulate the kill (truncate
mid-line) and assert each resumable artefact repairs the tail before
appending: the campaign runs journal (already covered by the orchestrator
tests), the planner's on-disk memo dir, the verify fuzzer's case journal,
the source-tier campaign journal (the orchestrator's, reached through
``tier="source"``) and the ``srcfi compare`` pair journal.  Corruption
anywhere but the last line is an error in every journal but the memo.
"""

import json
import os

import pytest

from repro.persist import (
    CorruptLineError,
    JournalError,
    JsonlLog,
    read_jsonl,
    trim_partial_tail,
)


def _lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [line for line in handle.read().splitlines() if line.strip()]


def _assert_all_lines_parse(path):
    for line in _lines(path):
        json.loads(line)  # raises on a fused/torn record


class TestTrimPartialTail:
    def test_missing_file_is_a_noop(self, tmp_path):
        trim_partial_tail(tmp_path / "absent.jsonl")
        assert not (tmp_path / "absent.jsonl").exists()

    def test_empty_and_clean_files_untouched(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        clean = tmp_path / "clean.jsonl"
        clean.write_bytes(b'{"a": 1}\n{"b": 2}\n')
        trim_partial_tail(empty)
        trim_partial_tail(clean)
        assert empty.read_bytes() == b""
        assert clean.read_bytes() == b'{"a": 1}\n{"b": 2}\n'

    def test_torn_tail_is_truncated_to_last_newline(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": 2}\n{"c": ')
        trim_partial_tail(path)
        assert path.read_bytes() == b'{"a": 1}\n{"b": 2}\n'

    def test_single_partial_line_truncates_to_empty(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_bytes(b'{"never finis')
        trim_partial_tail(path)
        assert path.read_bytes() == b""


class TestReadJsonl:
    def test_missing_and_empty_files_read_as_empty(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        assert read_jsonl(tmp_path / "absent.jsonl") == []
        assert read_jsonl(empty) == []

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"b": 2}\n')
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"b": ')
        assert read_jsonl(path) == [{"a": 1}]

    def test_unterminated_tail_is_dropped_even_when_it_decodes(self, tmp_path):
        # The writer trims it before its next append, so a reader that
        # kept it would count an entry the log is about to lose.
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}')
        assert read_jsonl(path) == [{"a": 1}]

    def test_interior_corruption_raises_with_line_number(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"b": \n{"c": 3}\n')
        with pytest.raises(CorruptLineError, match="corrupt journal line 2") \
                as excinfo:
            read_jsonl(path)
        assert excinfo.value.line == 2
        assert isinstance(excinfo.value, JournalError)

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n[1, 2]\n')
        with pytest.raises(CorruptLineError, match="line 2.*not a JSON object"):
            read_jsonl(path)


class TestJsonlLog:
    def test_appends_canonical_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlLog(path) as log:
            log.append({"a": 1})
            log.append({"b": [2, 3]})
        assert path.read_text() == '{"a": 1}\n{"b": [2, 3]}\n'
        assert read_jsonl(path) == [{"a": 1}, {"b": [2, 3]}]

    def test_each_entry_is_flushed(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = JsonlLog(path)
        log.append({"a": 1})
        assert read_jsonl(path) == [{"a": 1}]  # before close
        log.close()

    def test_append_after_torn_tail_does_not_fuse(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"b": ')
        with JsonlLog(path) as log:
            log.append({"c": 3})
        assert path.read_text() == '{"a": 1}\n{"c": 3}\n'
        assert read_jsonl(path) == [{"a": 1}, {"c": 3}]


class TestMemoDirRepair:
    def test_append_after_kill_does_not_fuse_records(self, tmp_path):
        from repro.planning.memo import OutcomeCache

        # A process with this very pid was killed mid-append earlier
        # (pid reuse): one whole record plus a torn tail.
        sink = tmp_path / f"memo-{os.getpid()}.jsonl"
        good = {"key": "k1", "outcome": {"mode": "correct"}}
        sink.write_text(json.dumps(good) + "\n"
                        + json.dumps({"key": "k2", "outcome": {}})[:9])

        cache = OutcomeCache(str(tmp_path))
        assert cache.get("k1") == {"mode": "correct"}
        cache.put("k3", {"mode": "crash"})
        cache.close()

        _assert_all_lines_parse(sink)
        warm = OutcomeCache(str(tmp_path))
        assert warm.get("k1") == {"mode": "correct"}
        assert warm.get("k3") == {"mode": "crash"}
        assert warm.get("k2") is None  # torn record stays dead


class TestFuzzJournalRepair:
    def test_resume_after_kill_repairs_then_extends(self, tmp_path):
        from repro.verify import FuzzConfig, run_fuzz
        from repro.verify.fuzzer import FUZZ_JOURNAL

        journal_dir = tmp_path / "fuzz"
        config = dict(seed=3, cases=4, faults_per_program=2,
                      inputs_per_program=1, record_tier=False,
                      journal_dir=str(journal_dir))
        first = run_fuzz(FuzzConfig(**config))
        assert first.ok()

        journal = journal_dir / FUZZ_JOURNAL
        whole = _lines(journal)
        assert whole  # the run journaled something

        # Simulate a kill mid-append: last record loses its tail.
        with open(journal, "r+b") as handle:
            data = handle.read()
            handle.truncate(len(data) - 7)

        resumed = run_fuzz(FuzzConfig(**config, resume=True))
        assert resumed.ok()
        _assert_all_lines_parse(journal)
        # The torn program was re-run and re-journaled, nothing fused.
        assert resumed.resumed_programs == len(whole) - 1
        final = [json.loads(line) for line in _lines(journal)]
        assert sorted(e["index"] for e in final) == sorted(
            e["index"] for e in (json.loads(l) for l in whole)
        )

    def test_resume_refuses_interior_corruption(self, tmp_path):
        from repro.verify import FuzzConfig, run_fuzz
        from repro.verify.fuzzer import FUZZ_JOURNAL

        journal_dir = tmp_path / "fuzz"
        journal_dir.mkdir()
        later = {"type": "program", "seed": 3, "tier": "machine", "index": 0}
        (journal_dir / FUZZ_JOURNAL).write_text(
            '{"type": "prog\n' + json.dumps(later) + "\n")
        with pytest.raises(JournalError, match="corrupt journal line 1"):
            run_fuzz(FuzzConfig(seed=3, cases=4, record_tier=False,
                                journal_dir=str(journal_dir), resume=True))


class TestSrcfiJournalRepair:
    @pytest.fixture(scope="class")
    def target(self):
        from repro.lang import compile_source
        from repro.srcfi import SourceLocator
        from repro.swifi import InputCase

        source = """
        int in_x;
        void main() {
            int i; int total = 0;
            for (i = 0; i < 4; i++) { total = total + in_x; }
            print_int(total);
            exit(0);
        }
        """
        compiled = compile_source(source, "persist-target")
        cases = [InputCase("a", {"in_x": 3}, b"12")]
        faults = SourceLocator(compiled).source_faults(
            max_sites_per_operator=2)
        assert len(faults) >= 2
        return compiled, cases, faults

    def test_resume_after_kill_repairs_then_extends(self, tmp_path, target):
        from repro.orchestrator.journal import RUNS_NAME
        from repro.swifi import CampaignConfig, CampaignRunner

        compiled, cases, faults = target
        journal_dir = str(tmp_path / "j")
        first = CampaignRunner(compiled, cases).run(
            faults, config=CampaignConfig(
                tier="source", journal_dir=journal_dir))

        journal = os.path.join(journal_dir, RUNS_NAME)
        whole = _lines(journal)
        runs = [line for line in whole if json.loads(line)["type"] == "run"]
        assert len(runs) == len(first.records)

        # Simulate a kill mid-append of the last run: the completion-time
        # plan entry after it was never written, the run line is torn.
        with open(journal, "r+b") as handle:
            data = handle.read()
            handle.truncate(data.index(runs[-1].encode()) + len(runs[-1]) - 9)

        resumed = CampaignRunner(compiled, cases).run(
            faults, config=CampaignConfig(
                tier="source", journal_dir=journal_dir, resume=True))
        _assert_all_lines_parse(journal)
        assert [r.to_dict() for r in resumed.records] == \
            [r.to_dict() for r in first.records]
        # Torn record re-executed and re-appended exactly once.
        assert len(_lines(journal)) == len(whole)


class TestSrcfiCompareJournalRepair:
    def test_resume_after_kill_repairs_then_extends(self, tmp_path):
        from repro.experiments import ExperimentConfig, run_srcfi_compare

        config = ExperimentConfig().tiny()
        options = dict(programs=["JB.team6"], max_sites=2, include_real=False,
                       journal_dir=str(tmp_path / "pairs"))
        first = run_srcfi_compare(config, **options)

        journal = tmp_path / "pairs" / "pairs.jsonl"
        whole = _lines(journal)
        assert len(whole) >= 2

        # Simulate a kill mid-append: the last pair loses its tail.
        with open(journal, "r+b") as handle:
            data = handle.read()
            handle.truncate(len(data) - 5)

        resumed = run_srcfi_compare(config, resume=True, **options)
        _assert_all_lines_parse(journal)
        pair_ids = [json.loads(line)["pair_id"] for line in _lines(journal)]
        assert len(pair_ids) == len(set(pair_ids)) == len(whole)
        assert resumed.jsonable() == first.jsonable()

    def test_resume_refuses_interior_corruption(self, tmp_path):
        from repro.experiments import ExperimentConfig, run_srcfi_compare

        config = ExperimentConfig().tiny()
        options = dict(programs=["JB.team6"], max_sites=1, include_real=False,
                       journal_dir=str(tmp_path / "pairs"))
        run_srcfi_compare(config, **options)
        journal = tmp_path / "pairs" / "pairs.jsonl"
        journal.write_text('{"type": "pa\n' + journal.read_text())
        with pytest.raises(JournalError, match="corrupt journal line 1"):
            run_srcfi_compare(config, resume=True, **options)


class TestManifestlessLog:
    """A non-empty log beside no manifest is of unknown origin: refused."""

    def test_campaign_journal_refuses_a_stray_runs_log(self, tmp_path):
        from repro.orchestrator.journal import RUNS_NAME, CampaignJournal

        (tmp_path / RUNS_NAME).write_text('{"type": "run", "index": 0}\n')
        with pytest.raises(JournalError, match="no manifest.json"):
            CampaignJournal(str(tmp_path), {"seed": 0}).open(resume=True)
        assert not (tmp_path / "manifest.json").exists()

    def test_empty_log_is_a_fresh_journal(self, tmp_path):
        from repro.orchestrator.journal import RUNS_NAME, CampaignJournal

        (tmp_path / RUNS_NAME).write_text("")
        journal = CampaignJournal(str(tmp_path), {"seed": 0})
        assert journal.open(resume=False).records == {}
        journal.close()

    def test_pre_manifest_pairs_log_is_refused(self, tmp_path):
        from repro.experiments import ExperimentConfig, run_srcfi_compare

        options = dict(programs=["JB.team6"], max_sites=1, include_real=False,
                       journal_dir=str(tmp_path / "pairs"))
        run_srcfi_compare(ExperimentConfig().tiny(), **options)
        os.remove(tmp_path / "pairs" / "manifest.json")
        journal = tmp_path / "pairs" / "pairs.jsonl"
        before = journal.read_bytes()
        with pytest.raises(JournalError, match="no manifest.json"):
            run_srcfi_compare(ExperimentConfig().tiny(), resume=True, **options)
        assert journal.read_bytes() == before


class TestSrcfiCompareManifest:
    """``pairs.jsonl`` is pinned to the inputs that decide a pair's outcome."""

    @pytest.fixture
    def journaled(self, tmp_path):
        from repro.experiments import ExperimentConfig, run_srcfi_compare

        config = ExperimentConfig().tiny()
        options = dict(programs=["JB.team6"], max_sites=1, include_real=False,
                       journal_dir=str(tmp_path / "pairs"))
        report = run_srcfi_compare(config, **options)
        return config, options, report

    @pytest.mark.parametrize("change", [
        {"seed": 2}, {"campaign_inputs": 3}, {"budget_factor": 7},
    ])
    def test_resume_under_another_configuration_raises(self, journaled, change):
        import dataclasses

        from repro.experiments import run_srcfi_compare

        config, options, _ = journaled
        other = dataclasses.replace(config, **change)
        assert other != config
        with pytest.raises(JournalError, match="different campaign"):
            run_srcfi_compare(other, resume=True, **options)

    def test_reusing_a_journal_without_resume_raises(self, journaled):
        from repro.experiments import run_srcfi_compare

        config, options, _ = journaled
        with pytest.raises(JournalError, match="already exists"):
            run_srcfi_compare(config, **options)

    def test_resume_under_the_same_configuration_replays(self, journaled):
        from repro.experiments import run_srcfi_compare

        config, options, report = journaled
        progress = []
        resumed = run_srcfi_compare(
            config, resume=True, engine="block",
            progress=lambda done, total: progress.append(done), **options)
        assert resumed.jsonable() == report.jsonable()
        assert progress == []  # every pair came from the journal
