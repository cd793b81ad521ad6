"""The unified campaign API: CampaignConfig, run()'s keyword surface,
repro.api, and the versioned result schema."""

import json
import warnings

import pytest

from repro.lang import compile_source
from repro.swifi import (
    Action,
    Arithmetic,
    CampaignConfig,
    CampaignResult,
    CampaignRunner,
    FailureMode,
    MachineFault,
    InputCase,
    OpcodeFetch,
    RESULT_SCHEMA_VERSION,
    RunRecord,
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
    site = compiled.debug.assignments[0]
    faults = [
        MachineFault(
            f"f{delta}", OpcodeFetch(site.address),
            (Action(StoreValue(), Arithmetic(delta)),),
        )
        for delta in (1, 2)
    ]
    return compiled, cases, faults


class TestCampaignConfig:
    def test_defaults(self):
        config = CampaignConfig()
        assert config.jobs == 1
        assert config.snapshot == "off"
        assert config.journal_dir is None
        assert not config.resume

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CampaignConfig().jobs = 2

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            CampaignConfig(jobs=0)

    def test_rejects_unknown_snapshot_policy(self):
        with pytest.raises(ValueError):
            CampaignConfig(snapshot="fast")

    def test_rejects_resume_without_journal(self):
        with pytest.raises(ValueError):
            CampaignConfig(resume=True)

    def test_budget_overrides_recalibrate(self, campaign):
        compiled, cases, faults = campaign
        runner = CampaignRunner(compiled, cases)
        runner.run(faults, config=CampaignConfig())
        default_budgets = dict(runner.budgets)
        runner.run(faults, config=CampaignConfig(min_budget=123_456))
        assert all(budget >= 123_456 for budget in runner.budgets.values())
        assert runner.budgets != default_budgets


class TestLegacyShim:
    """The pre-config keyword spelling of run() is gone, not deprecated."""

    def test_legacy_kwargs_are_rejected(self, campaign):
        compiled, cases, faults = campaign
        runner = CampaignRunner(compiled, cases)
        with pytest.raises(TypeError, match="jobs"):
            runner.run(faults, jobs=2)

    def test_unknown_kwarg_is_an_error(self, campaign):
        compiled, cases, faults = campaign
        runner = CampaignRunner(compiled, cases)
        with pytest.raises(TypeError, match="snapshots"):
            runner.run(faults, snapshots="auto")

    def test_config_path_emits_no_warning(self, campaign):
        compiled, cases, faults = campaign
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            CampaignRunner(compiled, cases).run(faults, config=CampaignConfig())


class TestPublicFacade:
    def test_every_export_resolves(self):
        import repro.api as api

        for name in api.__all__:
            assert hasattr(api, name), name

    def test_facade_reexports_are_the_same_objects(self):
        import repro.api as api
        from repro import swifi
        from repro.machine import machine as machine_mod

        assert api.CampaignRunner is swifi.CampaignRunner
        assert api.CampaignConfig is swifi.CampaignConfig
        assert api.SnapshotCache is swifi.SnapshotCache
        assert api.Machine is machine_mod.Machine

    def test_facade_covers_the_campaign_surface(self):
        import repro.api as api

        for name in ("boot", "compile_source", "CampaignConfig",
                     "CampaignRunner", "InputCase", "generate_error_set",
                     "SNAPSHOT_AUTO", "run_section6"):
            assert name in api.__all__, name


class TestResultSchema:
    def _record(self):
        # Deliberately unsorted metadata: order is part of the identity.
        return RunRecord(
            "f1", "a", FailureMode.INCORRECT, "exited", 0, None, 3, 3, 250,
            metadata=(("zeta", 1), ("alpha", "x"), ("mid", [1, 2])),
        )

    def test_roundtrip_preserves_metadata_order(self, tmp_path):
        result = CampaignResult(program="p")
        result.records = [self._record()]
        path = str(tmp_path / "result.json")
        result.to_json(path)
        loaded = CampaignResult.from_json(path)
        assert loaded.records == result.records
        assert loaded.records[0].metadata[0][0] == "zeta"

    def test_written_files_carry_schema_version(self, tmp_path):
        result = CampaignResult(program="p")
        path = str(tmp_path / "result.json")
        result.to_json(path)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["schema"] == RESULT_SCHEMA_VERSION == 2

    def test_v1_files_still_load(self, tmp_path):
        # Schema v1: no "schema" key, metadata as a JSON object.
        payload = {
            "program": "p",
            "records": [{
                "fault_id": "f1", "case_id": "a", "mode": "incorrect",
                "status": "exited", "exit_code": 0, "trap_kind": None,
                "activations": 1, "injections": 1, "instructions": 10,
                "metadata": {"alpha": "x", "zeta": 1},
            }],
        }
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload))
        loaded = CampaignResult.from_json(str(path))
        assert loaded.records[0].meta == {"alpha": "x", "zeta": 1}

    def test_unsupported_schema_is_rejected(self, tmp_path):
        path = tmp_path / "v99.json"
        path.write_text(json.dumps({"schema": 99, "program": "p", "records": []}))
        with pytest.raises(ValueError, match="schema"):
            CampaignResult.from_json(str(path))

    def test_record_to_dict_uses_ordered_pairs(self):
        record = self._record()
        payload = record.to_dict()
        assert payload["metadata"] == [["zeta", 1], ["alpha", "x"], ["mid", [1, 2]]]
        assert RunRecord.from_dict(json.loads(json.dumps(payload))) == record
