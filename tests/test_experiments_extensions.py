"""Tests for the extension experiments: probes, exposure chain, A2/A3."""

import pytest

from repro.experiments import (
    ExperimentConfig,
    run_exposure,
    run_hardware_comparison,
    run_trigger_ablation,
)
from repro.lang import compile_source
from repro.machine import boot
from repro.swifi import FailureMode, InjectionSession, probe


class TestProbe:
    SOURCE = """
    void main() {
        int i;
        int s = 0;
        for (i = 0; i < 7; i++) { s += i; }
        print_int(s);
        exit(0);
    }
    """

    def test_probe_counts_without_perturbing(self):
        compiled = compile_source(self.SOURCE, "probed")
        clean = boot(compiled.executable).run()
        site = compiled.debug.assignments[-1]  # the loop-body store
        machine = boot(compiled.executable)
        session = InjectionSession(machine)
        session.arm(probe("p", site.address))
        result = session.run()
        assert result.console == clean.console
        assert result.status == "exited"
        assert session.activation_count("p") == 7

    def test_probe_metadata(self):
        spec = probe("p", 0x1000)
        assert spec.meta["kind"] == "probe"

    def test_probe_consumes_breakpoint_registers(self):
        compiled = compile_source(self.SOURCE, "probed")
        machine = boot(compiled.executable)
        session = InjectionSession(machine)
        session.arm(probe("a", compiled.executable.entry))
        session.arm(probe("b", compiled.executable.entry + 4))
        from repro.swifi import DebugResourceError

        with pytest.raises(DebugResourceError):
            session.arm(probe("c", compiled.executable.entry + 8))


@pytest.fixture(scope="module")
def exposure():
    """One tiny exposure-chain run shared by both tests (it is the slowest
    computation in the tier-1 suite)."""
    return run_exposure(ExperimentConfig.tiny())


class TestExposure:
    def test_exposure_rows_for_emulable_faults(self, exposure):
        result = exposure
        fault_ids = {row.fault_id for row in result.rows}
        # The three faults with a single machine anchor.
        assert fault_ids == {"C.team1", "C.team4", "JB.team6"}
        for row in result.rows:
            assert 0.0 <= row.p1 <= 1.0
            assert row.p_fail <= row.p1 + 1e-9
            assert row.p2_p3 <= 1.0

    def test_render(self, exposure):
        text = exposure.render()
        assert "p1" in text and "p2*p3" in text


class TestTriggerAblation:
    def test_policies_and_monotone_activation(self):
        result = run_trigger_ablation(ExperimentConfig.tiny(), nth=40)
        assert set(result.policies) == {
            "every execution", "first execution only", "40th execution only"
        }
        assert result.activated["every execution"] == 1.0
        assert result.activated["40th execution only"] <= 1.0
        for distribution in result.policies.values():
            assert sum(distribution.values()) == pytest.approx(100.0)

    def test_render(self):
        result = run_trigger_ablation(ExperimentConfig.tiny())
        assert "Ablation A2" in result.render()


class TestHardwareComparison:
    def test_populations_present(self):
        result = run_hardware_comparison(ExperimentConfig.tiny(), hardware_faults=8)
        assert set(result.populations) == {
            "software:assignment", "software:checking", "hardware:random"
        }
        for distribution in result.populations.values():
            assert sum(distribution.values()) == pytest.approx(100.0)

    def test_software_sets_never_dormant(self):
        result = run_hardware_comparison(ExperimentConfig.tiny(), hardware_faults=8)
        assert result.dormant["software:assignment"] == 0.0
        assert result.dormant["software:checking"] == 0.0

    def test_distance_metric(self):
        result = run_hardware_comparison(ExperimentConfig.tiny(), hardware_faults=8)
        assert 0.0 <= result.distance("software:assignment", "hardware:random") <= 1.0
        assert "Ablation A3" in result.render()
