"""The InjectionSpec tier hierarchy: SourceFault identity and the API surface."""

import warnings

import pytest

from repro.srcfi import SourceFault
from repro.swifi import (
    TIER_MACHINE,
    TIER_SOURCE,
    TIERS,
    InjectionSpec,
    MachineFault,
)


class TestTiers:
    def test_tier_constants(self):
        assert TIER_MACHINE == "machine"
        assert TIER_SOURCE == "source"
        assert set(TIERS) == {"machine", "source"}

    def test_both_tiers_are_injection_specs(self):
        assert issubclass(MachineFault, InjectionSpec)
        assert issubclass(SourceFault, InjectionSpec)
        assert MachineFault.tier == TIER_MACHINE
        assert SourceFault.tier == TIER_SOURCE


class TestSourceFault:
    def test_identity_and_spec_id(self):
        fault = SourceFault(operator="assign-plus-1", site_index=3)
        assert fault.fault_id == "sf:assign-plus-1:3"
        assert fault.spec_id == fault.fault_id
        assert fault.tier == TIER_SOURCE

    def test_metadata_round_trip(self):
        fault = SourceFault(
            operator="bound-swap", site_index=0,
        ).with_metadata(program="SOR", klass="checking", line=12)
        assert fault.meta["program"] == "SOR"
        restored = SourceFault.from_dict(fault.to_dict())
        assert restored == fault
        assert restored.meta == fault.meta

    def test_describe_names_operator_and_site(self):
        fault = SourceFault(operator="check-invert", site_index=1)
        text = fault.describe()
        assert "check-invert" in text
        assert "source" in text

    def test_frozen(self):
        fault = SourceFault(operator="call-omit", site_index=0)
        with pytest.raises(Exception):
            fault.operator = "other"


class TestLegacyShims:
    def test_machine_fault_does_not_warn(self):
        from repro.swifi.faults import (
            Action,
            Arithmetic,
            OpcodeFetch,
            StoreValue,
        )

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            MachineFault(
                "modern", OpcodeFetch(0),
                (Action(StoreValue(), Arithmetic(1)),),
            )
