"""The unified injection-spec hierarchy: one surface, two tiers.

The reproduction now has two injection backends:

* the **machine tier** (``tier="machine"``) — the SWIFI tool of the
  paper: word-level corruptions armed on the original binary through the
  debug unit (:class:`repro.swifi.faults.MachineFault`, and the verify
  fuzzer's portable :class:`repro.verify.sampler.MachineFaultRecipe`);
* the **source tier** (``tier="source"``) — ODC-typed AST mutations
  compiled into a mutant binary (:class:`repro.srcfi.SourceFault`), the
  G-SWFIT-style answer to the paper's "~44% of field faults are not
  emulable at machine level" negative result.

:class:`InjectionSpec` is the common base: every concrete spec names its
``tier``, yields a stable ``spec_id`` and renders a one-line
``describe()``.  Campaign plumbing (``CampaignConfig(tier=...)``, the
CLI's ``--tier``) selects a backend by the same two strings.
"""

from __future__ import annotations

TIER_MACHINE = "machine"
TIER_SOURCE = "source"
TIERS = (TIER_MACHINE, TIER_SOURCE)


class InjectionSpec:
    """Base class of every fault specification, machine- or source-tier.

    Concrete subclasses are frozen dataclasses; the base carries only the
    tier contract so that ``isinstance(spec, InjectionSpec)`` and
    ``spec.tier`` work uniformly across backends.
    """

    #: Which injection backend realizes this spec ("machine" | "source").
    tier: str = TIER_MACHINE

    @property
    def spec_id(self) -> str:
        """Stable identifier, unique within one campaign's fault list."""
        raise NotImplementedError  # pragma: no cover - interface

    def describe(self) -> str:  # pragma: no cover - interface
        raise NotImplementedError


__all__ = [
    "InjectionSpec",
    "TIER_MACHINE",
    "TIER_SOURCE",
    "TIERS",
]
