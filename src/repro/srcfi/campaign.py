"""Source-tier campaign execution.

``CampaignConfig(tier="source")`` campaigns run through the same
orchestrator as machine-tier ones: the shard run loop
(:func:`repro.orchestrator.worker.execute_shard_runs`) hands every
:class:`~repro.srcfi.spec.SourceFault` run to :func:`run_source_fault`.
That compiles the fault's mutant binary (cached per shard) and runs it
*fault-free* through the very same
:func:`repro.swifi.campaign.execute_injection_run` unit the machine tier
uses — same calibrated hang budgets (derived from the *original*
program's fault-free runs, so both tiers are judged against the same
clock), same failure-mode classification, same record schema.  So the
tier gets the orchestrator's fingerprinted, resumable journal, shard
supervision, telemetry and tracing like the machine tier.

Snapshot restore and the campaign planner reason about machine-level
trigger/action structure that source faults do not have, so
``snapshot``/``prune``/``memoize`` raise
:class:`~repro.swifi.campaign.CampaignError` (:func:`_check_config`).
"""

from __future__ import annotations

from dataclasses import replace

from ..lang.compiler import CompiledProgram
from ..swifi.campaign import (
    SNAPSHOT_OFF,
    CampaignConfig,
    CampaignError,
    InputCase,
    RunRecord,
    execute_injection_run,
)
from .mutator import MutantCache, SrcfiError, realize_source_fault
from .spec import SourceFault


def _check_config(config: CampaignConfig) -> None:
    if config.snapshot != SNAPSHOT_OFF:
        raise CampaignError(
            "snapshot restore is a machine-tier fast path; source-tier "
            "campaigns run mutant binaries and need snapshot='off'"
        )
    if config.prune or config.memoize or config.plan_verify > 0.0:
        raise CampaignError(
            "the campaign planner reasons about machine-level triggers; "
            "it does not apply to tier='source' campaigns"
        )


def _check_faults(faults: list) -> None:
    for fault in faults:
        if not isinstance(fault, SourceFault):
            raise CampaignError(
                f"tier='source' campaigns take SourceFault specs, got "
                f"{type(fault).__name__} ({getattr(fault, 'fault_id', fault)!r})"
            )


def run_source_fault(
    compiled: CompiledProgram,
    fault: SourceFault,
    case: InputCase,
    *,
    budget: int,
    cache: MutantCache,
    num_cores: int,
    quantum: int,
    engine: str,
) -> RunRecord:
    """One source-tier run: realize *fault*'s mutant of *compiled*, run *case*.

    The mutant comes from *cache* (built per shard, like the snapshot
    cache), so a fault's cases compile it once.  A mutation that cannot
    be realized is a tool fault, raised as :class:`CampaignError` and
    never journaled as an outcome of the workload.
    """
    try:
        mutant = realize_source_fault(compiled, fault, cache)
    except SrcfiError as error:
        raise CampaignError(str(error)) from error
    base = execute_injection_run(
        mutant.compiled.executable,
        None,
        case,
        budget=budget,
        num_cores=num_cores,
        quantum=quantum,
        engine=engine,
    )
    # The mutation is compiled in, so the "fault" is present and active
    # on every instruction: record it as one activation/injection, with
    # the SourceFault's identity and metadata.
    return replace(
        base,
        fault_id=fault.fault_id,
        metadata=fault.metadata,
        activations=1,
        injections=1,
    )
