"""repro.api — the supported public surface in one stable module.

Examples, the README and downstream scripts import from here instead of
reaching into five deep module paths; anything re-exported below is the
API this project commits to keeping stable.  Typical session::

    from repro.api import (
        CampaignConfig, CampaignRunner, InputCase, boot, compile_source,
    )

    compiled = compile_source(source, "demo.c")
    runner = CampaignRunner(compiled, cases)
    result = runner.run(faults, config=CampaignConfig(jobs=4, snapshot="auto"))

Grouped by layer:

* **machine** — :func:`boot`, :class:`Machine`, :class:`Executable`,
  snapshot types;
* **lang** — :func:`compile_source`, :class:`CompiledProgram`;
* **swifi** — the What/Where/Which/When fault model, the
  :class:`InjectionSpec` tier hierarchy (:class:`MachineFault` /
  :class:`SourceFault`), the :class:`InjectionSession` engine, outcome
  classification, and the campaign layer (:class:`CampaignRunner`,
  :class:`CampaignConfig`, snapshot fast-path controls,
  ``CampaignConfig(tier="source")`` routing);
* **srcfi** — the source-level injection tier: ODC-typed mutation
  operators, the :class:`SourceLocator` site enumerator, mutant
  realization (:func:`realize_source_fault`), and the per-fault run unit
  (:func:`run_source_fault`) that every source-tier campaign executes;
* **emulation** — :class:`FaultLocator` and the §6.3
  :func:`generate_error_set` rules;
* **experiments** — :class:`ExperimentConfig` and the per-table/figure
  entry points;
* **orchestrator telemetry** — the sinks accepted by
  ``CampaignConfig(telemetry=...)``;
* **observability** — run-level tracing controls and the journal-backed
  trace reports behind ``repro trace report``;
* **planning** — the campaign planner behind
  ``CampaignConfig(prune=..., memoize=...)``: dormancy proving, outcome
  memoization, and the plan reports behind ``repro plan report``;
* **service** — the distributed campaign service behind ``repro serve``
  / ``repro work`` / ``repro submit``: the durable :class:`BrokerState`
  and its HTTP front-end, the lease/execute/report worker loop, and the
  fingerprint-keyed segment merge that reproduces a local ``--jobs 1``
  journal bit-for-bit;
* **verify** — the differential verification subsystem behind
  ``repro verify fuzz``: seeded program generation, fault sampling, the
  cross-configuration oracle, shrinking and divergence artifacts.
"""

from __future__ import annotations

from .analysis import render_stacked_bars
from .emulation import (
    ASSIGNMENT_CLASS,
    CHECKING_CLASS,
    FaultLocator,
    NotEmulableError,
)
from .emulation.operators import swap_error_type
from .emulation.rules import GeneratedErrorSet, generate_both_classes, generate_error_set
from .experiments import (
    CompareReport,
    ExperimentConfig,
    PairOutcome,
    RealFaultOutcome,
    Section6Results,
    fig7,
    fig8,
    fig9,
    fig10,
    run_hardware_comparison,
    run_metric_guidance,
    run_sec5,
    run_section6,
    run_srcfi_compare,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_trigger_ablation,
)
from .lang import CompiledProgram, compile_source
from .metrics import allocate
from .machine import (
    Executable,
    Machine,
    MachineBaseline,
    MachineSnapshot,
    RunResult,
    boot,
)
from .observability import (
    TraceReport,
    TraceStats,
    build_trace_report,
    disable_tracing,
    enable_tracing,
    export_perfetto,
    render_trace_report,
    tracing_enabled,
)
from .planning import (
    PROVENANCE_EXECUTED,
    PROVENANCE_MEMOIZED,
    PROVENANCE_PRUNED,
    CampaignPlan,
    PlannerCache,
    PlanningDivergence,
    PlanReport,
    build_plan_report,
    plan_from_records,
    render_plan_report,
)
from .orchestrator import (
    CompositeSink,
    JsonTelemetryWriter,
    ProgressRenderer,
    TelemetrySink,
)
from .srcfi import (
    OPERATORS,
    MutationOperator,
    MutationSite,
    SourceFault,
    SourceLocator,
    SourceMutant,
    generate_source_error_set,
    get_operator,
    operators_for_class,
    realize_source_fault,
    run_source_fault,
)
from .swifi import (
    ENGINE_BLOCK,
    ENGINE_SIMPLE,
    ENGINE_TRACE,
    ENGINES,
    MODE_BREAKPOINT,
    MODE_TRAP,
    RESULT_SCHEMA_VERSION,
    SNAPSHOT_AUTO,
    SNAPSHOT_OFF,
    SNAPSHOT_POLICIES,
    SNAPSHOT_VERIFY,
    TIER_MACHINE,
    TIER_SOURCE,
    TIERS,
    Action,
    Arithmetic,
    BitAnd,
    BitFlip,
    BitOr,
    CampaignConfig,
    CampaignError,
    CampaignResult,
    CampaignRunner,
    CodeWord,
    DataAccess,
    DebugResourceError,
    FailureMode,
    FetchedWord,
    InjectionSession,
    InjectionSpec,
    InputCase,
    MachineFault,
    LoadValue,
    MemoryWord,
    OpcodeFetch,
    RegisterTarget,
    RunRecord,
    SetValue,
    SnapshotCache,
    SnapshotDivergence,
    StoreValue,
    Temporal,
    WhenPolicy,
    classify,
    probe,
)
from .service import (
    BrokerClient,
    BrokerState,
    BrokerUnavailable,
    CampaignBundle,
    CampaignOptions,
    MergeConflict,
    ServiceError,
    ServiceWorker,
    campaign_id_for,
    merge_segment_files,
    run_broker,
    run_submit,
    worker_main,
    write_canonical_journal,
)
from .verify import (
    DifferentialOracle,
    Divergence,
    FuzzConfig,
    FuzzReport,
    MachineFaultRecipe,
    MatrixConfig,
    generate_program,
    replay_artifact,
    run_fuzz,
    sample_descriptors,
    shrink_case,
)
from .workloads import get_workload, table2_workloads

__all__ = [
    # machine
    "boot",
    "Machine",
    "Executable",
    "RunResult",
    "MachineBaseline",
    "MachineSnapshot",
    # lang
    "compile_source",
    "CompiledProgram",
    # injection-tier hierarchy (InjectionSpec, tier="machine"|"source")
    "InjectionSpec",
    "MachineFault",
    "SourceFault",
    "TIER_MACHINE",
    "TIER_SOURCE",
    "TIERS",
    # swifi fault model (What / Where / Which / When)
    "Action",
    "WhenPolicy",
    "OpcodeFetch",
    "DataAccess",
    "Temporal",
    "BitFlip",
    "BitAnd",
    "BitOr",
    "Arithmetic",
    "SetValue",
    "CodeWord",
    "MemoryWord",
    "RegisterTarget",
    "FetchedWord",
    "LoadValue",
    "StoreValue",
    "MODE_BREAKPOINT",
    "MODE_TRAP",
    "probe",
    # swifi engine + outcomes
    "InjectionSession",
    "DebugResourceError",
    "FailureMode",
    "classify",
    # campaign layer
    "CampaignRunner",
    "CampaignConfig",
    "CampaignResult",
    "CampaignError",
    "InputCase",
    "RunRecord",
    "RESULT_SCHEMA_VERSION",
    "ENGINE_BLOCK",
    "ENGINE_SIMPLE",
    "ENGINE_TRACE",
    "ENGINES",
    "SNAPSHOT_OFF",
    "SNAPSHOT_AUTO",
    "SNAPSHOT_VERIFY",
    "SNAPSHOT_POLICIES",
    "SnapshotCache",
    "SnapshotDivergence",
    # emulation (Table 3 / §6.3)
    "FaultLocator",
    "GeneratedErrorSet",
    "generate_error_set",
    "generate_both_classes",
    "ASSIGNMENT_CLASS",
    "CHECKING_CLASS",
    "NotEmulableError",
    "swap_error_type",
    # srcfi (source-level injection tier)
    "OPERATORS",
    "MutationOperator",
    "MutationSite",
    "SourceLocator",
    "SourceMutant",
    "generate_source_error_set",
    "get_operator",
    "operators_for_class",
    "realize_source_fault",
    "run_source_fault",
    # workloads
    "get_workload",
    "table2_workloads",
    # experiments
    "ExperimentConfig",
    "Section6Results",
    "run_section6",
    "run_sec5",
    "run_srcfi_compare",
    "CompareReport",
    "PairOutcome",
    "RealFaultOutcome",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_trigger_ablation",
    "run_hardware_comparison",
    "run_metric_guidance",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    # metrics + analysis helpers used throughout examples/
    "allocate",
    "render_stacked_bars",
    # telemetry sinks (CampaignConfig.telemetry)
    "TelemetrySink",
    "ProgressRenderer",
    "JsonTelemetryWriter",
    "CompositeSink",
    # observability (CampaignConfig.trace / repro trace report)
    "TraceReport",
    "TraceStats",
    "build_trace_report",
    "render_trace_report",
    "export_perfetto",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    # planning (CampaignConfig.prune/.memoize / repro plan report)
    "PlannerCache",
    "PlanningDivergence",
    "CampaignPlan",
    "PlanReport",
    "PROVENANCE_EXECUTED",
    "PROVENANCE_MEMOIZED",
    "PROVENANCE_PRUNED",
    "build_plan_report",
    "plan_from_records",
    "render_plan_report",
    # service (repro serve / work / submit)
    "BrokerClient",
    "BrokerState",
    "BrokerUnavailable",
    "CampaignBundle",
    "CampaignOptions",
    "MergeConflict",
    "ServiceError",
    "ServiceWorker",
    "campaign_id_for",
    "merge_segment_files",
    "run_broker",
    "run_submit",
    "worker_main",
    "write_canonical_journal",
    # verify (repro verify fuzz / replay)
    "FuzzConfig",
    "FuzzReport",
    "run_fuzz",
    "DifferentialOracle",
    "Divergence",
    "MatrixConfig",
    "MachineFaultRecipe",
    "generate_program",
    "sample_descriptors",
    "shrink_case",
    "replay_artifact",
]
