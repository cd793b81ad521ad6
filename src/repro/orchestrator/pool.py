"""The campaign orchestrator: sharded worker pool with supervision.

This is the host-side "experiment management software" scaled out: the
(fault × case) matrix is partitioned by the scheduler, each shard runs
in a fresh worker process (:mod:`.worker`), every completed run is
journaled (:mod:`.journal`) the moment its message arrives, and the
telemetry aggregator (:mod:`.telemetry`) keeps live rates and tallies.
Every campaign of either injection tier runs through here; with
``jobs=1`` the whole matrix is one shard executed in-process by the same
run loop (:func:`.worker.execute_shard_runs`) the workers use.

The shard lifecycle is :class:`.scheduler.ShardQueue`, the same one the
service broker drives; this module is only its ``multiprocessing``
transport — process launch, the result queue, the dead-worker grace
period, journal writes and telemetry:

* a worker that exits without its ``shard-done`` marker — crash, kill,
  unpicklable explosion — or whose lease runs ``shard_deadline`` seconds
  without a run message is terminated, and its shard retried with
  **only the runs whose results never arrived**;
* after ``max_attempts`` attempts the shard's remaining runs are
  recorded as failed in the journal and the campaign *continues* — one
  bad shard cannot abort 100k runs;
* the merged :class:`CampaignResult` lists records in serial order, so
  any ``--jobs`` value yields bit-identical aggregated results.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Callable

from ..lang.compiler import CompiledProgram
from ..swifi.campaign import CampaignResult, InputCase, RunRecord

# Runs execute in .worker, but perfbench/ wraps execute_injection_run by
# module attribute here too, so the name stays importable from this module.
from ..swifi.campaign import execute_injection_run  # noqa: F401
from ..swifi.spec import InjectionSpec
from .journal import CampaignJournal, JournalState, campaign_fingerprint

# The pool plans through this module's own ``plan_shards`` name, which
# perfbench/ wraps to count shards.
from .scheduler import Lease, ShardQueue, Voided, plan_shards
from .telemetry import (
    NullSink,
    TelemetryAggregator,
    TelemetrySink,
    TelemetrySnapshot,
)
from .worker import (
    MSG_DONE,
    MSG_ERROR,
    MSG_RUN,
    ShardTask,
    build_shard_task,
    execute_shard_runs,
    shard_worker_main,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..swifi.campaign import CampaignRunner

#: Grace period between noticing a dead worker and declaring its shard
#: crashed — messages the worker flushed right before dying may still be
#: in the queue's pipe buffer.
DEAD_WORKER_GRACE = 0.5

#: Supervisor poll interval.
POLL_INTERVAL = 0.05


class CampaignInterrupted(RuntimeError):
    """Raised when the orchestrator is stopped before the campaign ends.

    The journal is already closed and consistent when this propagates;
    re-running with ``resume=True`` continues from the journaled state.
    """

    def __init__(self, message: str, completed_runs: int, total_runs: int) -> None:
        super().__init__(message)
        self.completed_runs = completed_runs
        self.total_runs = total_runs


@dataclass(frozen=True)
class OrchestratorOptions:
    """Everything that shapes *how* a campaign executes (never *what*)."""

    jobs: int = 1
    journal_dir: str | None = None
    resume: bool = False
    seed: int = 0
    snapshot: str = "off"                   # golden-run restore fast path
    trace: bool = False                     # per-run span tracing
    engine: str = "simple"                  # machine execution engine
    prune: bool = False                     # planner: dormant-fault pruning
    memoize: bool = False                   # planner: outcome memoization
    memo_dir: str | None = None             # planner: on-disk memo (JSONL)
    plan_verify: float = 0.0                # planner: re-execute sample
    shard_size: int | None = None
    max_attempts: int = 3                   # per shard, then its runs fail
    shard_deadline: float | None = None     # lease timeout: seconds without a run
    interrupt_after: int | None = None      # stop after N newly executed runs
    #: Supervision drill: shard_id → (crashing attempts, crash after N runs).
    crash_shards: dict[int, tuple[int, int]] = dataclass_field(default_factory=dict)
    #: Supervision drill: shard_id → (stalling attempts, stall seconds).
    stall_shards: dict[int, tuple[int, float]] = dataclass_field(default_factory=dict)


@dataclass
class OrchestratorOutcome:
    """The merged campaign result plus orchestration bookkeeping."""

    result: CampaignResult
    snapshot: TelemetrySnapshot
    failed_runs: dict[int, str] = dataclass_field(default_factory=dict)
    resumed_runs: int = 0
    executed_runs: int = 0


@dataclass
class _Worker:
    """The process running one lease's attempt."""

    attempt: int
    process: multiprocessing.process.BaseProcess
    dead_since: float | None = None


class CampaignOrchestrator:
    """Executes one campaign matrix through the sharded worker pool."""

    def __init__(
        self,
        *,
        program: str,
        executable,
        cases: list[InputCase],
        faults: list[InjectionSpec],
        budgets: dict[str, int],
        num_cores: int = 1,
        quantum: int = 64,
        options: OrchestratorOptions | None = None,
        telemetry: TelemetrySink | None = None,
        progress: Callable[[int, int], None] | None = None,
        label: str | None = None,
        mutation_base: CompiledProgram | None = None,
    ) -> None:
        if not cases:
            raise ValueError("a campaign needs at least one input case")
        self.program = program
        self.executable = executable
        self.cases = list(cases)
        self.faults = list(faults)
        self.budgets = dict(budgets)
        self.num_cores = num_cores
        self.quantum = quantum
        self.options = options or OrchestratorOptions()
        self.telemetry = telemetry or NullSink()
        self.progress = progress
        self.label = label or program
        self.mutation_base = mutation_base  # source tier: the program to mutate
        self.total_runs = len(self.faults) * len(self.cases)

    @classmethod
    def from_runner(
        cls,
        runner: "CampaignRunner",
        faults: list[InjectionSpec],
        *,
        options: OrchestratorOptions | None = None,
        telemetry: TelemetrySink | None = None,
        progress: Callable[[int, int], None] | None = None,
        label: str | None = None,
        mutation_base: CompiledProgram | None = None,
    ) -> "CampaignOrchestrator":
        """Build an orchestrator from a calibrated :class:`CampaignRunner`."""
        runner.calibrate()
        return cls(
            program=runner.compiled.name,
            executable=runner.compiled.executable,
            cases=runner.cases,
            faults=faults,
            budgets=runner.budgets,
            num_cores=runner.num_cores,
            quantum=runner.quantum,
            options=options,
            telemetry=telemetry,
            progress=progress,
            label=label,
            mutation_base=mutation_base,
        )

    # ------------------------------------------------------------------

    def _fingerprint(self) -> dict:
        return campaign_fingerprint(
            program=self.program,
            seed=self.options.seed,
            fault_ids=[spec.fault_id for spec in self.faults],
            case_ids=[case.case_id for case in self.cases],
        )

    def _notify_progress(self, completed: int) -> None:
        if self.progress is not None:
            self.progress(completed, self.total_runs)

    # ------------------------------------------------------------------

    def run(self) -> OrchestratorOutcome:
        journal: CampaignJournal | None = None
        state = JournalState()
        if self.options.journal_dir is not None:
            journal = CampaignJournal(self.options.journal_dir, self._fingerprint())
            state = journal.open(resume=self.options.resume)
        # Drop journaled indices outside this campaign (fingerprint match
        # makes this impossible in practice, but stay defensive).
        completed = {
            index: record
            for index, record in state.records.items()
            if 0 <= index < self.total_runs
        }
        pending = [index for index in range(self.total_runs) if index not in completed]

        aggregator = TelemetryAggregator(
            label=self.label,
            total_runs=self.total_runs,
            workers=max(1, self.options.jobs),
            resumed=completed,
            tracing=self.options.trace,
        )
        self.telemetry.begin(aggregator.snapshot())
        self._notify_progress(len(completed))

        failed: dict[int, str] = {}
        try:
            if self.options.jobs <= 1:
                self._run_inline(pending, completed, journal, aggregator)
            else:
                self._run_pool(pending, completed, failed, journal, aggregator)
            if journal is not None:
                from ..planning.plan import plan_from_records

                plan = plan_from_records(
                    completed[index]
                    for index in sorted(completed)
                    if index not in failed
                )
                journal.append_plan(plan.to_dict())
        finally:
            if journal is not None:
                journal.close()

        result = CampaignResult(program=self.program)
        result.records = [
            completed[index] for index in sorted(completed) if index not in failed
        ]
        snapshot = aggregator.snapshot()
        self.telemetry.finish(snapshot)
        return OrchestratorOutcome(
            result=result,
            snapshot=snapshot,
            failed_runs=failed,
            resumed_runs=aggregator.resumed_runs,
            executed_runs=aggregator.executed,
        )

    def _accept(
        self,
        index: int,
        record: RunRecord,
        trace_payload: dict | None,
        completed: dict[int, RunRecord],
        journal: CampaignJournal | None,
        aggregator: TelemetryAggregator,
    ) -> None:
        """Journal, aggregate and report one completed run."""
        completed[index] = record
        if journal is not None:
            journal.append_record(index, record)
            if trace_payload is not None:
                journal.append_trace(index, trace_payload)
        aggregator.record_run(record, trace=trace_payload)
        self.telemetry.update(aggregator.snapshot())
        self._notify_progress(len(completed))
        if (
            self.options.interrupt_after is not None
            and aggregator.executed >= self.options.interrupt_after
        ):
            raise CampaignInterrupted(
                f"campaign stopped after {aggregator.executed} runs "
                "(interrupt_after)",
                len(completed),
                self.total_runs,
            )

    def _task(self, lease: Lease) -> ShardTask:
        return build_shard_task(
            shard_id=lease.shard_id,
            attempt=lease.attempt,
            indices=lease.indices,
            program=self.program,
            executable=self.executable,
            faults=self.faults,
            cases=self.cases,
            budgets=self.budgets,
            num_cores=self.num_cores,
            quantum=self.quantum,
            seed=lease.seed,
            snapshot=self.options.snapshot,
            trace=self.options.trace,
            engine=self.options.engine,
            prune=self.options.prune,
            memoize=self.options.memoize,
            memo_dir=self.options.memo_dir,
            plan_verify=self.options.plan_verify,
            mutation_base=self.mutation_base,
            # Drills act only in pool workers (shard_worker_main), never inline.
            crash=self.options.crash_shards.get(lease.shard_id, (0, 0)),
            stall=self.options.stall_shards.get(lease.shard_id, (0, 0.0)),
        )

    # -- inline (jobs=1) path ------------------------------------------

    def _run_inline(
        self,
        pending: list[int],
        completed: dict[int, RunRecord],
        journal: CampaignJournal | None,
        aggregator: TelemetryAggregator,
    ) -> None:
        """Every pending run as one in-process shard.

        Its seed is the campaign seed itself: one shard has no partition
        to decorrelate, and the planner's verification sample stays keyed
        on ``CampaignConfig.seed``.
        """

        def emit(index: int, record: RunRecord, trace_payload: dict | None) -> None:
            self._accept(index, record, trace_payload, completed, journal, aggregator)

        whole = Lease(shard_id=0, attempt=1, indices=tuple(pending),
                      seed=self.options.seed)
        execute_shard_runs(self._task(whole), emit)

    # -- parallel path --------------------------------------------------

    def _run_pool(
        self,
        pending: list[int],
        completed: dict[int, RunRecord],
        failed: dict[int, str],
        journal: CampaignJournal | None,
        aggregator: TelemetryAggregator,
    ) -> None:
        deadline = self.options.shard_deadline
        shards = ShardQueue(
            plan_shards(
                pending,
                jobs=self.options.jobs,
                campaign_seed=self.options.seed,
                shard_size=self.options.shard_size,
            ),
            max_attempts=self.options.max_attempts,
            lease_timeout=deadline,
        )
        if shards.finished:
            return
        results = multiprocessing.Queue()
        workers: dict[int, _Worker] = {}

        def launch(lease: Lease) -> None:
            process = multiprocessing.Process(
                target=shard_worker_main,
                args=(self._task(lease), results),
                name=f"repro-shard-{lease.shard_id}.{lease.attempt}",
                daemon=True,
            )
            process.start()
            workers[lease.shard_id] = _Worker(lease.attempt, process)

        def stop(shard_id: int, *, kill: bool = False) -> None:
            """Reap the process of the shard's lease, which just ended."""
            process = workers.pop(shard_id).process
            if kill and process.is_alive():
                process.terminate()
            process.join(timeout=5)
            if journal is not None:
                journal.sync()

        def settle(voided: Voided | None, *, kill: bool = False) -> None:
            if voided is None:
                return  # a stale attempt: the live one carries on
            stop(voided.shard_id, kill=kill)
            if voided.requeued:
                aggregator.record_retry()
            if voided.failed:
                for index in voided.failed:
                    failed[index] = voided.reason
                if journal is not None:
                    journal.append_shard_failure(
                        voided.shard_id, list(voided.failed), voided.reason
                    )
                aggregator.record_failures(len(voided.failed))
                self.telemetry.update(aggregator.snapshot())

        try:
            while not shards.finished:
                while len(workers) < self.options.jobs:
                    lease = shards.lease()
                    if lease is None:
                        break
                    launch(lease)

                try:
                    message = results.get(timeout=POLL_INTERVAL)
                except queue_module.Empty:
                    message = None

                if message is not None:
                    tag, shard_id, attempt = message[:3]
                    if tag == MSG_RUN:
                        _, _, _, run_index, payload, trace_payload = message
                        shards.mark_done(run_index)
                        shards.renew(shard_id, attempt)
                        if run_index not in completed:
                            self._accept(
                                run_index, RunRecord.from_dict(payload),
                                trace_payload, completed, journal, aggregator,
                            )
                    elif tag == MSG_DONE:
                        if shards.complete(shard_id, attempt):
                            stop(shard_id)
                        else:
                            settle(shards.void(
                                shard_id, attempt,
                                "worker finished without reporting every run",
                            ))
                    elif tag == MSG_ERROR:
                        settle(shards.void(
                            shard_id, attempt, f"worker exception:\n{message[3]}"
                        ))
                    continue  # drain the queue before health checks

                for voided in shards.expire(lambda *_: (
                    f"shard made no progress within its {deadline:.1f}s deadline"
                )):
                    settle(voided, kill=True)
                now = time.monotonic()
                for shard_id, worker in list(workers.items()):
                    if worker.process.is_alive():
                        continue
                    # Give flushed-but-unread messages time to arrive.
                    if worker.dead_since is None:
                        worker.dead_since = now
                    elif now - worker.dead_since > DEAD_WORKER_GRACE:
                        settle(shards.void(
                            shard_id, worker.attempt,
                            f"worker died with exit code {worker.process.exitcode}",
                        ))
        except BaseException:
            for worker in workers.values():
                if worker.process.is_alive():
                    worker.process.terminate()
            for worker in workers.values():
                worker.process.join(timeout=5)
            raise
        finally:
            results.close()
            results.join_thread()
