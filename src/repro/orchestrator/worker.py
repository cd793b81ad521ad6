"""The shard worker: one fresh process per shard of injection runs.

The paper reboots the target machine between injections; the run loop
reproduces that with a fresh simulated machine per run.
The orchestrator strengthens it the way a real farm would: every shard
is executed by a **fresh worker process**, so not even interpreter state
(caches, allocator, a corrupted C extension…) can leak between shards —
and a worker that dies takes only its own shard's un-journaled runs with
it.

Everything a worker needs rides in one picklable :class:`ShardTask`; the
worker streams one message per completed run back through the result
queue and finishes with a ``shard-done`` marker; every message names the
shard's attempt, so the supervisor can tell a killed attempt's late
messages from the live one's.  The supervisor treats a missing marker
(dead process, no progress within the deadline) as a shard failure and
retries only the runs whose messages never arrived.

The run loop itself — snapshot/planner/mutant cache setup, per-run
execution for both injection tiers, trace capture — is
:func:`execute_shard_runs`, the single run loop of every campaign: the
orchestrator's inline ``jobs=1`` path calls it in-process, the pool
workers call it here, and the distributed service's workers
(:mod:`repro.service.worker`) call it on leased shards.  A shard means
exactly the same thing whether it arrived through a ``multiprocessing``
queue or over the broker's HTTP lease protocol.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Sequence

from ..lang.compiler import CompiledProgram
from ..machine.loader import Executable
from ..observability import trace as _trace
from ..swifi.campaign import InputCase, RunRecord, execute_injection_run
from ..swifi.spec import TIER_SOURCE, InjectionSpec

#: Message tags on the result queue.
MSG_RUN = "run"      # (MSG_RUN, shard_id, attempt, run_index, record_dict, trace|None)
MSG_DONE = "done"    # (MSG_DONE, shard_id, attempt)
MSG_ERROR = "error"  # (MSG_ERROR, shard_id, attempt, traceback_text)

#: Exit code used by the crash-simulation hook (tests / supervision drills).
CRASH_EXIT_CODE = 17


@dataclass(frozen=True)
class ShardTask:
    """One shard's worth of work, shipped whole to a fresh process.

    ``faults``/``cases`` are compacted to just the specs this shard
    references; ``runs`` maps each serial run index to positions in those
    tuples.  ``seed`` is the shard's private RNG stream (derived by the
    scheduler from the campaign seed), kept separate per shard so results
    never depend on how the campaign was partitioned.  ``mutation_base``
    is the original program that source-tier faults mutate; it is
    ``None`` for machine-tier campaigns.
    """

    shard_id: int
    attempt: int
    program: str
    executable: Executable
    num_cores: int
    quantum: int
    budgets: dict[str, int]
    faults: tuple[InjectionSpec | None, ...]
    cases: tuple[InputCase, ...]
    runs: tuple[tuple[int, int, int], ...]  # (run_index, fault_pos, case_pos)
    seed: int
    snapshot: str = "off"  # golden-run restore policy; cache built in-process
    trace: bool = False    # per-run span tracing (repro.observability)
    engine: str = "simple"  # machine execution engine for every run
    # -- campaign planner (repro.planning); cache built in-process ------
    prune: bool = False
    memoize: bool = False
    memo_dir: str | None = None
    plan_verify: float = 0.0
    # -- source tier (repro.srcfi); mutant cache built in-process --------
    mutation_base: CompiledProgram | None = None
    # -- supervision drill hooks (exercised by the test suite) ----------
    crash: tuple[int, int] = (0, 0)      # (crashing attempts, after N runs)
    stall: tuple[int, float] = (0, 0.0)  # (stalling attempts, seconds)

    def should_crash(self, sent: int) -> bool:
        attempts, after = self.crash
        return self.attempt <= attempts and sent >= after

    def should_stall(self) -> bool:
        attempts, seconds = self.stall
        return seconds > 0 and self.attempt <= attempts


def build_shard_task(
    *,
    indices: Sequence[int],
    faults: Sequence[InjectionSpec],
    cases: Sequence[InputCase],
    budgets: dict[str, int],
    **fields,
) -> ShardTask:
    """Compact one shard of run *indices* into a self-contained task.

    *faults*/*cases*/*budgets* are the full campaign matrix; the task
    ships only the specs this shard references, with ``runs`` mapping
    each serial run index to positions in the compacted tuples.  Every
    other :class:`ShardTask` field passes through *fields*.  Shared by
    the ``multiprocessing`` supervisor and the service broker so a shard
    is built identically wherever it executes.
    """
    from .scheduler import pair_for_index

    fault_positions: dict[int, int] = {}
    case_positions: dict[int, int] = {}
    task_faults: list[InjectionSpec] = []
    task_cases: list[InputCase] = []
    runs: list[tuple[int, int, int]] = []
    for index in sorted(indices):
        fault_index, case_index = pair_for_index(index, len(cases))
        if fault_index not in fault_positions:
            fault_positions[fault_index] = len(task_faults)
            task_faults.append(faults[fault_index])
        if case_index not in case_positions:
            case_positions[case_index] = len(task_cases)
            task_cases.append(cases[case_index])
        runs.append((index, fault_positions[fault_index], case_positions[case_index]))
    return ShardTask(
        budgets={case.case_id: budgets[case.case_id] for case in task_cases},
        faults=tuple(task_faults),
        cases=tuple(task_cases),
        runs=tuple(runs),
        **fields,
    )


def execute_shard_runs(
    task: ShardTask,
    emit: Callable[[int, RunRecord, dict | None], None],
) -> None:
    """Execute every run of *task*, calling ``emit`` per completed run.

    ``emit(run_index, record, trace_payload)`` is invoked in serial-index
    order the moment each run finishes; raising from it aborts the shard
    (the service worker uses that to abandon a lease it has lost, the
    orchestrator's inline path to stop an interrupted campaign).  The
    snapshot, planner and mutant caches are built fresh for this task and
    torn down afterwards — exactly the per-worker isolation the pool
    workers have always had.  Machine-tier specs run through
    :func:`~repro.swifi.campaign.execute_injection_run`, source-tier ones
    through :func:`repro.srcfi.campaign.run_source_fault`.
    """
    previous_tracing = None
    if task.trace:
        previous_tracing = _trace.set_tracing(True)
    snapshots = None
    if task.snapshot != "off":
        # Built fresh per task: snapshots are shared by every run of
        # this shard but never cross a process boundary.
        from ..swifi.snapshot import SnapshotCache

        snapshots = SnapshotCache(
            task.executable,
            task.faults,
            num_cores=task.num_cores,
            quantum=task.quantum,
            policy=task.snapshot,
            engine=task.engine,
        )
    planner = mutants = None
    if task.mutation_base is not None:
        # Lazy import: srcfi sits above the campaign layer.
        from ..srcfi.campaign import MutantCache, run_source_fault

        mutants = MutantCache()
    try:
        if task.prune or task.memoize:
            # Built fresh per task like the snapshot cache; workers
            # share outcomes only through the on-disk memo directory.
            from ..planning import PlannerCache

            planner = PlannerCache(
                task.executable,
                task.faults,
                num_cores=task.num_cores,
                quantum=task.quantum,
                engine=task.engine,
                prune=task.prune,
                memoize=task.memoize,
                memo_dir=task.memo_dir,
                verify_fraction=task.plan_verify,
                seed=task.seed,
            )
        for run_index, fault_pos, case_pos in task.runs:
            spec = task.faults[fault_pos]
            case = task.cases[case_pos]
            if spec is not None and spec.tier == TIER_SOURCE:
                record = run_source_fault(
                    task.mutation_base,
                    spec,
                    case,
                    budget=task.budgets[case.case_id],
                    cache=mutants,
                    num_cores=task.num_cores,
                    quantum=task.quantum,
                    engine=task.engine,
                )
            else:
                record = execute_injection_run(
                    task.executable,
                    spec,
                    case,
                    budget=task.budgets[case.case_id],
                    num_cores=task.num_cores,
                    quantum=task.quantum,
                    snapshots=snapshots,
                    engine=task.engine,
                    planner=planner,
                )
            payload = _trace.take_completed() if task.trace else None
            emit(run_index, record, payload)
    finally:
        if planner is not None:
            planner.close()
        if previous_tracing is not None:
            _trace.set_tracing(previous_tracing)


def shard_worker_main(task: ShardTask, queue) -> None:
    """Entry point of a worker process: execute the shard, stream results."""
    sent = 0

    def emit(run_index: int, record: RunRecord, payload: dict | None) -> None:
        nonlocal sent
        queue.put(
            (MSG_RUN, task.shard_id, task.attempt, run_index, record.to_dict(), payload)
        )
        sent += 1
        if task.should_crash(sent):
            _die_abruptly(queue)

    try:
        if task.should_stall():
            time.sleep(task.stall[1])  # a "hung" worker for the deadline drill
        execute_shard_runs(task, emit)
        queue.put((MSG_DONE, task.shard_id, task.attempt))
    except BaseException:
        queue.put((MSG_ERROR, task.shard_id, task.attempt, traceback.format_exc()))
        _drain_and_exit(queue, 1)
        return
    _drain_and_exit(queue, 0)


def _drain_and_exit(queue, code: int) -> None:
    """Flush the queue's feeder thread, then exit without cleanup races."""
    queue.close()
    queue.join_thread()
    os._exit(code)


def _die_abruptly(queue) -> None:
    """Simulate a worker crash *after* flushing already-sent messages."""
    queue.close()
    queue.join_thread()
    os._exit(CRASH_EXIT_CODE)
