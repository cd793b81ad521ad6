"""Layer probes for the traced run, kept outside the program.

:class:`LayerProbe` wraps the public functions each layer exposes
(compile, error-set generation, calibration, boot, machine execution,
snapshot restore, classification, journal appends, mutant realisation)
and times every call.  It also switches on the program's own span tracer
(``repro.observability.trace``) and drains one payload per run, which
carries what only the engine can see: compile time and the block/trace
compile and invalidation counters.

Pool workers are forked, so they inherit the wrappers.  Each process
appends its totals to ``events-<pid>.jsonl`` once per run, because a
pool worker ends with ``os._exit`` and never flushes on exit;
:func:`collect` sums every file.  Totals are split by phase: ``setup``
until the campaigns are built and calibrated, ``timed`` after.
"""

from __future__ import annotations

import glob
import json
import os
import time
from collections import Counter


class LayerProbe:
    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.phase = "setup"
        self.totals: Counter = Counter()
        self._fd: int | None = None
        self._factory_seen = (0, 0)
        os.register_at_fork(after_in_child=self._forked)

    # -- accounting ------------------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        self.totals[f"{self.phase}:{name}"] += value

    def _forked(self) -> None:
        # The child inherits the parent's unflushed totals, open file and
        # factory-cache counters; the parent accounts for all three.
        self.totals = Counter()
        self._fd = None
        self._factory_seen = _factory_counts()

    def _factory_delta(self) -> None:
        hits, misses = _factory_counts()
        seen_hits, seen_misses = self._factory_seen
        self.add("factory.hits", hits - seen_hits)
        self.add("factory.misses", misses - seen_misses)
        self._factory_seen = (hits, misses)

    def flush(self) -> None:
        self._factory_delta()
        if not self.totals:
            return
        if self._fd is None:
            path = os.path.join(self.directory, f"events-{os.getpid()}.jsonl")
            self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.write(self._fd, (json.dumps(self.totals) + "\n").encode())
        self.totals = Counter()

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.add(name + ".s", time.perf_counter() - start)
                self.add(name + ".n")
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, self._timed(name, getattr(owner, attr), after))

    def install(self) -> None:
        """Wrap every probed function and switch the span tracer on."""
        import repro.experiments.campaign6 as campaign6
        import repro.orchestrator.pool as pool
        import repro.orchestrator.worker as worker
        import repro.srcfi as srcfi
        import repro.srcfi.campaign as srcfi_campaign
        import repro.srcfi.mutator as mutator
        import repro.swifi.campaign as campaign
        import repro.swifi.snapshot as snapshot
        import repro.workloads.base as workload_base
        from repro.machine.machine import Machine
        from repro.observability import trace
        from repro.orchestrator.journal import CampaignJournal

        def count_faults(_args, error_set):
            self.add("faults", len(error_set.faults))

        def count_shards(_args, shards):
            self.add("shards", len(shards))

        def snapshot_path(args, _record):
            path, reason = args[0].last_path
            self.add(f"path.{path}")
            if reason:
                self.add(f"reason.{reason}")

        def run_payload(_args, _record):
            payload = trace.take_completed()
            if payload is not None:
                for phase, seconds in payload["phases"].items():
                    self.add(f"phase.{phase}", seconds)
                for counter, value in payload["counters"].items():
                    self.add(f"counter.{counter}", value)
            self.flush()

        self._patch(workload_base, "compile_source", "compile")
        self._patch(mutator, "compile_tree", "compile")
        self._patch(campaign6, "generate_error_set", "error_set", count_faults)
        self._patch(srcfi, "generate_source_error_set", "error_set", count_faults)
        self._patch(campaign.CampaignRunner, "calibrate_case", "calibrate")
        for module in (campaign, snapshot):
            self._patch(module, "boot", "boot")
            self._patch(module, "classify", "classify")
        for module in (campaign, pool, worker, srcfi_campaign):
            self._patch(module, "execute_injection_run", "run", run_payload)
        self._patch(snapshot.SnapshotCache, "execute", "snapshot_execute", snapshot_path)
        self._patch(Machine, "restore", "restore")
        self._patch(CampaignJournal, "append_record", "journal_append")
        self._patch(srcfi_campaign, "realize_source_fault", "realize")
        self._patch(pool, "plan_shards", "plan_shards", count_shards)

        machine_run = Machine.run

        def run(machine, *args, **kwargs):
            start, instret = time.perf_counter(), machine.instret
            try:
                return machine_run(machine, *args, **kwargs)
            finally:
                self.add("machine_run.s", time.perf_counter() - start)
                self.add("machine_run.instret", machine.instret - instret)

        Machine.run = run
        self._factory_seen = _factory_counts()
        trace.enable_tracing()


def _factory_counts() -> tuple[int, int]:
    from repro.machine.blocks import factory_cache_stats

    stats = factory_cache_stats()
    return stats["hits"], stats["misses"]


def collect(directory: str) -> Counter:
    """Sum the totals every process of the traced run wrote."""
    totals: Counter = Counter()
    for path in glob.glob(os.path.join(directory, "events-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                totals.update(json.loads(line))
    return totals
