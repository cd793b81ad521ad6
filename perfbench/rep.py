"""One repetition of a workload, in a fresh process started by run.py.

Modes:

* ``setup``  — build and calibrate the campaigns, report ``setup_s``;
* ``timed``  — set up, then run the campaigns in passes: as many as
  ``Workload.passes(--seconds)`` gives, and enough for ``MIN_RUNS`` runs;
  with ``--trace`` the layer probes (probes.py) are installed first.
  Then, untimed, one run on inputs drawn from ``--seed``, on the
  workload's path and on the reference path;
* ``reference`` — every timed campaign on the paper-faithful path
  (``engine="simple"``, ``snapshot="off"``, ``jobs=1``).

The result is one JSON object written to ``--out``.  Runs are numbered in
record order: campaign by campaign, fault-major within a campaign.

Times are CPU seconds of the whole process tree (this process, its pool
workers), scaled to a reference machine speed.  The speed is sampled
all through the work with a fixed toy emulator (``loop_cpu_s``), in
CPU time of the thread that runs it.  Every campaign is divided by the
median of the samples taken during it, and every run time by the median
of those taken within ``LOCAL_WINDOW_S`` of the run.  On a shared VM the
same work takes up to twice as long from one minute to the next; CPU
time leaves out the time the VM or the scheduler did not give the
benchmark, and the toy emulator cancels the steps in the CPU's own
speed.  NOTES.md gives the measurements.
"""

from __future__ import annotations

import argparse
import bisect
import glob
import hashlib
import json
import math
import multiprocessing
import os
import random
import resource
import statistics
import sys
import threading
import time

from repro.orchestrator.telemetry import TelemetrySink
from workloads import MIN_RUNS, WORKLOADS, build_campaigns, runners

#: Instructions the calibration emulator executes per speed sample:
#: about 3 ms of CPU on a 2-vCPU VM.
LOOP_STEPS = 8_000
#: CPU seconds a speed sample takes at the reference speed, which is
#: about that of a 2-vCPU VM: reported times are in seconds at it.
REFERENCE_LOOP_S = 0.003
#: Seconds between two speed samples of one process.
SAMPLE_EVERY_S = 0.25
#: A run's time is scaled by the speed samples taken during it and this
#: many seconds either side.
LOCAL_WINDOW_S = 1.0


def _calibration_emulator():
    """A toy register machine, built like the program's own emulator.

    Instructions are tuples dispatched to closures over a register list
    and a 256K-word memory list.  A tight arithmetic loop tracks the
    program's speed badly: the program spends its time in dispatch and
    in memory far beyond the first-level caches, and the VM's speed steps
    hit those less than they hit a loop that lives in the first-level
    cache (NOTES.md, "Steadiness").
    """
    regs = [0] * 16
    memory = [0] * (1 << 18)

    def add(a, b, c):
        regs[a] = (regs[b] + regs[c]) & 0xFFFFFFFF

    def addi(a, b, c):
        regs[a] = (regs[b] + c) & 0xFFFFFFFF

    def load(a, b, c):
        regs[a] = memory[(regs[b] + c) & 0x3FFFF]

    def store(a, b, c):
        memory[(regs[b] + c) & 0x3FFFF] = regs[a]

    def xor(a, b, c):
        regs[a] = regs[b] ^ regs[c]

    def scramble(a, b, c):
        regs[a] = (regs[b] * 2654435761) & 0xFFFFFFFF

    program = [
        (addi, 1, 1, 1), (scramble, 2, 1, 0), (load, 3, 2, 0), (add, 4, 4, 3),
        (store, 4, 2, 7), (xor, 5, 5, 2), (load, 6, 5, 0), (addi, 7, 7, 13),
    ]

    def run(steps: int) -> None:
        pc = 0
        for _ in range(steps):
            op, a, b, c = program[pc]
            op(a, b, c)
            pc = (pc + 1) & 7

    return run


_CALIBRATION_RUN = _calibration_emulator()


def loop_cpu_s() -> float:
    """CPU seconds this thread takes for one speed sample, now.

    A trace or profile function the program left set would slow the
    sample along with the program and hide the slowdown, so both are
    cleared while it runs.
    """
    trace, profile = sys.gettrace(), sys.getprofile()
    sys.settrace(None)
    sys.setprofile(None)
    try:
        start = time.thread_time()
        _CALIBRATION_RUN(LOOP_STEPS)
        return time.thread_time() - start
    finally:
        sys.settrace(trace)
        sys.setprofile(profile)


def tree_cpu() -> float:
    """CPU seconds of this process and of the children it has reaped.

    Every campaign joins its pool workers before it returns, so between
    campaigns this is the CPU time of the whole process tree.
    """
    multiprocessing.active_children()  # reaps any worker that has ended
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + usage.ru_utime + usage.ru_stime


class Sampler:
    """Speed samples and run times of this process and its forked children.

    Each process appends lines to ``times-<pid>.txt`` in *directory*:
    ``s <monotonic time> <CPU s>`` for a speed sample, taken every
    ``SAMPLE_EVERY_S`` seconds by a daemon thread (about 1% of a CPU),
    and ``r <monotonic time> <CPU s>`` for each injection run, timed on
    the thread that runs it by a wrapper around ``execute_injection_run``.
    Pool workers are forked, and an at-fork hook starts their thread, so
    a campaign's speed is measured on the CPUs its workers ran on.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._start()
        os.register_at_fork(after_in_child=self._start)

    def _start(self) -> None:
        path = os.path.join(self.directory, f"times-{os.getpid()}.txt")
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

        def sample() -> None:
            # The first call runs before the interpreter has specialised
            # the emulator's bytecode, and is slower than every later one.
            loop_cpu_s()
            while True:
                self._write("s", loop_cpu_s())
                time.sleep(SAMPLE_EVERY_S)

        threading.Thread(target=sample, name="perfbench-speed", daemon=True).start()

    def _write(self, kind: str, cpu_s: float) -> None:
        os.write(self._fd, f"{kind} {time.monotonic()!r} {cpu_s!r}\n".encode())

    def time_runs(self) -> None:
        """Time every injection run, in every module that calls one."""
        import repro.orchestrator.pool as pool
        import repro.orchestrator.worker as worker
        import repro.srcfi.campaign as srcfi_campaign
        import repro.swifi.campaign as campaign

        def timed(execute):
            def run(*args, **kwargs):
                start = time.thread_time()
                try:
                    return execute(*args, **kwargs)
                finally:
                    self._write("r", time.thread_time() - start)

            return run

        for module in (campaign, pool, worker, srcfi_campaign):
            module.execute_injection_run = timed(module.execute_injection_run)

    def between(self, start: float, end: float) -> tuple[float, float, list[float]]:
        """(slowness, CPU of the speed samples, scaled run times) from *start* to *end*.

        Slowness is the median speed sample over its reference time: 2.0
        means the machine ran at half the reference speed.  A window with
        no speed sample takes the one nearest to it.  Each run time is
        scaled by the slowness of the samples taken within
        ``LOCAL_WINDOW_S`` of the run, because the VM's speed moves in
        steps of a few seconds, shorter than most campaigns.
        """
        speeds: list[tuple[float, float]] = []
        runs: list[tuple[float, float]] = []
        for path in glob.glob(os.path.join(self.directory, "times-*.txt")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    if line.endswith("\n"):  # not a line still being written
                        kind, at, cpu_s = line.split()
                        (speeds if kind == "s" else runs).append((float(at), float(cpu_s)))
        speeds.sort()
        times = [at for at, _ in speeds]

        def slowness(lo: float, hi: float) -> float:
            window = [c for _, c in speeds[bisect.bisect_left(times, lo):
                                           bisect.bisect_right(times, hi)]]
            if not window:
                middle = (lo + hi) / 2
                window = [min(speeds, key=lambda sample: abs(sample[0] - middle))[1]]
            return statistics.median(window) / REFERENCE_LOOP_S

        slow = slowness(start, end)
        spent = sum(c for at, c in speeds if start <= at <= end)
        scaled = [
            cpu_s / slowness(at - cpu_s - LOCAL_WINDOW_S, at + LOCAL_WINDOW_S)
            for at, cpu_s in runs if start <= at <= end
        ]
        return slow, spent, scaled


def record_hash(label: str, record) -> str:
    """Short hash of the record's full serialisation, campaign label included."""
    line = json.dumps([label, record.to_dict()], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(line.encode()).hexdigest()[:16]


class Progress:
    """``progress`` callback: when the campaign's first record came."""

    def __init__(self) -> None:
        self.start = time.monotonic()
        self.first: float | None = None

    def __call__(self, done: int, _total: int) -> None:
        if self.first is None and done > 0:
            self.first = time.monotonic() - self.start


def peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


class LastSnapshot(TelemetrySink):
    """Keeps the latest telemetry snapshot (failed runs, retries)."""

    snapshot = None

    def begin(self, snapshot):
        self.snapshot = snapshot

    update = finish = begin


def run_pass(workload, specs, sampler: Sampler, workdir: str, index: int) -> dict:
    """One pass over every campaign; times in reference-speed seconds."""
    start = time.monotonic()
    hashes, summaries, samples, first, journals, slowness = [], [], [], [], [], []
    instructions = expected = failed_runs = retries = 0
    seconds = 0.0
    for spec in specs:
        journal_dir = None
        if workload.journal:
            journal_dir = os.path.join(workdir, f"pass{index}", spec.journal_name)
            journals.append(journal_dir)
        # A telemetry sink moves a serial campaign onto the orchestrator
        # path, so only campaigns that are there anyway get one.
        telemetry = None
        if workload.tier == "machine" and (workload.jobs > 1 or workload.journal):
            telemetry = LastSnapshot()
        progress, cpu0 = Progress(), tree_cpu()
        result = spec.runner.run(
            spec.error_set.faults,
            progress=progress,
            config=workload.campaign_config(
                journal_dir=journal_dir, telemetry=telemetry, label=spec.label,
            ),
        )
        cpu = tree_cpu() - cpu0
        slow, spent, runs = sampler.between(progress.start, time.monotonic())
        slowness.append(slow)
        seconds += (cpu - spent) / slow
        samples += runs
        expected += len(spec.error_set.faults) * len(spec.runner.cases)
        if telemetry is not None and telemetry.snapshot is not None:
            failed_runs += telemetry.snapshot.failed_runs
            retries += telemetry.snapshot.retries
        if progress.first is not None:
            first.append(progress.first)
        for record in result.records:
            hashes.append(record_hash(spec.label, record))
            summaries.append([record.mode.value, record.instructions, record.activations])
            instructions += record.instructions
    return {
        "seconds": seconds,
        "wall_s": time.monotonic() - start,
        "slowness": statistics.median(slowness),
        "runs": len(hashes),
        "expected": expected,
        "instructions": instructions,
        "hashes": hashes,
        "records": summaries,
        "samples": samples,
        "first_record_s": first,
        "failed_runs": failed_runs,
        "retries": retries,
        "journal_bytes": sum(
            os.path.getsize(os.path.join(d, name))
            for d in journals for name in os.listdir(d)
        ),
    }


def reference_config(workload):
    """The paper-faithful path: interpreter, fresh boot per run, serial."""
    return workload.campaign_config(engine="simple", snapshot="off", jobs=1)


def reference(workload, specs) -> list[str]:
    """Record hashes of every timed campaign on the paper-faithful path."""
    from repro.swifi.campaign import CampaignRunner

    hashes = []
    for spec in specs:
        runner = CampaignRunner(
            spec.runner.compiled, spec.runner.cases,
            num_cores=spec.runner.num_cores, budget_factor=spec.runner.budget_factor,
        )
        result = runner.run(spec.error_set.faults, config=reference_config(workload))
        hashes += [record_hash(spec.label, record) for record in result.records]
    return hashes


def check(workload, specs, seed: int, workdir: str) -> dict:
    """One run on inputs drawn from *seed*, on the workload's path and the reference.

    The fault comes from the workload's fault sets and the data set is new,
    so every seed puts the program through inputs the timed campaigns do
    not contain.
    """
    from repro.swifi.campaign import CampaignRunner
    from repro.workloads import get_workload

    rng = random.Random(seed)
    spec = rng.choice(specs)
    fault = rng.choice(spec.error_set.faults)
    case = get_workload(spec.program).make_cases(1, seed=seed)[0]
    journal_dir = os.path.join(workdir, "check") if workload.journal else None
    hashes = []
    for config in (workload.campaign_config(journal_dir=journal_dir), reference_config(workload)):
        runner = CampaignRunner(
            spec.runner.compiled, [case],
            num_cores=spec.runner.num_cores, budget_factor=spec.runner.budget_factor,
        )
        runner.engine = config.engine
        (record,) = runner.run([fault], config=config).records
        hashes.append(record_hash(spec.label, record))
    return {"run": f"{spec.label} {fault.fault_id} {case.case_id}", "hashes": hashes}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "timed", "reference"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--data-seed", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0, help="inputs of the check run")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    probe = None
    if args.trace:
        from probes import LayerProbe

        probe = LayerProbe(args.workdir)
        probe.install()

    sampler = Sampler(args.workdir)
    start = time.monotonic()
    specs = build_campaigns(workload, args.data_seed)
    out: dict = {}
    if args.mode == "reference":
        out["hashes"] = reference(workload, specs)
    else:
        for runner in runners(specs):
            # CampaignRunner.run sets the engine only when it starts, so
            # without this the golden runs would use the interpreter.
            runner.engine = workload.engine
            runner.calibrate()
        # The process's CPU time from its start, imports included.
        cpu = time.process_time()
        slow, spent, _ = sampler.between(start, time.monotonic())
        out["setup_s"] = (cpu - spent) / slow
    if args.mode == "timed":
        if probe is not None:
            probe.flush()
            probe.phase = "timed"
        # The pass count is fixed before the clock starts, so every
        # repetition measures the same work however fast the machine is.
        pass_runs = sum(len(s.error_set.faults) * len(s.runner.cases) for s in specs)
        n_passes = max(workload.passes(args.seconds), math.ceil(MIN_RUNS / pass_runs))
        sampler.time_runs()
        cpu0, start = tree_cpu(), time.monotonic()
        passes = [
            run_pass(workload, specs, sampler, args.workdir, i) for i in range(n_passes)
        ]
        out["timed_s"] = time.monotonic() - start
        out["cpu_s"] = tree_cpu() - cpu0
        out["peak_rss_mb"] = peak_rss_mb()
        out["passes"] = passes
        if probe is not None:
            probe.flush()
            probe.phase = "check"
        out["check"] = check(workload, specs, args.seed, args.workdir)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
