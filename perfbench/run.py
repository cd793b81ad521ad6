"""Benchmark of the §6 campaign pipeline, end to end and per layer.

    python3 perfbench/run.py --workload camelot-swifi --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Every repetition is a fresh process
(rep.py) with ``PYTHONPATH=src`` and ``REPRO_CODE_CACHE`` pointing at the
benchmark's own code cache under ``.perfbench/``; the first invocation for
a workload in a checkout warms that cache in an untimed pass.

``--trace 0`` reports the end-to-end metrics: the median set-up time of
several fresh processes, and the timed phase of the last one.  Times are
CPU seconds of the process tree (driver and pool workers), scaled to a
reference machine speed that rep.py samples all through the run: on a
shared VM the wall time of identical work moved by more than any bound a
regression gate could use (NOTES.md, "Steadiness").
``--trace 1`` runs the timed phase twice, without and with the layer
probes (probes.py), and reports the per-layer metrics of the traced run
plus the tracing overhead.  The timed campaigns are built at
``--data-seed`` and every one of their records is checked against the
stored hashes of the paper-faithful path (``engine="simple"``,
``snapshot="off"``, ``jobs=1``) in reference.json.  ``--seed`` draws the
inputs of one more run that is executed on both paths and compared.  The
last line of standard output is one JSON object; the exit code is 1 when
any run failed or differs from the reference.

``--write-reference`` recomputes reference.json (slow: the reference path
is the interpreter).  NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

#: Set-up-only processes: with the timed process they give the samples
#: whose median is ``setup_s``.
SETUP_PROBES = 2
#: Seconds any one child process may take.
CHILD_TIMEOUT = 170
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: The snapshot fast path's fallback reasons that BENCHMARK.json lists
#: (``repro.observability.trace.FALLBACK_REASONS``).
FALLBACK_REASONS = (
    "temporal-trigger", "trap-mode", "multi-core", "cache-miss", "golden-run-exit",
)


class BenchError(RuntimeError):
    pass


class Bench:
    def __init__(self, root: str, workload: str, seed: int, data_seed: int) -> None:
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.data_seed = data_seed
        state = os.path.join(root, ".perfbench")
        self.cache = os.path.join(state, "code-cache")
        os.makedirs(self.cache, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="work-", dir=state)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.env["REPRO_CODE_CACHE"] = self.cache
        # The same string hashes, and so the same dict and set orders and
        # the same work, in every repetition.
        self.env["PYTHONHASHSEED"] = "0"
        self.children = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, mode: str, *extra: str, timeout: float | None = CHILD_TIMEOUT) -> dict:
        """Run rep.py in a fresh process and return its JSON result."""
        self.children += 1
        workdir = os.path.join(self.work, f"{mode}-{self.children}")
        os.makedirs(workdir)
        out = os.path.join(workdir, "result.json")
        command = [
            sys.executable, os.path.join(HERE, "rep.py"), "--mode", mode,
            "--workload", self.workload.name, "--seed", str(self.seed),
            "--data-seed", str(self.data_seed),
            "--workdir", workdir, "--out", out, *extra,
        ]
        # A session of its own, so that a timeout also stops the pool
        # workers the repetition forked.
        child = subprocess.Popen(
            command, cwd=self.root, env=self.env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            _, stderr = child.communicate(timeout=timeout)
        except BaseException as error:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            if isinstance(error, subprocess.TimeoutExpired):
                raise BenchError(f"{mode} repetition exceeded {timeout}s") from error
            raise
        if child.returncode != 0:
            raise BenchError(f"{mode} repetition failed:\n{stderr[-4000:]}")
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        result["workdir"] = workdir
        return result

    def timed(self, seconds: float, trace: bool = False) -> dict:
        extra = ["--seconds", str(seconds)] + (["--trace"] if trace else [])
        return self.spawn("timed", *extra)

    def warm(self) -> None:
        """Fill the on-disk code cache (untimed) once per program version.

        The marker is keyed by the hash of the program's sources, because
        the code cache's own keys include the emitter's fingerprint: after
        a change to the program, the first timed repetition would
        otherwise compile cold.
        """
        marker = os.path.join(
            self.cache, f"warm-{self.workload.name}-{source_hash(self.root)}"
        )
        if not os.path.exists(marker):
            self.timed(0)
            open(marker, "w").close()

    # -- correctness ---------------------------------------------------

    def failures(self, rep: dict) -> tuple[int, int]:
        """(attempted, failed) runs: the timed passes plus the check run.

        A timed run fails when its record is missing or differs from the
        stored reference; the check run fails when the workload's path and
        the reference path disagree on it.
        """
        stored = load_reference().get(self.workload.name, {}).get(str(self.data_seed))
        if stored is None:
            raise BenchError(
                f"no stored reference for {self.workload.name} at data seed "
                f"{self.data_seed}; run --write-reference --data-seed {self.data_seed}"
            )
        attempted = failed = 0
        for p in rep["passes"]:
            attempted += p["expected"]
            failed += sum(a != b for a, b in zip(p["hashes"], stored))
            failed += abs(len(stored) - len(p["hashes"]))
        check = rep["check"]
        attempted += 1
        if check["hashes"][0] != check["hashes"][1]:
            print(f"perfbench: check run {check['run']} differs from the reference",
                  file=sys.stderr)
            failed += 1
        return attempted, failed


def source_hash(root: str) -> str:
    """Hash of every Python source under ``src/``: changes with the program."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read() + b"\0")
    return digest.hexdigest()[:16]


def load_reference() -> dict:
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the *p* quantile of *values*.

    It is the mean of all order statistics, each weighted by the mass of a
    Beta(p(n+1), (1-p)(n+1)) density over its slot of width 1/n, which is
    integrated here by the midpoint rule.  One order statistic of ~100 run
    times moves with whichever runs happen to land next to it; the
    weighted mean spreads that over its neighbours.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 8
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "n": samples}


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setups = [bench.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    rep = bench.timed(seconds)
    setups.append(rep["setup_s"])
    setup_s = statistics.median(setups)
    passes = rep["passes"]
    runs = sum(p["runs"] for p in passes)
    samples = [s * 1000.0 for p in passes for s in p["samples"]]
    # Every pass does the same work, so the median pass gives the rates.
    pass_s = statistics.median(p["seconds"] for p in passes)
    metrics = {
        "runs_per_s": metric(passes[0]["runs"] / pass_s, "1/s", runs),
        "sim_minstr_per_s": metric(
            passes[0]["instructions"] / pass_s / 1e6, "Minstr/s", runs
        ),
        "run_ms_p50": metric(hd_quantile(samples, 0.5), "ms", len(samples)),
        "run_ms_p90": metric(hd_quantile(samples, 0.9), "ms", len(samples)),
        "wall_s": metric(setup_s + pass_s, "s", len(passes)),
        "setup_s": metric(setup_s, "s", len(setups)),
        "peak_rss_mb": metric(rep["peak_rss_mb"], "MB", 1),
    }
    return metrics, rep


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from probes import collect

    base = bench.timed(seconds)
    rep = bench.timed(seconds, trace=True)
    totals = collect(rep["workdir"])
    passes = rep["passes"]
    n_passes = len(passes)

    def per_artefact(name: str) -> float:
        """Set-up total plus the timed total of one pass."""
        return totals[f"setup:{name}"] + totals[f"timed:{name}"] / n_passes

    runs = per_artefact("run.n")
    records = passes[0]["records"]
    instructions = sum(r[1] for r in records)
    instret = per_artefact("machine_run.instret")
    run_s = per_artefact("machine_run.s")
    hits, misses = per_artefact("factory.hits"), per_artefact("factory.misses")
    first = [s for p in passes for s in p["first_record_s"]]
    overhead = (
        statistics.median(p["seconds"] for p in passes)
        / statistics.median(p["seconds"] for p in base["passes"]) - 1.0
    )
    values = {
        "lang.compile_s": (per_artefact("compile.s"), "s"),
        "lang.compiles": (per_artefact("compile.n"), "count"),
        "emulation.error_set_s": (per_artefact("error_set.s"), "s"),
        "emulation.faults": (per_artefact("faults"), "count"),
        "machine.boots": (per_artefact("boot.n"), "count"),
        "machine.boot_s": (per_artefact("boot.s"), "s"),
        "machine.run_s": (run_s, "s"),
        "machine.instret": (instret, "count"),
        "machine.minstr_per_s": (instret / run_s / 1e6 if run_s else 0.0, "Minstr/s"),
        "machine.jit_compile_s": (
            per_artefact("phase.block-compile") + per_artefact("phase.trace-compile"), "s"
        ),
        "machine.blocks_compiled": (per_artefact("counter.blocks_compiled"), "count"),
        "machine.traces_compiled": (per_artefact("counter.traces_compiled"), "count"),
        "machine.blocks_invalidated": (per_artefact("counter.blocks_invalidated"), "count"),
        "machine.traces_invalidated": (per_artefact("counter.traces_invalidated"), "count"),
        "machine.factory_cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"
        ),
        "swifi.calibrate_s": (per_artefact("calibrate.s"), "s"),
        "swifi.snapshot_path_share": (
            per_artefact("path.snapshot") / runs if runs else 0.0, "ratio"
        ),
        **{
            f"swifi.fallback.{reason}": (per_artefact(f"reason.{reason}"), "count")
            for reason in FALLBACK_REASONS
        },
        "swifi.restore_s": (per_artefact("restore.s"), "s"),
        "swifi.classify_s": (per_artefact("classify.s"), "s"),
        "swifi.activations_per_run": (
            sum(r[2] for r in records) / len(records), "count"
        ),
        "swifi.hang_instret_share": (
            sum(r[1] for r in records if r[0] == "hang") / instructions, "ratio"
        ),
        "orchestrator.shards": (per_artefact("shards"), "count"),
        "orchestrator.retries": (statistics.mean(p["retries"] for p in passes), "count"),
        "orchestrator.failed_runs": (
            statistics.mean(p["failed_runs"] for p in passes), "count"
        ),
        "orchestrator.first_record_s": (statistics.mean(first) if first else 0.0, "s"),
        "orchestrator.journal_append_s": (per_artefact("journal_append.s"), "s"),
        "orchestrator.journal_bytes": (
            statistics.mean(p["journal_bytes"] for p in passes), "bytes"
        ),
        "orchestrator.cpu_util": (
            rep["cpu_s"] / (rep["timed_s"] * bench.workload.jobs), "ratio"
        ),
        "srcfi.mutants": (per_artefact("realize.n"), "count"),
        "srcfi.realize_s": (per_artefact("realize.s"), "s"),
        "observability.trace_overhead": (overhead, "ratio"),
    }
    return {
        name: metric(value, unit, n_passes) for name, (value, unit) in values.items()
    }, rep


def write_reference(names: list[str], data_seeds: list[int]) -> None:
    for name in names:
        for data_seed in data_seeds:
            bench = Bench(os.getcwd(), name, 0, data_seed)
            try:
                hashes = bench.spawn("reference", timeout=None)["hashes"]
            finally:
                bench.close()
            stored = load_reference()
            stored.setdefault(name, {})[str(data_seed)] = hashes
            with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
                json.dump(stored, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"{name} data seed {data_seed}: {len(hashes)} runs", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="draws the inputs of the check run")
    parser.add_argument("--data-seed", type=int, default=DEFAULT_SEED,
                        help="data seed of the timed campaigns (stored in reference.json)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a repro checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference(
            [args.workload] if args.workload else sorted(WORKLOADS),
            [args.data_seed] if args.data_seed != DEFAULT_SEED
            else [DEFAULT_SEED, HELD_OUT_SEED],
        )
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    if workload.jobs > nproc:
        print(f"perfbench: {workload.name} needs jobs={workload.jobs} but only "
              f"{nproc} CPU(s) are available; refusing to report a fake slowdown",
              file=sys.stderr)
        return 3

    bench = Bench(root, args.workload, args.seed, args.data_seed)
    try:
        bench.warm()
        if args.trace:
            metrics, rep = per_layer(bench, args.seconds)
        else:
            metrics, rep = end_to_end(bench, args.seconds)
        attempted, failed = bench.failures(rep)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    print(f"workload {workload.name}  seed {args.seed}  data seed {args.data_seed}  "
          f"nproc {nproc}  "
          f"jobs {workload.jobs}  trace {args.trace}")
    passes = rep["passes"]
    print(f"  machine slowness {statistics.median(p['slowness'] for p in passes):.3f} "
          f"(1 = reference speed)  wall s per pass "
          f"{statistics.median(p['wall_s'] for p in passes):.3f}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']:9s} n={m['n']}")
    print(f"  {'failed_frac':36s} {failed / attempted:14.6g} {'ratio':9s} n={attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
