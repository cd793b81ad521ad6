"""Parallel campaign orchestration.

The paper's §6 experiment is 108,600 injection runs with a machine
reboot between every run — an embarrassingly parallel workload.  This
package turns one campaign (program × fault set × input cases) into
deterministic shards executed by a supervised ``multiprocessing`` worker
pool:

* :mod:`.scheduler` — partitions the (fault, case) matrix and derives a
  per-shard RNG stream from the campaign seed, so parallel results are
  bit-identical to serial ones; its :class:`ShardQueue` is the one shard
  lifecycle (lease, renew, complete, void, expire) the pool and the
  service broker share;
* :mod:`.journal` — an append-only JSONL log of completed runs with an
  atomically-written manifest, so a killed campaign resumes instead of
  re-running everything;
* :mod:`.worker` — one fresh process per shard (the paper's "the target
  system is rebooted between injections", promoted to process level);
* :mod:`.pool` — the supervisor: the ``multiprocessing`` transport of
  the shard lifecycle, with crash and no-progress detection and
  failed-shard bookkeeping that never aborts the campaign;
* :mod:`.telemetry` — queue-fed progress events: runs/sec, per-mode
  tallies, ETA, a CLI renderer and a JSON exporter.
"""

from .journal import (
    CampaignJournal,
    JournalError,
    JournalState,
    campaign_fingerprint,
    load_runs_file,
)
from .pool import (
    CampaignInterrupted,
    CampaignOrchestrator,
    OrchestratorOptions,
    OrchestratorOutcome,
)
from .scheduler import (
    Shard,
    ShardQueue,
    default_shard_size,
    pair_for_index,
    plan_shards,
    shard_stream_seed,
)
from .telemetry import (
    CompositeSink,
    JsonTelemetryWriter,
    NullSink,
    ProgressRenderer,
    TelemetryAggregator,
    TelemetrySink,
    TelemetrySnapshot,
)
from .worker import (
    CRASH_EXIT_CODE,
    ShardTask,
    build_shard_task,
    execute_shard_runs,
    shard_worker_main,
)

__all__ = [
    "CampaignJournal",
    "JournalError",
    "JournalState",
    "campaign_fingerprint",
    "load_runs_file",
    "CampaignInterrupted",
    "CampaignOrchestrator",
    "OrchestratorOptions",
    "OrchestratorOutcome",
    "Shard",
    "ShardQueue",
    "default_shard_size",
    "pair_for_index",
    "plan_shards",
    "shard_stream_seed",
    "CompositeSink",
    "JsonTelemetryWriter",
    "NullSink",
    "ProgressRenderer",
    "TelemetryAggregator",
    "TelemetrySink",
    "TelemetrySnapshot",
    "CRASH_EXIT_CODE",
    "ShardTask",
    "shard_worker_main",
]
