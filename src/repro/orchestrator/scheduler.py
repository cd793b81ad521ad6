"""Deterministic campaign sharding.

The campaign matrix (every fault × every input case) is flattened into
*run indices* in serial order (fault-major: every case of fault 0, then
of fault 1, …), and the indices still pending are cut
into contiguous shards.  Two properties keep parallel campaigns
bit-identical to serial ones:

* a run is addressed by its serial index, so merged results can always
  be re-sorted into the serial order regardless of which worker finished
  first;
* every shard gets its own RNG stream derived from the campaign seed and
  the shard's first run index (not from the shard count or the worker
  id), so any stochastic behaviour inside a shard is independent of the
  number of workers *and* of how much of the campaign was already
  journaled when the shard was planned.

:class:`ShardQueue` is the one shard lifecycle — lease, renew, complete,
void, expire, abandon after ``max_attempts`` — that both the local pool
and the service broker drive over the planned shards.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

#: Upper bound on runs per shard; small shards bound the work lost when a
#: worker dies (only un-journaled runs of the dead shard are retried).
MAX_SHARD_SIZE = 64


@dataclass(frozen=True)
class Shard:
    """A contiguous slice of pending run indices plus its RNG stream seed."""

    shard_id: int
    run_indices: tuple[int, ...]
    seed: int

    def __len__(self) -> int:
        return len(self.run_indices)


def pair_for_index(run_index: int, num_cases: int) -> tuple[int, int]:
    """Serial-order decomposition: run index → (fault index, case index)."""
    if num_cases <= 0:
        raise ValueError("a campaign needs at least one input case")
    return divmod(run_index, num_cases)


def shard_stream_seed(campaign_seed: int, anchor_index: int) -> int:
    """A 64-bit RNG seed for one shard, stable across resume/resharding."""
    digest = hashlib.sha256(
        f"repro-shard:{campaign_seed}:{anchor_index}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def default_shard_size(pending: int, jobs: int) -> int:
    """Roughly four shards per worker, clamped to [1, MAX_SHARD_SIZE]."""
    if pending <= 0:
        return 1
    return max(1, min(MAX_SHARD_SIZE, pending // max(1, jobs * 4) or 1))


def plan_shards(
    run_indices: Iterable[int],
    *,
    jobs: int,
    campaign_seed: int,
    shard_size: int | None = None,
) -> list[Shard]:
    """Partition pending *run_indices* into deterministic shards."""
    indices: Sequence[int] = sorted(run_indices)
    if not indices:
        return []
    size = shard_size if shard_size is not None else default_shard_size(len(indices), jobs)
    if size < 1:
        raise ValueError(f"shard_size must be >= 1, got {size}")
    shards = []
    for shard_id, start in enumerate(range(0, len(indices), size)):
        chunk = tuple(indices[start : start + size])
        shards.append(
            Shard(
                shard_id=shard_id,
                run_indices=chunk,
                seed=shard_stream_seed(campaign_seed, chunk[0]),
            )
        )
    return shards


@dataclass(frozen=True)
class Lease:
    """One attempt at one shard: what a worker is handed to execute."""

    shard_id: int
    attempt: int
    indices: tuple[int, ...]
    seed: int


@dataclass(frozen=True)
class Voided:
    """A voided lease's unreported runs: ``requeued`` for attempt + 1, or
    ``failed`` once the shard used up its attempts (both empty if none)."""

    shard_id: int
    requeued: tuple[int, ...]
    failed: tuple[int, ...]
    reason: str


@dataclass
class _QueuedShard:
    shard_id: int
    indices: tuple[int, ...]
    seed: int
    attempt: int = 0
    holder: str | None = None
    renewed_at: float = 0.0


class ShardQueue:
    """The shard lifecycle of the local pool and the service broker alike.

    Pure — no processes, no I/O, time from the injected *clock* — so both
    executors keep only their transport.  Only a shard's current attempt
    (and, when leases name a *holder*, only its holder) can renew,
    complete or void its lease, so a killed or expired attempt cannot
    disturb the live one.  Runs are marked done whoever reports them:
    records are deterministic.  Voiding re-queues only unreported runs,
    as attempt + 1, until ``max_attempts``; then it abandons them.
    """

    def __init__(
        self,
        shards: Iterable[Shard],
        *,
        max_attempts: int,
        lease_timeout: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if lease_timeout is not None and lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {lease_timeout}")
        self.max_attempts = max_attempts
        self.lease_timeout = lease_timeout
        self.clock = clock
        self.done: set[int] = set()
        self._pending: deque[_QueuedShard] = deque(
            _QueuedShard(shard.shard_id, shard.run_indices, shard.seed)
            for shard in shards
        )
        self._leased: dict[int, _QueuedShard] = {}

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def leased(self) -> int:
        return len(self._leased)

    @property
    def finished(self) -> bool:
        """Every run is done or abandoned."""
        return not self._pending and not self._leased

    def lease(self, holder: str | None = None) -> Lease | None:
        """Hand out the next waiting shard as a new attempt, if any."""
        if not self._pending:
            return None
        shard = self._pending.popleft()
        shard.attempt += 1
        shard.holder = holder
        shard.renewed_at = self.clock()
        self._leased[shard.shard_id] = shard
        return Lease(shard.shard_id, shard.attempt, shard.indices, shard.seed)

    def mark_done(self, index: int) -> None:
        """Record that run *index* reported, from any attempt."""
        self.done.add(index)

    def _current(
        self, shard_id: int, attempt: int, holder: str | None
    ) -> _QueuedShard | None:
        shard = self._leased.get(shard_id)
        if shard is None or shard.attempt != attempt or shard.holder != holder:
            return None
        return shard

    def renew(self, shard_id: int, attempt: int, holder: str | None = None) -> bool:
        """Restart a current lease's timeout; False for a stale attempt."""
        shard = self._current(shard_id, attempt, holder)
        if shard is None:
            return False
        shard.renewed_at = self.clock()
        return True

    def complete(
        self, shard_id: int, attempt: int, holder: str | None = None
    ) -> bool:
        """Close a current lease whose runs all reported; else False."""
        shard = self._current(shard_id, attempt, holder)
        if shard is None or any(index not in self.done for index in shard.indices):
            return False
        del self._leased[shard_id]
        return True

    def void(
        self, shard_id: int, attempt: int, reason: str, holder: str | None = None
    ) -> Voided | None:
        """End a current lease that will not finish; None for a stale attempt."""
        shard = self._current(shard_id, attempt, holder)
        if shard is None:
            return None
        del self._leased[shard_id]
        remaining = tuple(index for index in shard.indices if index not in self.done)
        if remaining and shard.attempt < self.max_attempts:
            shard.indices = remaining
            self._pending.append(shard)
            return Voided(shard_id, remaining, (), reason)
        return Voided(shard_id, (), remaining, reason)

    def expire(self, reason: Callable[[int, int], str]) -> list[Voided]:
        """Void every lease not renewed within the timeout, each with
        ``reason(shard_id, attempt)``."""
        if self.lease_timeout is None:
            return []
        now = self.clock()
        stale = [
            shard for shard in self._leased.values()
            if shard.renewed_at + self.lease_timeout <= now
        ]
        return [
            self.void(
                shard.shard_id, shard.attempt,
                reason(shard.shard_id, shard.attempt), shard.holder,
            )
            for shard in stale
        ]
