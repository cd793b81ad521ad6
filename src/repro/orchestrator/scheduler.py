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
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

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
