"""Deterministic cohort sharding and the bit-exact sharded ring sum.

Participants are hash-partitioned into ``K`` cohort shards with sha256
(never Python's seeded ``hash``), so the assignment is stable across
processes, interpreters, and ``PYTHONHASHSEED`` values; the pool groups
its worker dispatch by that partition.  :class:`ShardedRingReducer`
folds a blinded matrix as per-block partial ring sums merged at a root —
an associative, commutative fold (``uint64`` addition mod ``2^64``), so
the merged result is the *same integer* the flat serial sum produces:
sharding is a topology choice, never a numerical one.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.perf import kernels


def shard_of(round_id: int, user_id: str, num_shards: int) -> int:
    """Which cohort shard ``(round_id, user_id)`` lands in.

    sha256-based so the partition is reproducible everywhere; keyed by
    round so a user's shard rotates round to round (no hot cohort).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if num_shards == 1:
        return 0
    digest = hashlib.sha256(
        b"glimmer-shard:"
        + int(round_id).to_bytes(8, "big", signed=False)
        + user_id.encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


def plan_shards(
    round_id: int, user_ids: Sequence[str], num_shards: int
) -> tuple[tuple[int, ...], ...]:
    """Group participant *positions* (slot indices) by shard.

    Returns ``num_shards`` tuples; shard ``s`` holds the slot indices of
    the users hashed into it, in slot order.  Shards may be empty (for
    example when ``num_shards`` exceeds the cohort size).
    """
    groups: list[list[int]] = [[] for _ in range(num_shards)]
    for slot, user_id in enumerate(user_ids):
        groups[shard_of(round_id, user_id, num_shards)].append(slot)
    return tuple(tuple(group) for group in groups)


class ShardedRingReducer:
    """A ``callable(matrix, modulus_bits) -> row`` that sums via shard partials.

    Drop-in for :func:`repro.perf.kernels.ring_sum_rows` anywhere a
    blinded matrix (contributions or dropout-repair masks) is folded:
    rows are partitioned into ``num_shards`` contiguous blocks, each
    block ring-sums to a partial, and the partials ring-sum to the total.
    ``uint64`` addition wraps mod ``2^64`` and ``2^modulus_bits`` divides
    ``2^64``, so the two-level fold is bit-identical to the flat sum for
    every partition.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards

    def __call__(self, matrix: np.ndarray, modulus_bits: int = 64) -> np.ndarray:
        rows = kernels.as_ring_rows(matrix, modulus_bits)
        if rows.shape[0] <= 1 or self.num_shards == 1:
            return kernels.ring_sum_rows(rows, modulus_bits)
        blocks = np.array_split(rows, min(self.num_shards, rows.shape[0]))
        partials = np.stack(
            [kernels.ring_sum_rows(block, modulus_bits) for block in blocks]
        )
        return kernels.ring_sum_rows(partials, modulus_bits)
