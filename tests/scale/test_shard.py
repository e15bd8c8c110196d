"""Unit coverage for the scale layer's deterministic building blocks.

Sharding must be a pure topology choice: every partial-then-merge
reducer here is checked bit-for-bit against its flat serial twin, the
hash partition against stability and coverage, and the config/admission
plumbing against its documented refusals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError
from repro.perf import kernels
from repro.scale import ScaleConfig, ShardedRingReducer, plan_shards, shard_of


def _matrix(rows: int, length: int, seed: bytes = b"shard-matrix") -> np.ndarray:
    rng = HmacDrbg(seed)
    return np.stack([rng.uint64_vector(length) for _ in range(rows)])


# -------------------------------------------------------------- partitioning


def test_shard_of_is_stable_and_in_range():
    assignments = [shard_of(7, f"user-{i}", 5) for i in range(64)]
    assert assignments == [shard_of(7, f"user-{i}", 5) for i in range(64)]
    assert all(0 <= s < 5 for s in assignments)
    assert len(set(assignments)) > 1  # actually spreads


def test_shard_of_rotates_with_round():
    users = [f"user-{i}" for i in range(64)]
    round_a = [shard_of(1, u, 4) for u in users]
    round_b = [shard_of(2, u, 4) for u in users]
    assert round_a != round_b


def test_shard_of_single_shard_and_invalid():
    assert shard_of(3, "anyone", 1) == 0
    with pytest.raises(ValueError):
        shard_of(3, "anyone", 0)


def test_plan_shards_covers_every_slot_exactly_once():
    users = [f"user-{i}" for i in range(23)]
    plan = plan_shards(11, users, 4)
    assert len(plan) == 4
    flat = sorted(slot for group in plan for slot in group)
    assert flat == list(range(23))
    for group in plan:  # slot order preserved within a shard
        assert list(group) == sorted(group)


def test_plan_shards_allows_more_shards_than_participants():
    plan = plan_shards(1, ["a", "b", "c"], 16)
    assert len(plan) == 16
    assert sorted(s for g in plan for s in g) == [0, 1, 2]
    assert sum(1 for g in plan if not g) >= 13  # most shards are empty


# ----------------------------------------------------------- ring reducers


@pytest.mark.parametrize("num_shards", [1, 3, 8])
@pytest.mark.parametrize("rows", [1, 2, 7, 20])
def test_sharded_ring_reducer_matches_flat_sum(num_shards, rows):
    matrix = _matrix(rows, 33)
    reducer = ShardedRingReducer(num_shards)
    assert np.array_equal(reducer(matrix, 64), kernels.ring_sum_rows(matrix, 64))


def test_sharded_ring_reducer_matches_flat_sum_small_modulus():
    matrix = _matrix(6, 17)
    reducer = ShardedRingReducer(4)
    assert np.array_equal(reducer(matrix, 32), kernels.ring_sum_rows(matrix, 32))


def test_sharded_ring_reducer_rejects_zero_shards():
    with pytest.raises(ValueError):
        ShardedRingReducer(0)


# ----------------------------------------------------- limb-column partials


def test_limb_column_sums_kernel_matches_manual():
    matrix = _matrix(5, 9)
    sums = kernels.limb_column_sums(matrix, 4, 16)
    assert sums.shape == (4, 9)
    for limb in range(4):
        expected = ((matrix >> np.uint64(16 * limb)) & np.uint64(0xFFFF)).sum(
            axis=0, dtype=np.uint64
        )
        assert np.array_equal(sums[limb], expected)


# ------------------------------------------------------------------ config


def test_scale_config_defaults_and_enabled():
    assert not ScaleConfig().enabled
    assert ScaleConfig(workers=2).enabled
    assert ScaleConfig(workers=2).shards == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"workers": -1},
        {"shards": 0},
        {"workers": 1, "chunk_size": 0},
    ],
)
def test_scale_config_rejects_invalid(kwargs):
    with pytest.raises(ConfigurationError):
        ScaleConfig(**kwargs)
