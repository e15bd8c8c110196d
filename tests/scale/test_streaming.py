"""Unit coverage for the hierarchical-aggregation building blocks.

The parity suite (``test_subgroup_parity.py``) proves the end-to-end
equivalence; these tests pin the component contracts — plan determinism
and partitioning, grouped-mask family independence and cache bounds,
fold-on-arrival exactness against the flat matrix sum, and the chunked
``ring_accumulate`` kernel that replaced full-matrix materialization.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.drbg import HmacDrbg
from repro.crypto.masking import BlindingService, GroupedSumZeroMasks, SumZeroMasks
from repro.errors import ConfigurationError
from repro.perf import kernels
from repro.scale.streaming import StreamingSubgroupAccumulator
from repro.scale.subgroup import plan_subgroups


# ----------------------------------------------------------------- planner


def test_plan_is_deterministic_and_partitions_all_slots():
    plan = plan_subgroups(9, 100, 7)
    again = plan_subgroups(9, 100, 7)
    assert np.array_equal(plan.order, again.order)
    seen: set[int] = set()
    for group in range(plan.num_groups):
        slots = plan.slots_in(group)
        assert 1 <= len(slots) <= 7
        for local, slot in enumerate(slots):
            assert plan.group_of(slot) == group
            assert plan.local_index(slot) == local
        seen.update(slots)
    assert seen == set(range(100))


@pytest.mark.parametrize(
    "num_slots, group_size",
    [(100, 7), (64, 8), (9, 4), (13, 3), (5, 5), (1, 1), (6, 1)],
)
def test_local_index_matches_the_block_search(num_slots, group_size):
    """The O(1) inverse-permutation lookup agrees with searching the slot's
    group, across remainder groups (100/7), a one-slot remainder folded
    into the last full group (9/4, 13/3) and g = 1 clamped to 2."""
    plan = plan_subgroups(11, num_slots, group_size)
    for slot in range(num_slots):
        block = np.array(plan.slots_in(plan.group_of(slot)))
        assert plan.local_index(slot) == int(np.nonzero(block == slot)[0][0])
    with pytest.raises(ConfigurationError):
        plan.local_index(num_slots)


def test_plan_rotates_with_round_id():
    first = plan_subgroups(1, 64, 8)
    second = plan_subgroups(2, 64, 8)
    assert not np.array_equal(first.order, second.order)


def test_plan_clamps_group_size_and_validates():
    plan = plan_subgroups(1, 5, 100)
    assert plan.group_size == 5
    assert plan.num_groups == 1
    with pytest.raises(ConfigurationError):
        plan_subgroups(1, 0, 4)
    with pytest.raises(ConfigurationError):
        plan_subgroups(1, 4, 0)
    with pytest.raises(ConfigurationError):
        plan_subgroups(1, 4, 2).group_of(4)
    with pytest.raises(ConfigurationError):
        plan_subgroups(1, 4, 2).slots_in(2)


def test_no_subgroup_is_a_single_slot():
    """A one-slot subgroup's mask is the zero vector, so its blinded payload
    (and the service's partial sum for it) is the device's plaintext.  No
    plan of two or more slots has one, whatever g, and every slot's mask
    is non-zero."""
    blinding = BlindingService(HmacDrbg(b"no-singletons"))
    round_id = 0
    for num_slots in range(2, 41):
        for group_size in range(1, num_slots + 1):
            round_id += 1
            plan = plan_subgroups(round_id, num_slots, group_size)
            groups = plan.groups()
            assert min(map(len, groups)) >= 2, (num_slots, group_size)
            assert sorted(slot for group in groups for slot in group) == list(range(num_slots))
            masks = blinding.open_round_grouped(round_id, num_slots, 2, group_size)
            for slot in range(num_slots):
                assert kernels.as_ring(masks.share_for(slot).row()).any(), (num_slots, group_size, slot)
            blinding.close_round(round_id)


# ------------------------------------------------------------ grouped masks


def test_grouped_masks_sum_to_zero_per_group_and_globally():
    plan = plan_subgroups(3, 20, 6)
    masks = GroupedSumZeroMasks.sample(plan, 16, HmacDrbg(b"grouped"))
    assert masks.verify_sum_zero()
    total = np.zeros(16, dtype=np.uint64)
    for slot in range(20):
        total += kernels.as_ring(masks.share_for(slot).row())
    assert not total.any()
    for group in range(plan.num_groups):
        family = masks.group_family(group)
        assert family.verify_sum_zero()
        assert len(family.shares) == len(plan.slots_in(group))


def test_grouped_masks_keep_shares_not_rows():
    """Each subgroup is derived once and kept as its shares: a seed per
    slot and the last slot's words, one row per subgroup, whatever the
    number of subgroups."""
    plan = plan_subgroups(5, 64, 4)  # 16 groups of 4
    masks = GroupedSumZeroMasks.sample(plan, 8, HmacDrbg(b"cache"))
    for group in range(plan.num_groups):
        family = masks.group_family(group)
        assert masks.group_family(group) is family
        assert [share.seed is not None for share in family.shares] == [True] * 3 + [False]
        assert family.shares[-1].words is not None
    assert all("masks" not in vars(family) for family in masks._families.values())
    # Re-derivation is deterministic: the same seeds give the same rows.
    again = GroupedSumZeroMasks(plan, masks.seeds, 8)
    assert [share.row() for share in again.group_family(0).shares] == [
        share.row() for share in masks.group_family(0).shares
    ]


def test_grouped_masks_rows_match_slot_order():
    plan = plan_subgroups(7, 15, 4)
    masks = GroupedSumZeroMasks.sample(plan, 8, HmacDrbg(b"rows"))
    rows = [share.row() for share in masks.shares]
    assert len(rows) == 15
    for slot in range(15):
        assert rows[slot] == masks.share_for(slot).row()


def test_grouped_masks_compare_by_plan_seeds_and_shape():
    plan = plan_subgroups(4, 12, 5)
    masks = GroupedSumZeroMasks.sample(plan, 8, HmacDrbg(b"eq"))
    same = GroupedSumZeroMasks(plan_subgroups(4, 12, 5), masks.seeds, 8)
    assert masks == same
    assert masks != GroupedSumZeroMasks.sample(plan, 8, HmacDrbg(b"other"))
    assert masks != GroupedSumZeroMasks(plan, masks.seeds, 9)
    assert masks != GroupedSumZeroMasks(plan_subgroups(5, 12, 5), masks.seeds, 8)


def test_grouped_masks_requires_one_seed_per_group():
    plan = plan_subgroups(1, 10, 3)
    with pytest.raises(ConfigurationError):
        GroupedSumZeroMasks(plan, (b"x" * 32,), 8)


# ------------------------------------------------------------- accumulator


def test_fold_matches_flat_matrix_sum():
    plan = plan_subgroups(11, 24, 5)
    rng = HmacDrbg(b"fold")
    rows = [rng.uint64_vector(12) for _ in range(24)]
    accumulator = StreamingSubgroupAccumulator(plan)
    for slot, row in enumerate(rows):
        accumulator.fold(row, slot=slot)
    assert accumulator.folded == 24
    assert np.array_equal(accumulator.total(), kernels.ring_sum_rows(np.stack(rows)))
    # Per-group partials are the group-local sums.
    for group in range(plan.num_groups):
        expected = kernels.ring_sum_rows(
            np.stack([rows[slot] for slot in plan.slots_in(group)])
        )
        assert np.array_equal(accumulator.partial(group), expected)


def test_fold_repair_and_masks_telescope():
    plan = plan_subgroups(13, 10, 4)
    masks = GroupedSumZeroMasks.sample(plan, 6, HmacDrbg(b"repair"))
    rng = HmacDrbg(b"repair-data")
    rows = [rng.uint64_vector(6) for _ in range(10)]
    dropped = {3, 7}
    accumulator = StreamingSubgroupAccumulator(plan)
    for slot, row in enumerate(rows):
        mask = kernels.as_ring(masks.share_for(slot).row())
        if slot in dropped:
            accumulator.fold_repair(mask, slot=slot)
        else:
            accumulator.fold(row + mask, slot=slot)
    expected = kernels.ring_sum_rows(
        np.stack([row for slot, row in enumerate(rows) if slot not in dropped])
    )
    assert np.array_equal(accumulator.total(), expected)
    assert accumulator.repairs_folded == 2


def test_fold_validates_shape_and_emptiness():
    plan = plan_subgroups(1, 4, 2)
    accumulator = StreamingSubgroupAccumulator(plan)
    with pytest.raises(ConfigurationError):
        accumulator.total()
    accumulator.fold(np.ones(3, dtype=np.uint64), slot=0)
    with pytest.raises(ConfigurationError):
        accumulator.fold(np.ones(5, dtype=np.uint64), slot=1)


# ---------------------------------------------------------- ring_accumulate


@pytest.mark.parametrize("chunk_rows", [1, 3, 1024])
def test_ring_accumulate_matches_full_matrix(chunk_rows):
    rng = HmacDrbg(b"accumulate")
    rows = [rng.uint64_vector(9) for _ in range(7)]
    chunked = kernels.ring_accumulate(rows, chunk_rows=chunk_rows)
    assert np.array_equal(chunked, kernels.ring_sum_rows(np.stack(rows)))


def test_ring_accumulate_narrow_ring_and_errors():
    rows = [[(1 << 64) - 1, 6], [2, 9]]
    assert kernels.ring_accumulate(rows).tolist() == [1, 15]
    with pytest.raises(ValueError):
        kernels.ring_accumulate([], chunk_rows=4)
    with pytest.raises(ValueError):
        kernels.ring_accumulate(rows, chunk_rows=0)
