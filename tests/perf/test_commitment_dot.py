"""The commitment scalar's numpy dot, pinned to its scalar twin.

``_weighted_limb_sum`` and ``_sum_zero_target`` run ``uint64`` dots over
the challenge weights' 32-bit digits, 2^14 terms at a time;
:mod:`tests.perf.reference` keeps the Python-int dots they replaced.
Both must give the same residue on both shipped groups, at any length
and at the inputs that push a chunk's sum closest to 2^64.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec import MAX_PARTIES
from repro.crypto.commitments import (
    LIMBS,
    _sum_zero_target,
    _weighted_limb_sum,
    challenge_weights,
    commit_masks,
    weight_digits,
)
from repro.crypto.dh import OAKLEY_GROUP_1, TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.masking import SumZeroMasks
from repro.perf import kernels
from tests.perf import reference

GROUPS = (TEST_GROUP, OAKLEY_GROUP_1)
LIMB_MAX = (1 << 16) - 1


def _weights(seed: int, count: int, q: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(q) for _ in range(count)]


@settings(max_examples=10, deadline=None)
@given(
    group=st.sampled_from(GROUPS),
    length=st.integers(min_value=1, max_value=70_000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dot_matches_the_scalar_twin(group, length, seed):
    q = group.subgroup_order
    weights = _weights(seed, LIMBS * length, q)
    mask = HmacDrbg(seed.to_bytes(4, "big")).uint64_vector(length)
    expected = reference.weighted_limb_sum_scalar(mask.tolist(), weights, LIMBS, q)
    digits = weight_digits(weights, q)
    assert _weighted_limb_sum(mask, digits, q) == expected
    assert _weighted_limb_sum(kernels.be_words_to_bytes(mask), digits, q) == expected


@pytest.mark.parametrize("group", GROUPS, ids=lambda group: group.name)
@pytest.mark.parametrize("weight", ["q-1", "all-ones-digits"])
def test_dot_is_exact_at_the_chunk_overflow_worst_case(group, weight):
    """Every limb ``0xFFFF`` against the largest weight digits: q − 1,
    and a weight whose every 32-bit digit is ``0xFFFFFFFF`` (the bound the
    chunk size is chosen for), over several chunks."""
    q = group.subgroup_order
    length = 70_000
    digits = len(weight_digits([0], q))
    value = q - 1 if weight == "q-1" else (1 << (32 * digits)) - 1
    weights = [value] * (LIMBS * length)
    mask = np.full(length, np.uint64((1 << 64) - 1))
    expected = reference.weighted_limb_sum_scalar(mask.tolist(), weights, LIMBS, q)
    assert expected == value * LIMB_MAX * LIMBS * length % q
    assert _weighted_limb_sum(mask, weight_digits(weights, q), q) == expected


@pytest.mark.parametrize("group", GROUPS, ids=lambda group: group.name)
def test_sum_zero_target_is_exact_at_the_parties_bound(group):
    """A claimed column sum reaches ``PARTIES · (2^16 − 1)``; the target
    over such claims, worst-case and random, matches the scalar loop, and
    so does one over claims at the u64 ceiling decode admits."""
    q = group.subgroup_order
    cap = MAX_PARTIES * LIMB_MAX
    length = 4_097
    rng = random.Random(1729)
    for column_sums, weights in (
        ([cap] * (LIMBS * length), [q - 1] * (LIMBS * length)),
        ([(1 << 64) - 1] * (LIMBS * length), [q - 1] * (LIMBS * length)),
        (
            [rng.randint(0, cap) for _ in range(LIMBS * length)],
            _weights(1729, LIMBS * length, q),
        ),
    ):
        column_sums = kernels.be_words_to_bytes(column_sums)
        expected = reference.sum_zero_target_scalar(column_sums, weights, q)
        assert _sum_zero_target(column_sums, weight_digits(weights, q), q) == expected


@pytest.mark.parametrize("group", GROUPS, ids=lambda group: group.name)
def test_challenge_weights_are_one_read_only_digit_matrix(group):
    digits = challenge_weights(b"\x07" * 32, group.name, 5)
    width = (group.subgroup_order.bit_length() + 31) // 32
    assert (digits.dtype, digits.shape) == (np.uint64, (width, 5 * LIMBS))
    assert not digits.flags.writeable
    assert int(digits.max()) < 1 << 32


@settings(max_examples=20, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=5_000),
    slots=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_root_matches_the_per_item_framing(length, slots, seed):
    """``root()`` frames the k·limbs column claims in one buffer; the digest
    is the one that hashing each claim as its own item gives."""
    rng = HmacDrbg(seed.to_bytes(4, "big"), personalization="root")
    family = SumZeroMasks.sample(slots, length, rng)
    commitments, _ = commit_masks(TEST_GROUP, seed, family.shares, rng)
    assert len(commitments.column_sums) == 8 * length * LIMBS
    assert commitments.root() == reference.commitment_root_scalar(commitments)
