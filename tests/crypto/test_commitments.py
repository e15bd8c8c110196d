"""Verifiable blinding: commitments open, bind, and catch forged claims."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.byzantine.actors import _forge_commitments
from repro.crypto import group_ops
from repro.crypto.commitments import (
    LIMBS,
    MaskOpening,
    challenge_weights,
    commit_masks,
    decode_mask_payload,
    encode_mask_payload,
    recommit_masks,
    resolve_group,
    verify_opening,
    weight_digits,
)
from repro.crypto.drbg import HmacDrbg
from repro.crypto.masking import MaskShare, SumZeroMasks
from repro.errors import ConfigurationError, MaskVerificationError
from repro.experiments.common import Deployment
from repro.perf import kernels

GROUP = resolve_group("oakley-group-1")
NUM_SLOTS = 3
LENGTH = 4


def _family(seed: bytes = b"commit-test") -> SumZeroMasks:
    return SumZeroMasks.sample(
        NUM_SLOTS, LENGTH, HmacDrbg(seed, personalization="family")
    )


def _commit(seed: bytes = b"commit-test"):
    family = _family(seed)
    commitments, openings = commit_masks(
        GROUP, 1, family.shares, HmacDrbg(seed, personalization="c")
    )
    return family, commitments, openings


def test_honest_commitments_validate_open_and_sum_to_zero():
    family, commitments, openings = _commit()
    commitments.validate_structure(
        round_id=1, num_slots=NUM_SLOTS, vector_length=LENGTH
    )
    for slot, opening in enumerate(openings):
        assert opening.share is family.shares[slot]
        assert verify_opening(commitments, slot, opening) == opening.share.row()
        assert verify_opening(commitments.record_for(slot), slot, opening) == opening.share.row()
    commitments.verify_sum_zero()


def test_tampered_mask_fails_its_opening():
    _, commitments, openings = _commit()
    opening = openings[0]
    words = kernels.be_words(opening.share.row()).tolist()
    flipped = kernels.be_words_to_bytes([words[0] ^ 1] + words[1:])
    tampered = dataclasses.replace(opening, share=MaskShare(LENGTH, words=flipped))
    with pytest.raises(MaskVerificationError):
        verify_opening(commitments, 0, tampered)
    with pytest.raises(MaskVerificationError):
        verify_opening(commitments.record_for(0), 0, tampered)


def test_wrong_salt_or_randomizer_fails_its_opening():
    _, commitments, openings = _commit()
    opening = openings[0]
    with pytest.raises(MaskVerificationError):
        verify_opening(
            commitments, 0, dataclasses.replace(opening, salt=b"\x00" * 32)
        )
    with pytest.raises(MaskVerificationError):
        verify_opening(
            commitments,
            0,
            dataclasses.replace(opening, randomizer=opening.randomizer + 1),
        )


def test_opening_against_the_wrong_slot_fails():
    _, commitments, openings = _commit()
    with pytest.raises(MaskVerificationError):
        verify_opening(commitments, 1, openings[0])


def test_non_sum_zero_claims_fail_structure_validation():
    _, commitments, _ = _commit()
    claims = kernels.as_ring(commitments.column_sums)
    claims[0] += np.uint64(1)
    broken = dataclasses.replace(commitments, column_sums=kernels.be_words_to_bytes(claims))
    with pytest.raises(MaskVerificationError):
        broken.validate_structure(round_id=1, num_slots=NUM_SLOTS, vector_length=LENGTH)


def test_family_summing_to_zero_only_in_a_narrower_ring_fails_structure_validation():
    """Every word below 2^32 and each column summing to zero mod 2^32, but
    not mod 2^64: the ring is Z/2^64, so the honest claims over this family
    break the sum-zero audit at open — a blinder cannot pick a narrower
    ring to be audited in."""
    rng = HmacDrbg(b"narrow-ring", personalization="family")
    words = [[rng.randint(1 << 32) for _ in range(LENGTH)] for _ in range(NUM_SLOTS - 1)]
    words.append([-sum(column) % (1 << 32) for column in zip(*words)])
    assert all(sum(column) % (1 << 32) == 0 for column in zip(*words))
    assert all(sum(column) % (1 << 64) for column in zip(*words))
    commitments, _ = commit_masks(
        GROUP, 1, [MaskShare(LENGTH, words=kernels.be_words_to_bytes(row)) for row in words], rng
    )
    with pytest.raises(MaskVerificationError, match="violate sum-zero at component 0"):
        commitments.validate_structure(
            round_id=1, num_slots=NUM_SLOTS, vector_length=LENGTH
        )


@pytest.mark.parametrize(
    "resize",
    [lambda claims: claims[:-8], lambda claims: claims + claims[-8:]],
    ids=["one-word-short", "one-word-long"],
)
def test_claims_of_the_wrong_word_count_fail_structure_validation(resize):
    """The packed claims hold exactly k·limbs words: one word short or long
    is refused before any claim is read."""
    _, commitments, _ = _commit()
    broken = dataclasses.replace(commitments, column_sums=resize(commitments.column_sums))
    with pytest.raises(MaskVerificationError, match="wrong column count"):
        broken.validate_structure(round_id=1, num_slots=NUM_SLOTS, vector_length=LENGTH)


def test_forged_claims_pass_slot_checks_but_fail_the_homomorphic_check():
    """The deepest property: a commitment set that is internally consistent
    per-slot, over a family that is NOT sum-zero, must still be caught —
    and only the homomorphic finalize check can catch it."""
    family, honest, _ = _commit()
    masks = [kernels.as_ring(share.row()) for share in family.shares]
    masks[0][0] += np.uint64(538)
    corrupt = SumZeroMasks(
        tuple(MaskShare(LENGTH, words=kernels.be_words_to_bytes(mask)) for mask in masks)
    )
    assert not corrupt.verify_sum_zero()
    rng = HmacDrbg(b"forge", personalization="forge")
    salts = [rng.generate(32) for _ in range(NUM_SLOTS)]
    randomizers = [rng.randint(GROUP.subgroup_order) for _ in range(NUM_SLOTS)]
    rows = [share.row() for share in corrupt.shares]
    forged = _forge_commitments(GROUP, honest, rows, salts, randomizers)
    forged.validate_structure(round_id=1, num_slots=NUM_SLOTS, vector_length=LENGTH)
    for slot in range(NUM_SLOTS):
        verify_opening(
            forged,
            slot,
            MaskOpening(
                share=corrupt.share_for(slot),
                salt=salts[slot],
                randomizer=randomizers[slot],
            ),
        )
    with pytest.raises(MaskVerificationError):
        forged.verify_sum_zero()


def test_recommit_reproduces_the_exact_set():
    family, commitments, openings = _commit()
    rebuilt = recommit_masks(GROUP, 1, family.shares, openings)
    assert rebuilt == commitments
    assert rebuilt.root() == commitments.root()


def test_mask_payload_round_trips():
    _, _, openings = _commit()
    for opening in openings:
        assert decode_mask_payload(encode_mask_payload(opening)) == opening


def test_empty_family_is_rejected():
    with pytest.raises(ConfigurationError):
        commit_masks(GROUP, 1, [], HmacDrbg(b"x"))


@pytest.mark.parametrize("group_name", ["test-64bit", "oakley-group-1"])
@pytest.mark.parametrize("length", [1, 512, 513, 1_500])
def test_challenge_weights_fill_the_one_shot_matrix(group_name, length):
    """Built a chunk of columns at a time, the digit matrix is byte for
    byte the one ``weight_digits`` makes of every weight at once (lengths
    on and across a chunk boundary)."""
    root = bytes(range(32))
    q = resolve_group(group_name).subgroup_order
    width = (q.bit_length() + 128 + 7) // 8
    count = length * LIMBS
    stream = hashlib.shake_256(b"mask-commitment-weight" + root).digest(width * count)
    one_shot = weight_digits(
        [int.from_bytes(stream[t * width : (t + 1) * width], "big") % q for t in range(count)],
        q,
    )
    chunked = challenge_weights(root, group_name, length)
    assert chunked.shape == one_shot.shape
    assert chunked.tobytes() == one_shot.tobytes()


def test_round_commitment_points_are_checked_not_remembered():
    """A round's commitment points are checked once, at round open, and
    never looked up again, so they stay out of the membership memo: its
    size is flat in rounds run, and the long-lived keys it exists for
    stay in it."""
    group_ops.reset_tables()
    try:
        deployment = Deployment.build(num_users=4, seed=b"commitment-members")
        sizes = {}
        for round_id in range(1, 7):
            deployment.honest_round(round_id)
            sizes[round_id] = len(group_ops._MEMBERS)
        assert sizes[6] == sizes[2], sizes
        key = deployment.engine.signing_public
        assert (key.group.prime, key.element) in group_ops._MEMBERS
    finally:
        group_ops.reset_tables()
