"""Public-key fast path vs the frozen naive twins — exact-decision parity.

Same contract as ``tests/perf/test_parity.py`` for the ring kernels: the
windowed/batched implementations in :mod:`repro.crypto.group_ops`,
:mod:`repro.crypto.schnorr`, and :mod:`repro.crypto.commitments` must
reproduce the *decisions* of the naive twins in
:mod:`tests.perf.reference` on every input — accept exactly what the
seed-revision code accepted, reject exactly what it rejected.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto import group_ops
from repro.crypto.commitments import (
    batch_verify_openings,
    commit_masks,
    resolve_group,
)
from repro.crypto.dh import OAKLEY_GROUP_1, TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.masking import MaskShare, SumZeroMasks
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrSignature, batch_verify
from repro.perf import kernels
from tests.perf import reference

GROUPS = (TEST_GROUP, OAKLEY_GROUP_1)


@pytest.fixture(autouse=True)
def _clean_group_ops_state():
    group_ops.reset_tables()
    yield
    group_ops.reset_tables()


# -------------------------------------------------------- exponentiation


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_fixed_power_matches_naive(group):
    h = group.subgroup_generator()
    group_ops.register_base(group.prime, h)
    rng = HmacDrbg(b"pk-parity-exp")
    exponents = [0, 1, 2, group.subgroup_order - 1]
    exponents += [group.random_exponent(rng) for _ in range(6)]
    for exponent in exponents:
        assert group_ops.fixed_power(group.prime, h, exponent) == (
            reference.fixed_power_naive(group.prime, h, exponent)
        )
        # group.power must route through the same answer
        assert group.power(h, exponent) == pow(h, exponent, group.prime)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
@pytest.mark.parametrize("count", [0, 1, 2, 5, 20, 64])
def test_multi_power_matches_naive(group, count):
    rng = HmacDrbg(b"pk-parity-multiexp" + bytes([count]))
    h = group.subgroup_generator()
    bases = [group.power(h, group.random_exponent(rng)) for _ in range(count)]
    exponents = [
        int.from_bytes(rng.generate(16), "big") for _ in range(count)
    ]
    if count >= 2:
        exponents[0] = 0  # zero digit rows must contribute nothing
        exponents[1] = 1
    assert group_ops.multi_power(group.prime, bases, exponents) == (
        reference.multi_power_naive(group.prime, bases, exponents)
    )


def test_multi_power_rejects_bad_shapes():
    with pytest.raises(ValueError):
        group_ops.multi_power(TEST_GROUP.prime, [2, 3], [1])
    with pytest.raises(ValueError):
        group_ops.multi_power(TEST_GROUP.prime, [2], [-1])


# ------------------------------------------------------------ batch Schnorr


def _signed_items(count: int, seed: bytes = b"pk-parity-schnorr"):
    keypair = SchnorrKeyPair.generate(HmacDrbg(seed), OAKLEY_GROUP_1)
    items = [
        (message, keypair.sign(message))
        for message in (b"msg-%d" % i for i in range(count))
    ]
    return keypair.public_key, items


def test_batch_schnorr_accepts_what_per_signature_accepts():
    public, items = _signed_items(16)
    assert batch_verify(public, items) is True
    assert reference.verify_signatures_naive(public, items) is True
    for message, signature in items:
        assert public.is_valid(message, signature)


@pytest.mark.parametrize("forged_slot", [0, 31, 63])
def test_forged_signature_hidden_in_batch_of_64(forged_slot):
    """One forgery among 64 valid signatures must sink the batch, and the
    per-signature fallback must blame exactly the culprit."""
    public, items = _signed_items(64)
    message, signature = items[forged_slot]
    forged = dataclasses.replace(signature, response=(signature.response + 1))
    items[forged_slot] = (message, forged)
    assert batch_verify(public, items) is False
    assert reference.verify_signatures_naive(public, items) is False
    verdicts = [public.is_valid(m, s) for m, s in items]
    assert verdicts.count(False) == 1
    assert verdicts.index(False) == forged_slot


def test_batch_schnorr_wrong_message_rejected():
    public, items = _signed_items(8)
    message, signature = items[3]
    items[3] = (message + b"-tampered", signature)
    assert batch_verify(public, items) is False
    assert reference.verify_signatures_naive(public, items) is False


def test_batch_schnorr_without_commitments_abstains():
    """Wire-deserialized signatures carry no nonce commitment; the batch
    path must abstain (None), never guess."""
    public, items = _signed_items(4)
    stripped = [
        (m, SchnorrSignature.from_bytes(s.to_bytes())) for m, s in items
    ]
    assert batch_verify(public, stripped) is None
    assert reference.verify_signatures_naive(public, stripped) is True


def test_batch_schnorr_non_residue_commitment_never_accepted():
    """A sign-flipped commitment (quadratic non-residue) must not be fed
    into the combined check: the Schwartz-Zippel argument only holds
    inside the prime-order subgroup.  The commitment is redundant
    metadata, so the per-signature decision (which recomputes it) is
    unchanged — the batch must abstain or fail over, never accept the
    tampered transcript as a *batch*."""
    public, items = _signed_items(4)
    group = public.group
    non_residue = next(
        x for x in range(2, 100) if group_ops.jacobi(x, group.prime) == -1
    )
    message, signature = items[2]
    flipped = dataclasses.replace(
        signature, commitment=signature.commitment * non_residue % group.prime
    )
    items[2] = (message, flipped)
    assert batch_verify(public, items) in (None, False)
    # the (e, s) pairs themselves are still valid signatures, so the
    # per-signature fallback accepts — exactly the seed decision
    assert reference.verify_signatures_naive(public, items) is True


def test_batch_schnorr_small_batches_abstain():
    public, items = _signed_items(1)
    assert batch_verify(public, items) is None
    assert batch_verify(public, []) is None


# --------------------------------------------------------- batch Pedersen


def _committed(seed: bytes = b"pk-parity-pedersen", num_slots: int = 4):
    group = resolve_group("oakley-group-1")
    family = SumZeroMasks.sample(
        num_slots, 3, HmacDrbg(seed, personalization="family")
    )
    commitments, openings = commit_masks(
        group, 1, family.shares, HmacDrbg(seed, personalization="commit")
    )
    return commitments, list(enumerate(openings))


def test_batch_openings_accept_honest_set():
    commitments, openings = _committed()
    assert batch_verify_openings(commitments, openings) is True
    assert reference.verify_openings_naive(commitments, openings) is True


@pytest.mark.parametrize("field", ["mask", "randomizer", "salt"])
def test_batch_openings_reject_tampering(field):
    commitments, openings = _committed()
    slot, opening = openings[1]
    if field == "mask":
        words = kernels.be_words(opening.share.row()).tolist()
        flipped = kernels.be_words_to_bytes([words[0] ^ 1] + words[1:])
        tampered = dataclasses.replace(opening, share=MaskShare(len(words), words=flipped))
    elif field == "randomizer":
        tampered = dataclasses.replace(opening, randomizer=opening.randomizer + 1)
    else:
        tampered = dataclasses.replace(opening, salt=b"\x00" * len(opening.salt))
    openings[1] = (slot, tampered)
    assert batch_verify_openings(commitments, openings) is False
    assert reference.verify_openings_naive(commitments, openings) is False


def test_batch_openings_small_batches_abstain():
    commitments, openings = _committed()
    assert batch_verify_openings(commitments, openings[:1]) is False
    assert batch_verify_openings(commitments, []) is False


# ----------------------------------------------------- per-signature parity


def test_naive_schnorr_twin_matches_fast_verify():
    public, items = _signed_items(6)
    group = public.group
    for message, signature in items:
        assert reference.schnorr_verify_naive(
            group, public.element, message, signature
        )
        assert public.is_valid(message, signature)
    bad = dataclasses.replace(items[0][1], challenge=items[0][1].challenge + 1)
    assert not reference.schnorr_verify_naive(
        group, public.element, items[0][0], bad
    )
    assert not public.is_valid(items[0][0], bad)
    # out-of-range components rejected on both paths
    oversized = SchnorrSignature(group.subgroup_order, 1)
    assert not reference.schnorr_verify_naive(
        group, public.element, b"m", oversized
    )
    assert not public.is_valid(b"m", oversized)
