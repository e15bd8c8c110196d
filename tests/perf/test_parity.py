"""Cross-implementation parity: every fast path is bit-exact vs scalar.

The seeded sweep covers degenerate (0, 1), odd (7), and bulk (4096)
lengths.  Each test runs the numpy fast path and its scalar twin from
:mod:`tests.perf.reference` on identical inputs / identical DRBG state
and asserts *identical* outputs — masks, blinded vectors, aggregates,
codec round trips, and commitment digests.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

import repro.codec
from repro.crypto.commitments import (
    LIMBS,
    _checked_scalar,
    commit_masks,
    decode_mask_payload,
    encode_mask_payload,
    hash_commitment,
    resolve_group,
    scalar_for_mask,
    verify_opening,
)
from repro.core.client import ClientDevice, LocalDataStore
from repro.core.glimmer import GlimmerConfig, GlimmerProgram, features_digest
from repro.core.provisioning import (
    BlinderProvisioner,
    ServiceProvisioner,
    VettingRegistry,
)
from repro.core.service import CloudService
from repro.crypto.dh import TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec
from repro.crypto.masking import (
    BlindingService,
    MaskShare,
    SumZeroMasks,
    apply_mask,
    remove_mask,
)
from repro.crypto.schnorr import SchnorrKeyPair
from repro.crypto.secagg import _expand_mask
from repro.errors import ConfigurationError
from repro.network.transport import Network
from repro.perf import kernels
from repro.runtime.engine import RoundEngine
from repro.scale import ScaleConfig
from repro.sgx.attestation import AttestationService
from repro.sgx.measurement import EnclaveImage, VendorKey
from tests.perf import reference

SWEEP = (0, 1, 7, 4096)
NONEMPTY_SWEEP = (1, 7, 4096)


def _words(seed: bytes, length: int) -> list[int]:
    return HmacDrbg(seed).uint64_vector(length).tolist()


# ------------------------------------------------------------ mask sampling


@pytest.mark.parametrize("length", NONEMPTY_SWEEP)
def test_sum_zero_sampling_matches_scalar(length):
    fast = SumZeroMasks.sample(4, length, HmacDrbg(b"parity-sample"))
    slow = reference.sample_sum_zero_scalar(4, length, HmacDrbg(b"parity-sample"))
    assert [share.row() for share in fast.shares] == slow
    assert fast.verify_sum_zero()


@pytest.mark.parametrize("length", SWEEP)
def test_expand_mask_matches_scalar(length):
    fast = _expand_mask(b"parity-expand", "self", length)
    slow = reference.expand_mask_scalar(b"parity-expand", "self", length)
    assert fast.tolist() == slow


# --------------------------------------------------------- blinded vectors


@pytest.mark.parametrize("length", NONEMPTY_SWEEP)
def test_apply_and_remove_mask_match_scalar(length):
    encoded = _words(b"parity-x", length)
    mask = _words(b"parity-p", length)
    blinded = apply_mask(encoded, mask)
    assert blinded == reference.apply_mask_scalar(encoded, mask)
    assert remove_mask(blinded, mask) == encoded
    assert remove_mask(blinded, mask) == reference.remove_mask_scalar(blinded, mask)


@pytest.mark.parametrize("length", NONEMPTY_SWEEP)
def test_aggregate_sum_matches_scalar(length):
    vectors = [_words(bytes([i]), length) for i in range(6)]
    fast = kernels.ring_sum_rows(vectors).tolist()
    assert fast == reference.sum_vectors_scalar(vectors)


def test_ring_ops_match_scalar_definitions():
    a = _words(b"ring-a", 257)
    b = _words(b"ring-b", 257)
    modulus = 1 << 64
    assert kernels.ring_add(a, b).tolist() == [
        (x + y) % modulus for x, y in zip(a, b)
    ]
    assert kernels.ring_sub(a, b).tolist() == [
        (x - y) % modulus for x, y in zip(a, b)
    ]
    assert kernels.ring_neg(a).tolist() == [(-x) % modulus for x in a]


def test_as_ring_out_of_range_fallback_matches_scalar():
    values = [-1, -(1 << 80), 1 << 64, (1 << 200) + 7, 0, 5]
    expected = [v % (1 << 64) for v in values]
    assert kernels.as_ring(values).tolist() == expected
    rows = [values, list(reversed(values))]
    assert kernels.as_ring_rows(rows).tolist() == [
        [v % (1 << 64) for v in row] for row in rows
    ]


def test_as_ring_reads_packed_bytes_as_be_words():
    """A packed payload is big-endian u64 words, never one word per byte."""
    words = [1, (1 << 64) - 1, 0x0123456789ABCDEF]
    packed = kernels.be_words_to_bytes(words)
    assert kernels.as_ring(packed).tolist() == words
    assert kernels.as_ring(packed).dtype == kernels.U64  # native, not ">u8"
    assert kernels.as_ring(bytearray(packed)).tolist() == words
    assert kernels.as_ring(memoryview(packed)).tolist() == words
    assert kernels.as_ring_rows([packed, packed[::-1]]).tolist() == [
        words,
        kernels.be_words(packed[::-1]).tolist(),
    ]
    assert kernels.ring_accumulate([packed, packed]).tolist() == [
        (2 * w) % (1 << 64) for w in words
    ]
    for torn in (packed[:-1], packed + b"\x00", b"\x07"):
        with pytest.raises(ValueError):
            kernels.as_ring(torn)
        with pytest.raises(ValueError):
            kernels.as_ring_rows([packed, torn])


def test_codec_decodes_packed_words_on_both_paths():
    """Blinded words beyond float exactness take the codec's scalar path,
    which must read packed words too, not one word per byte."""
    codec = FixedPointCodec()
    for words in (codec.encode([0.5, -0.25]), _words(b"parity-wide", 7)):
        packed = kernels.be_words_to_bytes(words)
        assert codec.decode(packed).tolist() == codec.decode(words).tolist()
        assert codec.decode(packed).tolist() == reference.decode_scalar(codec, words)


def test_packed_doubles_match_struct():
    values = [0.0, -1.5, 0.123, 1e300, float("inf"), 5]
    packed = kernels.be_doubles_to_bytes(values)
    assert packed == struct.pack(f">{len(values)}d", *values)
    assert kernels.be_doubles(packed).tolist() == [float(v) for v in values]
    with pytest.raises(OverflowError):
        kernels.be_doubles_to_bytes([1.0, 10**400])
    with pytest.raises(ValueError):
        kernels.be_doubles(packed[:-3])


# ------------------------------------------------------------------- codec


@pytest.mark.parametrize("length", SWEEP)
def test_codec_round_trip_matches_scalar(length):
    codec = FixedPointCodec()
    rng = HmacDrbg(b"parity-codec")
    values = [rng.uniform() * 2000.0 - 1000.0 for _ in range(length)]
    encoded = codec.encode(values)
    assert encoded == reference.encode_scalar(codec, values)
    decoded = codec.decode(encoded)
    assert decoded.tolist() == reference.decode_scalar(codec, encoded)


def test_codec_bounds_error_parity():
    codec = FixedPointCodec()
    bad = [0.0, float(codec.bound) * 2, 1.0]
    with pytest.raises(ConfigurationError):
        codec.encode(bad)
    with pytest.raises(ConfigurationError):
        reference.encode_scalar(codec, bad)


def test_codec_scalar_fallback_beyond_float_exactness():
    # A centred word beyond 2^53 (a blinded capture reaches 2^63) forces
    # decode's scalar loop; it must still agree with decode_value on every
    # element, including the in-range words beside it.
    codec = FixedPointCodec()
    encoded = codec.encode([1234.5678, -0.25, 1e-9, 999999.0]) + [
        (1 << 53) + 1, (1 << 63) - 1, 1 << 63, (1 << 64) - (1 << 60),
    ]
    assert codec.decode(encoded).tolist() == [codec.decode_value(e) for e in encoded]


# ----------------------------------------------------------- serialization


@pytest.mark.parametrize("length", SWEEP)
def test_serialization_round_trip_matches_scalar(length):
    words = _words(b"parity-serial", length)
    payload = kernels.be_words_to_bytes(words)
    assert payload == reference.words_to_bytes_scalar(words)
    assert tuple(kernels.be_words(payload).tolist()) == tuple(words)
    assert tuple(kernels.be_words(payload).tolist()) == reference.bytes_to_words_scalar(
        payload
    )


def test_serialization_overflow_error_parity():
    with pytest.raises(OverflowError):
        kernels.be_words_to_bytes([0, 1 << 64])
    with pytest.raises(OverflowError):
        reference.words_to_bytes_scalar([0, 1 << 64])
    with pytest.raises(OverflowError):
        kernels.be_words_to_bytes([-1])


def test_packed_words_serialize_as_themselves():
    """A buffer that is already packed is its own serialization, so a
    packed mask and its words hash to the same commitment."""
    words = _words(b"parity-packed", 2)
    packed = kernels.be_words_to_bytes(words)
    assert len(packed) == 16
    for buffer in (packed, bytearray(packed), memoryview(packed)):
        assert kernels.be_words_to_bytes(buffer) == packed
    salt = bytes(32)
    assert hash_commitment(3, 1, packed, salt) == hash_commitment(3, 1, words, salt)
    with pytest.raises(ValueError):
        kernels.be_words_to_bytes(packed[:15])


# ------------------------------------------------------ commitment digests


def _scalar_hash_commitment(round_id, slot, mask, salt):
    """hash_items('mask-slot-commitment', ...) reimplemented with a loop."""
    digest = hashlib.sha256()
    tag = b"mask-slot-commitment"
    digest.update(len(tag).to_bytes(2, "big"))
    digest.update(tag)
    for item in (
        round_id.to_bytes(8, "big"),
        slot.to_bytes(4, "big"),
        b"".join(int(v).to_bytes(8, "big") for v in mask),
        salt,
    ):
        digest.update(len(item).to_bytes(8, "big"))
        digest.update(item)
    return digest.digest()


@pytest.mark.parametrize("length", NONEMPTY_SWEEP)
def test_hash_commitment_matches_scalar_serialization(length):
    mask = _words(b"parity-hc", length)
    salt = HmacDrbg(b"parity-salt").generate(32)
    assert hash_commitment(9, 2, mask, salt) == _scalar_hash_commitment(
        9, 2, mask, salt
    )


@pytest.mark.parametrize("length", NONEMPTY_SWEEP)
def test_commitment_column_sums_match_scalar_loop(length):
    group = resolve_group("test-64bit")
    family = SumZeroMasks.sample(3, length, HmacDrbg(b"parity-commit"))
    commitments, openings = commit_masks(
        group, 5, family.shares, HmacDrbg(b"parity-commit-r")
    )
    limbs = LIMBS
    limb_cap = (1 << 16) - 1
    words = [reference.bytes_to_words_scalar(share.row()) for share in family.shares]
    claims = reference.bytes_to_words_scalar(commitments.column_sums)
    for i in range(length):
        expected = tuple(
            sum((mask[i] >> (16 * l)) & limb_cap for mask in words)
            for l in range(limbs)
        )
        assert claims[i * limbs : (i + 1) * limbs] == expected
    commitments.validate_structure(round_id=5, num_slots=3, vector_length=length)
    commitments.verify_sum_zero()
    # The digest set is reproducible from the openings with scalar hashing.
    for slot, opening in enumerate(openings):
        assert commitments.hash_commitments[slot] == _scalar_hash_commitment(
            5, slot, reference.bytes_to_words_scalar(opening.share.row()), opening.salt
        )


def _definitional_scalar(root, group, mask):
    """``s = Σ_{i,l} w[i][l]·limb_l(mask_i) mod q``, term by term.

    Weight ``t = i·limbs + l`` is the ``t``-th ``⌈(|q| + 128) / 8⌉``-byte
    chunk of ``SHAKE256(b"mask-commitment-weight" ‖ root)``, big-endian,
    mod ``q``.  The stream and the limb split are spelled out here rather
    than taken from the library, so this is the definition in
    ``challenge_weights``'s docstring and not a second copy of the
    implementation.
    """
    q = group.subgroup_order
    limbs = 4  # a 64-bit word is four 16-bit limbs
    width = (q.bit_length() + 128 + 7) // 8
    stream = hashlib.shake_256(b"mask-commitment-weight" + root).digest(
        width * limbs * len(mask)
    )
    scalar = 0
    for i, word in enumerate(mask):
        for l in range(limbs):
            t = i * limbs + l
            weight = int.from_bytes(stream[t * width : (t + 1) * width], "big") % q
            scalar = (scalar + weight * ((word >> (16 * l)) & 0xFFFF)) % q
    return scalar


@pytest.mark.parametrize("length", SWEEP)
def test_commitment_scalars_match_definitional_loop(length):
    group = resolve_group("test-64bit")
    masks = [
        [0] * length,
        [(1 << 64) - 1] * length,
        _words(b"parity-scalar", length),
    ]
    shares = [MaskShare(length, words=kernels.be_words_to_bytes(mask)) for mask in masks]
    commitments, openings = commit_masks(
        group, 4, shares, HmacDrbg(b"parity-scalar-r")
    )
    for slot, opening in enumerate(openings):
        expected = _definitional_scalar(commitments.root(), group, masks[slot])
        assert scalar_for_mask(commitments, masks[slot]) == expected
        # The opening checks reach the same scalar from the full set
        # (engine, at reveal) and from one slot's record (Glimmer, at install).
        assert _checked_scalar(commitments, slot, opening)[0] == expected
        record = commitments.record_for(slot)
        assert _checked_scalar(record, slot, opening)[0] == expected
        verify_opening(record, slot, opening)


def test_mask_payload_round_trip_preserves_opening():
    family = SumZeroMasks.sample(3, 7, HmacDrbg(b"parity-payload"))
    _, openings = commit_masks(
        resolve_group("test-64bit"),
        2,
        family.shares,
        HmacDrbg(b"parity-payload-r"),
    )
    for opening in openings:
        decoded = decode_mask_payload(encode_mask_payload(opening))
        assert decoded.share == opening.share
        assert decoded.salt == opening.salt
        assert decoded.randomizer == opening.randomizer


# ----------------------------------------------------- end-to-end aggregate


def test_blinded_round_aggregate_matches_scalar_pipeline():
    """Full §3 blinding with fast kernels == the same round in pure scalar."""
    codec = FixedPointCodec()
    length = 64
    num_parties = 5
    rng = HmacDrbg(b"parity-e2e")
    vectors = [
        [rng.uniform() * 10.0 - 5.0 for _ in range(length)]
        for _ in range(num_parties)
    ]
    masks = SumZeroMasks.sample(num_parties, length, HmacDrbg(b"parity-e2e-m"))

    fast_blinded = [
        apply_mask(codec.encode(vec), masks.share_for(i).row())
        for i, vec in enumerate(vectors)
    ]
    fast_total = codec.decode(codec.sum_vectors(fast_blinded))

    slow_blinded = [
        reference.apply_mask_scalar(
            reference.encode_scalar(codec, vec),
            reference.bytes_to_words_scalar(masks.share_for(i).row()),
        )
        for i, vec in enumerate(vectors)
    ]
    slow_total = reference.decode_scalar(
        codec, reference.sum_vectors_scalar(slow_blinded)
    )

    assert fast_total.tolist() == slow_total
    truth = np.sum(np.asarray(vectors, dtype=np.float64), axis=0)
    assert float(np.max(np.abs(fast_total - truth))) < 1e-3


# ------------------------------------------------------- one wide round, pinned


def _wide_streamed_round_digests():
    seed = b"parity-wide-round"
    name = "parity-wide-glimmer"
    rng = HmacDrbg(seed, personalization="parity-wide")
    features = tuple((f"feature-{i:04d}", "value") for i in range(4096))
    attestation = AttestationService(seed + b":ias")
    vendor = VendorKey.generate(rng.fork("vendor"))
    service_identity = SchnorrKeyPair.generate(rng.fork("svc"), TEST_GROUP)
    signing = SchnorrKeyPair.generate(rng.fork("sign"), TEST_GROUP)
    blinder_identity = SchnorrKeyPair.generate(rng.fork("blind"), TEST_GROUP)
    codec = FixedPointCodec()
    config = GlimmerConfig(
        predicate_spec="range:0.0:1.0",
        service_identity=service_identity.public_key,
        blinder_identity=blinder_identity.public_key,
        features_digest=features_digest(features),
    )
    image = EnclaveImage.build(
        GlimmerProgram, vendor, name=name, config=repro.codec.encode(config),
        code=b"GlimmerProgram",
    )
    registry = VettingRegistry()
    registry.publish(name, image.mrenclave)
    service_provisioner = ServiceProvisioner(
        service_identity, signing, attestation, registry, name,
        rng.fork("service-provisioner"),
    )
    blinder = BlinderProvisioner(
        blinder_identity,
        BlindingService(rng.fork("blinding-service"), codec),
        attestation, registry, name, rng.fork("blinder-provisioner"),
    )
    engine = RoundEngine(
        Network(seed=seed + b":network"),
        CloudService(signing.public_key, codec),
        blinder,
        signing_public=signing.public_key,
        codec=codec,
        group=TEST_GROUP,
        parallelism=ScaleConfig(workers=0, subgroup_size=8),
    )
    users = [f"device-{i:02d}" for i in range(16)]
    words = HmacDrbg(seed, personalization="values").uint64_vector(16 * 4096)
    values = (words >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    vectors = dict(zip(users, values.reshape(16, 4096)))
    clients = []
    for user in users:
        client = ClientDevice(
            user, image, attestation, seed=seed + b":" + user.encode(),
            data=LocalDataStore(),
        )
        client.provision_signing_key(service_provisioner)
        engine.register_client(client)
        clients.append(client)

    # Every party drops a round's state when it closes, so the sealed
    # blobs are read while the round is suspended at a stage boundary and
    # the signatures as the submissions pass through the engine.
    signatures = hashlib.sha256()
    submit = engine.submit_signed

    def recording_submit(sender_id, round_id, contribution, **kwargs):
        sig = contribution.signature
        signatures.update(f"{sender_id}:{sig.challenge:x}:{sig.response:x};".encode())
        return submit(sender_id, round_id, contribution, **kwargs)

    engine.submit_signed = recording_submit
    sealed = hashlib.sha256()
    stages = engine.round_stages(
        1, users, vectors, features, collect_dropouts=(users[3], users[12])
    )
    seen = set()
    try:
        while True:
            stage = next(stages)
            if stage in seen:
                continue
            seen.add(stage)
            if stage == "open":
                root = engine.round_record(1).commitments.root()
                sealed.update(blinder._sealed_rounds[1])
            elif stage == "collect":  # every mask installed and checkpointed
                for client in clients:
                    sealed.update(client._checkpoints[1])
    except StopIteration as done:
        report = done.value
    assert report.submissions_streamed == 14 and report.masks_repaired == 2
    assert report.subgroups_aggregated == 2
    return {
        "root": root.hex(),
        "sealed": sealed.hexdigest(),
        "signatures": signatures.hexdigest(),
        "aggregate": hashlib.sha256(report.aggregate.tobytes()).hexdigest(),
    }


def test_wide_streamed_round_is_byte_identical_to_recorded():
    """One k=4096 round — streamed subgroups of 8, two dropouts repaired —
    pinned by digest.  The values were recorded on the commit before the
    cipher, the commitment scalars and the wire checks went whole-buffer;
    everything sealed, committed, signed and summed is covered.  ``sealed``
    was re-recorded three times, when the blinder began sealing a round's
    seeds instead of its mask rows, when the Glimmer's checkpoint became a
    codec frame instead of a pickle, and when the cipher's keystream
    became one SHAKE256 call; the masks themselves did not change.  Then
    the masks did: a subgroup's family became one SHAKE256 expansion,
    which re-recorded ``root``, ``signatures`` (over the blinded words)
    and ``sealed`` (the Glimmers' checkpoints carry their installed
    masks).  ``sealed`` moved once more when the ring was fixed at
    ``Z/2^64``: the blinder's sealed header lost its ring-width field and
    the Glimmers' checkpointed commitment records lost theirs.  ``sealed``
    and ``signatures`` moved when every byte layout became a declared
    codec record: the sealed round and the checkpoint are records now, and
    the measured config's new bytes move MRENCLAVE, which seeds the
    enclave's signing nonces and keys its sealing.  They moved again, for
    the same reason, when group values began to cross at their group's
    width: the measured config spells each key's group as a one-byte code.
    ``sealed`` alone moved when round ids became u32s: the sealed round
    and the checkpointed commitment records name their round at that
    width.  ``signatures`` and ``sealed`` moved when blinded words began to
    cross at their round's width (6 bytes for these 16 parties): the
    signatures cover the narrowed words, and the checkpoints hold each
    mask narrowed, beside its width.  They moved again when that width
    went in bits (42 for these 16 parties, where it had been 6 bytes).
    ``root`` did not: masks and commitments stay in ``Z/2^64``.  All three
    moved when each slot's row became the expansion of its own seed,
    derived from its subgroup's seed (the masks changed: ``root`` and
    ``signatures``), and the checkpoints began to seal each mask's share,
    a seed or a last slot's words, in place of its narrowed words
    (``sealed``).  ``aggregate`` has never moved.
    """
    assert _wide_streamed_round_digests() == {
        "root": "f66c9afa7ddd0a5787341f4b55236d4b9ee19c822a1a6e0c1915ac10e8b60042",
        "sealed": "574c2e5d8b2aadb135e211342cf712861cc67fbc61dae77c296302cd594e79fc",
        "signatures": "bd4dab63837ac254e24ed67a8d3b7df98c0d43de7cd35f2ddab5fd0f3033f139",
        "aggregate": "b8557277e14cafd0f8f2a7befff5613092a335bba97d6d0fa83195c95702b0c2",
    }
