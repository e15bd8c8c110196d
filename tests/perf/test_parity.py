"""Cross-implementation parity: every fast path is bit-exact vs scalar.

The seeded sweep covers degenerate (0, 1), odd (7), and bulk (4096)
lengths.  Each test runs the numpy fast path and its scalar twin from
:mod:`repro.perf.reference` on identical inputs / identical DRBG state
and asserts *identical* outputs — masks, blinded vectors, aggregates,
codec round trips, and commitment digests.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.crypto.commitments import (
    _checked_scalar,
    _limbs_per_word,
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
from repro.crypto.masking import BlindingService, SumZeroMasks, apply_mask, remove_mask
from repro.crypto.schnorr import SchnorrKeyPair
from repro.crypto.secagg import _expand_mask
from repro.errors import ConfigurationError
from repro.network.transport import Network
from repro.perf import kernels, reference
from repro.runtime.engine import RoundEngine
from repro.scale import ScaleConfig
from repro.sgx.attestation import AttestationService
from repro.sgx.measurement import EnclaveImage, VendorKey

SWEEP = (0, 1, 7, 4096)
NONEMPTY_SWEEP = (1, 7, 4096)


def _words(seed: bytes, length: int) -> list[int]:
    return HmacDrbg(seed).uint64_vector(length).tolist()


# ------------------------------------------------------------ mask sampling


@pytest.mark.parametrize("length", NONEMPTY_SWEEP)
def test_sum_zero_sampling_matches_scalar(length):
    fast = SumZeroMasks.sample(4, length, HmacDrbg(b"parity-sample"))
    slow = reference.sample_sum_zero_scalar(4, length, HmacDrbg(b"parity-sample"))
    assert list(fast.masks) == slow
    assert fast.verify_sum_zero()


@pytest.mark.parametrize("length", NONEMPTY_SWEEP)
def test_sum_zero_sampling_matches_scalar_narrow_ring(length):
    fast = SumZeroMasks.sample(3, length, HmacDrbg(b"parity-32"), modulus_bits=32)
    slow = reference.sample_sum_zero_scalar(
        3, length, HmacDrbg(b"parity-32"), modulus_bits=32
    )
    assert list(fast.masks) == slow
    assert fast.verify_sum_zero()


@pytest.mark.parametrize("length", SWEEP)
def test_expand_mask_matches_scalar(length):
    fast = _expand_mask(b"parity-expand", "self", length, 1 << 64)
    slow = reference.expand_mask_scalar(b"parity-expand", "self", length, 1 << 64)
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
    # Narrower ring: wrapped uint64 totals reduce to the right residues.
    fast32 = kernels.ring_sum_rows(vectors, 32).tolist()
    assert fast32 == reference.sum_vectors_scalar(vectors, 32)


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
    expected32 = [v % (1 << 32) for v in values]
    assert kernels.as_ring(values, 32).tolist() == expected32
    rows = [values, list(reversed(values))]
    assert kernels.as_ring_rows(rows).tolist() == [
        [v % (1 << 64) for v in row] for row in rows
    ]


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


@pytest.mark.parametrize("length", NONEMPTY_SWEEP)
def test_codec_round_trip_matches_scalar_narrow_ring(length):
    codec = FixedPointCodec(scale=1 << 8, bound=1 << 10, modulus_bits=32)
    rng = HmacDrbg(b"parity-codec-32")
    values = [rng.uniform() * 64.0 - 32.0 for _ in range(length)]
    encoded = codec.encode(values)
    assert encoded == reference.encode_scalar(codec, values)
    assert codec.decode(encoded).tolist() == reference.decode_scalar(codec, encoded)


def test_codec_bounds_error_parity():
    codec = FixedPointCodec()
    bad = [0.0, float(codec.bound) * 2, 1.0]
    with pytest.raises(ConfigurationError):
        codec.encode(bad)
    with pytest.raises(ConfigurationError):
        reference.encode_scalar(codec, bad)


def test_codec_scalar_fallback_beyond_float_exactness():
    # bound * scale > 2^53 forces the scalar loop; outputs must still agree
    # with encode_value/decode_value on every element.
    codec = FixedPointCodec(scale=1 << 40, bound=1 << 20)
    values = [1234.5678, -0.25, 1e-9, 999999.0]
    encoded = codec.encode(values)
    assert encoded == [codec.encode_value(v) for v in values]
    assert codec.decode(encoded).tolist() == [codec.decode_value(e) for e in encoded]


# ----------------------------------------------------------- serialization


@pytest.mark.parametrize("length", SWEEP)
def test_serialization_round_trip_matches_scalar(length):
    words = _words(b"parity-serial", length)
    payload = kernels.be_words_to_bytes(words)
    assert payload == reference.words_to_bytes_scalar(words)
    assert kernels.bytes_to_be_words(payload) == tuple(words)
    assert kernels.bytes_to_be_words(payload) == reference.bytes_to_words_scalar(
        payload
    )


def test_serialization_overflow_error_parity():
    with pytest.raises(OverflowError):
        kernels.be_words_to_bytes([0, 1 << 64])
    with pytest.raises(OverflowError):
        reference.words_to_bytes_scalar([0, 1 << 64])
    with pytest.raises(OverflowError):
        kernels.be_words_to_bytes([-1])


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
        group, 5, family.masks, 64, HmacDrbg(b"parity-commit-r")
    )
    limbs = _limbs_per_word(64)
    limb_cap = (1 << 16) - 1
    for i in range(length):
        expected = tuple(
            sum((mask[i] >> (16 * l)) & limb_cap for mask in family.masks)
            for l in range(limbs)
        )
        assert commitments.column_sums[i] == expected
    commitments.validate_structure(round_id=5, num_slots=3, vector_length=length)
    commitments.verify_sum_zero()
    # The digest set is reproducible from the openings with scalar hashing.
    for slot, opening in enumerate(openings):
        assert commitments.hash_commitments[slot] == _scalar_hash_commitment(
            5, slot, opening.mask, opening.salt
        )


def _definitional_scalar(root, group, mask, modulus_bits):
    """``s = Σ_{i,l} H(root, i, l)·limb_l(mask_i) mod q``, term by term.

    The weight hash and the limb split are spelled out here rather than
    taken from the library, so this is the definition in the module
    docstring and not a second copy of the implementation.
    """
    q = group.subgroup_order
    tag = b"mask-commitment-weight"
    blocks = (q.bit_length() + 128 + 255) // 256
    scalar = 0
    for i, word in enumerate(mask):
        for l in range((modulus_bits + 15) // 16):
            data = root + i.to_bytes(4, "big") + l.to_bytes(2, "big")
            stream = b"".join(
                hashlib.sha256(
                    len(tag).to_bytes(2, "big") + tag + c.to_bytes(4, "big") + data
                ).digest()
                for c in range(blocks)
            )
            weight = int.from_bytes(stream, "big") % q
            scalar = (scalar + weight * ((word >> (16 * l)) & 0xFFFF)) % q
    return scalar


@pytest.mark.parametrize("modulus_bits", (32, 64))
@pytest.mark.parametrize("length", SWEEP)
def test_commitment_scalars_match_definitional_loop(length, modulus_bits):
    group = resolve_group("test-64bit")
    ring_max = (1 << modulus_bits) - 1
    masks = [
        [0] * length,
        [ring_max] * length,
        [word & ring_max for word in _words(b"parity-scalar", length)],
    ]
    commitments, openings = commit_masks(
        group, 4, masks, modulus_bits, HmacDrbg(b"parity-scalar-r")
    )
    for slot, opening in enumerate(openings):
        expected = _definitional_scalar(
            commitments.root(), group, masks[slot], modulus_bits
        )
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
        family.masks,
        64,
        HmacDrbg(b"parity-payload-r"),
    )
    for opening in openings:
        decoded = decode_mask_payload(encode_mask_payload(opening))
        assert decoded.mask == opening.mask
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
        apply_mask(codec.encode(vec), masks.mask_for(i))
        for i, vec in enumerate(vectors)
    ]
    fast_total = codec.decode(codec.sum_vectors(fast_blinded))

    slow_blinded = [
        reference.apply_mask_scalar(
            reference.encode_scalar(codec, vec), masks.mask_for(i)
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
        GlimmerProgram, vendor, name=name, config=config.encode(),
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
    everything sealed, committed, signed and summed is covered.
    """
    assert _wide_streamed_round_digests() == {
        "root": "f303be600295bf7b16b2cf4801e2090af5403b4887294898763449ed5dd5d3b1",
        "sealed": "6922740f89d53df20c0a41bb9926475da01659bf38d3e2b4b9dafbfa98206380",
        "signatures": "a5515df9698a71a7fd08a301760b85b8e889268943d87c1e945669ea5a962455",
        "aggregate": "b8557277e14cafd0f8f2a7befff5613092a335bba97d6d0fa83195c95702b0c2",
    }
