"""Tests for sealed storage and monotonic counters."""

import pytest

from repro.core.glimmer import pack_features
from repro.crypto.drbg import HmacDrbg
from repro.errors import EnclaveError, SealingError
from repro.sgx import EnclaveImage, SgxPlatform
from repro.sgx.counters import CounterStore, MonotonicCounter
from repro.sgx.enclave import EnclaveIdentity
from repro.sgx.sealing import SealingManager

from tests.sgx.conftest import CounterProgram


def identity(mrenclave=b"\x01" * 32, mrsigner=b"\x02" * 32, version=1, debug=False):
    return EnclaveIdentity(
        mrenclave=mrenclave, mrsigner=mrsigner, version=version, debug=debug
    )


@pytest.fixture
def sealing():
    return SealingManager(b"root-secret" * 3, HmacDrbg(b"seal-rng"))


def test_seal_unseal_roundtrip(sealing):
    ident = identity()
    blob = sealing.seal(ident, b"payload", "mrenclave")
    assert sealing.unseal(ident, blob) == b"payload"


def test_mrenclave_policy_blocks_other_code(sealing):
    blob = sealing.seal(identity(), b"payload", "mrenclave")
    other = identity(mrenclave=b"\x09" * 32)
    with pytest.raises(SealingError):
        sealing.unseal(other, blob)


def test_mrsigner_policy_survives_code_change(sealing):
    blob = sealing.seal(identity(), b"payload", "mrsigner")
    upgraded = identity(mrenclave=b"\x09" * 32)  # same signer, new code
    assert sealing.unseal(upgraded, blob) == b"payload"


def test_mrsigner_policy_blocks_other_vendor(sealing):
    blob = sealing.seal(identity(), b"payload", "mrsigner")
    other_vendor = identity(mrsigner=b"\x0a" * 32)
    with pytest.raises(SealingError):
        sealing.unseal(other_vendor, blob)


def test_unknown_policy_rejected(sealing):
    with pytest.raises(SealingError):
        sealing.seal(identity(), b"x", "mrwhatever")


def test_seal_golden_blob():
    """Byte-level pin of a sealed blob (header, nonce, tag, ciphertext),
    recorded when the cipher's keystream became one SHAKE256 call."""
    manager = SealingManager(b"golden-root-secret", HmacDrbg(b"golden-seal-nonce"))
    ident = identity(mrenclave=b"\x11" * 32, mrsigner=b"\x22" * 32)
    payload = b"sealed golden payload: " + bytes(range(40))
    blob = manager.seal(ident, payload, "mrenclave")
    assert blob.hex() == (
        "00" + "11" * 32
        + "ee4363e3a836213b63c950c3a57afa47"
        "d4860d77a20745ca90633517b0c854a52af91675b5552ced873b47b86b2be1fe"
        "1c2e4c2740f802785b2c742bab275f294f83923bd634de37095de17edc37d532"
        "e63dab5f4812d2edca20f4d3d307cc895d52520c155a62adae445ba590409a"
    )
    assert manager.unseal(ident, blob) == payload


def test_truncated_blob_rejected(sealing):
    with pytest.raises(SealingError):
        sealing.unseal(identity(), b"\x00" * 10)


def test_non_bytes_blob_rejected(sealing):
    """A host can hand back any value; a list whose first item indexes the
    policy table from the end must not slip past the policy check."""
    with pytest.raises(SealingError):
        sealing.unseal(identity(), [-3] + [0] * 40)


def test_unknown_policy_byte_rejected(sealing):
    blob = sealing.seal(identity(), b"x", "mrenclave")
    with pytest.raises(SealingError):
        sealing.unseal(identity(), b"\x07" + blob[1:])


def test_header_tamper_rejected(sealing):
    ident = identity()
    blob = sealing.seal(ident, b"x", "mrenclave")
    # Flip a bit in the ciphertext region.
    mutated = blob[:40] + bytes([blob[40] ^ 1]) + blob[41:]
    with pytest.raises(SealingError):
        sealing.unseal(ident, mutated)


def test_cross_platform_sealing_fails():
    ident = identity()
    sealing_a = SealingManager(b"secret-a" * 4, HmacDrbg(b"a"))
    sealing_b = SealingManager(b"secret-b" * 4, HmacDrbg(b"b"))
    blob = sealing_a.seal(ident, b"data", "mrenclave")
    with pytest.raises(SealingError):
        sealing_b.unseal(ident, blob)


def test_empty_payload_roundtrip(sealing):
    ident = identity()
    assert sealing.unseal(ident, sealing.seal(ident, b"", "mrenclave")) == b""


def test_sealed_blobs_nondeterministic(sealing):
    ident = identity()
    assert sealing.seal(ident, b"x", "mrenclave") != sealing.seal(ident, b"x", "mrenclave")


def test_cross_enclave_unseal_via_platform(vendor, attestation_service):
    """End-to-end: a different program cannot unseal the Glimmer's state."""
    from repro.sgx import EnclaveProgram, ecall

    class Thief(EnclaveProgram):
        @ecall
        def try_unseal(self, blob):
            return self.api.unseal(blob)

    platform = SgxPlatform(b"seal-plat", attestation_service=attestation_service)
    victim = platform.load_enclave(EnclaveImage.build(CounterProgram, vendor))
    thief = platform.load_enclave(EnclaveImage.build(Thief, vendor))
    blob = victim.ecall("seal_secret")
    with pytest.raises(SealingError):
        thief.ecall("try_unseal", blob)


def test_mrsigner_sealing_upgrade_path(vendor, attestation_service):
    """A v2 image from the same vendor can unseal v1's mrsigner-sealed data."""
    platform = SgxPlatform(b"upg-plat", attestation_service=attestation_service)
    v1 = platform.load_enclave(EnclaveImage.build(CounterProgram, vendor, version=1))
    v2 = platform.load_enclave(EnclaveImage.build(CounterProgram, vendor, version=2))
    blob = v1.ecall("seal_to_signer")
    assert v2.ecall("unseal", blob) == b"enclave-private-secret"


def test_monotonic_counter_increments():
    counter = MonotonicCounter(b"m" * 32, "quota")
    assert counter.value == 0
    assert counter.increment() == 1
    assert counter.increment() == 2


def test_rollback_detection():
    counter = MonotonicCounter(b"m" * 32, "quota")
    counter.increment()
    # A reader holding an older value sees the counter ahead of it (a
    # rollback); one holding a newer value sees it behind.
    assert counter.value > 0
    assert not counter.value >= 5


def test_counter_store_scoping():
    store = CounterStore()
    a = store.counter_for(b"a" * 32, "n")
    b = store.counter_for(b"b" * 32, "n")
    same_a = store.counter_for(b"a" * 32, "n")
    a.increment()
    assert same_a.value == 1
    assert b.value == 0
    assert len(store) == 2


def test_closed_round_checkpoint_is_refused_as_stale():
    """Closing a round advances its signing counter, so a checkpoint the
    host kept from before the close cannot reinstall a mask the service
    already received as §3 repair."""
    from repro.errors import CryptoError
    from repro.experiments.common import Deployment

    deployment = Deployment.build(
        num_users=3, seed=b"closed-checkpoint", sentences_per_user=8
    )
    users = [user.user_id for user in deployment.corpus.users]
    vectors = deployment.local_vectors()
    features = deployment.features.bigrams
    silent = deployment.clients[users[0]]
    kept = []
    checkpoint_round = silent.checkpoint_round

    def keep(round_id):
        kept.append(checkpoint_round(round_id))
        return kept[-1]

    silent.checkpoint_round = keep
    report = deployment.engine.run_round(
        1, users, vectors, features, collect_dropouts=[users[0]]
    )
    assert report.masks_repaired == 1 and kept
    with pytest.raises(EnclaveError, match="stale"):
        silent.glimmer.ecall("restore_round", kept[-1])
    with pytest.raises(CryptoError):
        silent.contribute(1, vectors[users[0]], pack_features(features))
