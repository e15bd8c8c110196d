"""Tests for the Signing and Blinding components and the contribution format."""

import pytest

from repro.core.blinding import BlindingComponent
from repro.core.signing import SignedContribution, SigningComponent, contribution_digest
from repro.crypto.dh import TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec, ring_width
from repro.crypto.masking import SumZeroMasks
from repro.crypto.schnorr import SchnorrKeyPair
from repro.errors import CryptoError, ValidationError
from repro.perf.kernels import be_doubles_to_bytes as F, be_words_to_bytes as W
from tests.core.conftest import unblinded


@pytest.fixture
def signer():
    return SigningComponent(SchnorrKeyPair.generate(HmacDrbg(b"sign"), TEST_GROUP))


def test_endorse_ring_payload_verifies(signer):
    signed = signer.endorse(
        round_id=1, nonce=b"n" * 16, blinded=True,
        ring_payload=W([1, 2, 3]), plain_payload=None, confidence=1.0,
    )
    signer.public_key.verify(signed.signed_bytes(), signed.signature)


def test_endorse_plain_payload_verifies(signer):
    signed = signer.endorse(
        round_id=1, nonce=b"n" * 16, blinded=False,
        ring_payload=None, plain_payload=F([0.5, 0.25]), confidence=0.9,
    )
    signer.public_key.verify(signed.signed_bytes(), signed.signature)


def test_digest_requires_exactly_one_payload():
    with pytest.raises(CryptoError):
        contribution_digest(1, b"n", True, W([1]), F([1.0]), 1.0)
    with pytest.raises(CryptoError):
        contribution_digest(1, b"n", True, None, None, 1.0)


def test_digest_binds_every_field(signer):
    base = contribution_digest(1, b"n" * 16, True, W([1, 2]), None, 1.0)
    assert contribution_digest(2, b"n" * 16, True, W([1, 2]), None, 1.0) != base
    assert contribution_digest(1, b"m" * 16, True, W([1, 2]), None, 1.0) != base
    assert contribution_digest(1, b"n" * 16, False, W([1, 2]), None, 1.0) != base
    assert contribution_digest(1, b"n" * 16, True, W([1, 3]), None, 1.0) != base
    assert contribution_digest(1, b"n" * 16, True, W([1, 2]), None, 0.5) != base


def test_tampered_payload_fails_verification(signer):
    signed = signer.endorse(
        round_id=1, nonce=b"n" * 16, blinded=True,
        ring_payload=W([1, 2, 3]), plain_payload=None, confidence=1.0,
    )
    tampered = SignedContribution(
        round_id=signed.round_id,
        nonce=signed.nonce,
        blinded=signed.blinded,
        ring_payload=W((9, 2, 3)),
        plain_payload=None,
        confidence=signed.confidence,
        signature=signed.signature,
    )
    assert not signer.public_key.is_valid(tampered.signed_bytes(), tampered.signature)


def test_ring_and_plain_digests_never_collide(signer):
    """The payload-kind tag prevents a float payload masquerading as ring."""
    ring = contribution_digest(1, b"n" * 16, False, W([0]), None, 1.0)
    plain = contribution_digest(1, b"n" * 16, False, None, F([0.0]), 1.0)
    assert ring != plain


NONCE = bytes(range(16))
WORDS = (0, 1, 2**64 - 1, 0x0123456789ABCDEF)
FLOATS = (0.0, -1.5, 0.123, 1e300)


def test_digest_of_packed_payload_matches_recorded_golden():
    """Packing moved what travels, not what is signed: these digests were
    recorded when the payload still travelled as a tuple and the digest
    re-encoded it behind its 4-byte count.  The ring digest was re-recorded
    when blinded words began to cross at their round's width: its count is
    of bytes now, since the digest does not know the width."""
    ring = contribution_digest(7, NONCE, True, W(WORDS), None, 0.75)
    plain = contribution_digest(7, NONCE, False, None, F(FLOATS), 1.0)
    assert ring.hex() == (
        "9704a70eb67c45c57b223b57d9a34bd039ad67c3591648c3d1321bda54c0f342"
    )
    assert plain.hex() == (
        "7a32e725772acf4bee7cbe85f6946440a67add6821e94c2af13fb24ca5cef56b"
    )


@pytest.mark.parametrize(
    "payload",
    [WORDS, list(WORDS), bytearray(W(WORDS)), W(WORDS)[:-1], W(WORDS) + b"\x00"],
    ids=["tuple", "list", "bytearray", "torn", "trailing-byte"],
)
def test_digest_covers_only_packed_payloads(payload):
    """One signature, one payload: ``2**64 + 5`` and ``5`` once encoded to
    the same words; now only packed bytes can be signed, a plain payload
    only as whole 8-byte doubles.  A ring payload's width is its round's,
    which the digest does not know: it signs the bytes as they are, behind
    their count, so a torn or lengthened payload is another payload under
    another digest, and its spelling is judged by the readers that know
    the round (``kernels.misspelled``)."""
    if type(payload) is bytes:
        whole = contribution_digest(7, NONCE, True, W(WORDS), None, 0.75)
        assert contribution_digest(7, NONCE, True, payload, None, 0.75) != whole
    else:
        with pytest.raises(CryptoError):
            contribution_digest(7, NONCE, True, payload, None, 0.75)
    with pytest.raises(CryptoError):
        contribution_digest(7, NONCE, False, None, payload, 0.75)


# ---------------------------------------------------------------- blinding

def test_blinding_component_roundtrip():
    codec = FixedPointCodec()
    component = BlindingComponent()
    masks = SumZeroMasks.sample(2, 3, HmacDrbg(b"bl"))
    component.install_mask(7, 0, masks.share_for(0), masks.share_for(0).row(), ring_width(2))
    blinded = component.blind(7, 0, [0.5, -0.25, 1.0])
    assert type(blinded) is bytes and len(blinded) == -(-ring_width(2) * 3 // 8)
    assert list(codec.decode(unblinded(blinded, masks.share_for(0).row(), ring_width(2)))) == pytest.approx(
        [0.5, -0.25, 1.0]
    )


def test_blinding_mask_single_use():
    component = BlindingComponent()
    masks = SumZeroMasks.sample(2, 2, HmacDrbg(b"bl"))
    component.install_mask(1, 0, masks.share_for(0), masks.share_for(0).row(), ring_width(2))
    component.blind(1, 0, [0.1, 0.2])
    with pytest.raises(CryptoError):
        component.blind(1, 0, [0.1, 0.2])


def test_blinding_double_install_rejected():
    component = BlindingComponent()
    masks = SumZeroMasks.sample(2, 2, HmacDrbg(b"bl"))
    component.install_mask(1, 0, masks.share_for(0), masks.share_for(0).row(), ring_width(2))
    with pytest.raises(CryptoError):
        component.install_mask(1, 0, masks.share_for(1), masks.share_for(1).row(), ring_width(2))
    # a different party slot in the same round is fine (shared remote Glimmer)
    component.install_mask(1, 1, masks.share_for(1), masks.share_for(1).row(), ring_width(2))


def test_blinding_missing_mask_rejected():
    with pytest.raises(CryptoError):
        BlindingComponent().blind(99, 0, [0.5])


def test_blinding_length_mismatch_rejected():
    """A wrong-length contribution is the device's invalid input, refused
    before the mask is taken: the slot's mask stays installed, and the
    right-length contribution still blinds with it."""
    component = BlindingComponent()
    masks = SumZeroMasks.sample(2, 2, HmacDrbg(b"bl"))
    component.install_mask(1, 0, masks.share_for(0), masks.share_for(0).row(), ring_width(2))
    for wrong in ([0.5, 0.5, 0.5], [0.5]):
        with pytest.raises(ValidationError, match="does not match"):
            component.blind(1, 0, wrong)
        assert component.has_mask(1, 0)
    blinded = component.blind(1, 0, [0.5, 0.25])
    assert not component.has_mask(1, 0)
    assert list(FixedPointCodec().decode(unblinded(blinded, masks.share_for(0).row(), ring_width(2)))) == [0.5, 0.25]


def test_has_mask():
    component = BlindingComponent()
    assert not component.has_mask(1)
    masks = SumZeroMasks.sample(2, 2, HmacDrbg(b"bl"))
    component.install_mask(1, 0, masks.share_for(0), masks.share_for(0).row(), ring_width(2))
    assert component.has_mask(1)
    assert not component.has_mask(1, party_index=1)
    component.blind(1, 0, [0.1, 0.2])
    assert not component.has_mask(1)
