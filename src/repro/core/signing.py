"""The Signing component and the signed contribution format.

§3: "The third Glimmer component, Signing, takes a user-contributed input
(blinded or unblinded) and the result of the Validation component ... If
validation passed, the Signing component signs the user-contributed input
and returns it to the client for transmission to the service."

A :class:`SignedContribution` binds, under the service-provisioned key:

* the payload — a blinded ring vector or a plaintext float vector, each
  packed as the big-endian values that travel: ring words at the bit
  width the round's sum needs (:func:`~repro.crypto.fixedpoint.ring_width`,
  decided once, as the round opens),
  doubles at 8 bytes (:mod:`repro.perf.kernels`),
* the round id and a fresh nonce (replay protection at the service),
* the validation confidence,
* whether the payload is blinded.

The client relays this object; any tampering in transit breaks the
signature, which is what makes the client untrusted-but-harmless.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import ROUND_ID, Bool, Bytes, Fraction, Int, Optional, Packed, Words, wire
from repro.crypto.fixedpoint import RING_WIDTHS
from repro.crypto.hashing import hash_items
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrPublicKey, SchnorrSignature
from repro.errors import CryptoError

RING_WORDS = Words()
"""A ring payload's declaration: packed words at some round's width."""

RING_WIDTH = Int(RING_WIDTHS[0], RING_WIDTHS[-1])
"""A round's word width in bits, wherever it is named."""

CONFIDENCE_SCALE = 10_000
"""The signature covers the confidence in whole 1/10,000ths, as a u16."""


@wire(
    0x8101, round_id=ROUND_ID, nonce=Bytes(16), blinded=Bool, ring_payload=Optional(RING_WORDS),
    plain_payload=Optional(Packed(finite=True)), confidence=Fraction(CONFIDENCE_SCALE),
    signature=SchnorrSignature,
)
@dataclass(frozen=True)
class SignedContribution:
    """What leaves the Glimmer for the service.

    The payload fields carry the very bytes the signature's digest covers:
    ``ring_payload`` is the blinded words' residues at the round's width
    ``b`` (:func:`~repro.perf.kernels.pack_words`), ⌈b·k/8⌉ bytes,
    ``plain_payload`` big-endian doubles
    (:func:`~repro.perf.kernels.be_doubles_to_bytes`), 8·k bytes, each with
    no count prefix.  A residue has one spelling at its width (pad bits
    zero), so one signature covers exactly one payload.  ``confidence``
    is the multiple of 1/10,000 the digest signs, and crosses as that
    numerator: a value between two quanta has no spelling, so one
    signature covers exactly one confidence too.
    """

    round_id: int
    nonce: bytes
    blinded: bool
    ring_payload: bytes | None
    plain_payload: bytes | None
    confidence: float
    signature: SchnorrSignature

    def signed_bytes(self) -> bytes:
        return contribution_digest(
            self.round_id,
            self.nonce,
            self.blinded,
            self.ring_payload,
            self.plain_payload,
            self.confidence,
        )


def contribution_digest(
    round_id: int,
    nonce: bytes,
    blinded: bool,
    ring_payload: bytes | None,
    plain_payload: bytes | None,
    confidence: float,
) -> bytes:
    """Canonical digest the signature covers.

    The packed payload is hashed as carried, behind a 4-byte count: of
    its 8-byte doubles for a plain payload, of its bytes for a ring
    payload, whose word width is its round's.
    """
    if (ring_payload is None) == (plain_payload is None):
        raise CryptoError("exactly one of ring/plain payload must be present")
    if ring_payload is not None:
        if RING_WORDS(ring_payload):
            raise CryptoError("a ring payload is packed bytes of ring words")
        packed, count = ring_payload, len(ring_payload)
    else:
        packed = plain_payload
        if type(packed) is not bytes or len(packed) % 8:
            raise CryptoError("a payload is packed bytes of whole 8-byte values")
        count = len(packed) // 8
    return hash_items(
        "signed-contribution",
        [
            round_id.to_bytes(8, "big"),
            nonce,
            b"\x01" if blinded else b"\x00",
            b"ring" if ring_payload is not None else b"plain",
            count.to_bytes(4, "big") + packed,
            round(confidence * CONFIDENCE_SCALE).to_bytes(2, "big"),
        ],
    )


class SigningComponent:
    """Holds the service-provisioned signing key inside the Glimmer.

    The key arrives via attested provisioning and is kept sealed between
    sessions; this object is the unsealed, in-enclave working form.
    """

    def __init__(self, keypair: SchnorrKeyPair) -> None:
        self._keypair = keypair

    @property
    def public_key(self) -> SchnorrPublicKey:
        return self._keypair.public_key

    def endorse(
        self,
        round_id: int,
        nonce: bytes,
        blinded: bool,
        ring_payload: bytes | None,
        plain_payload: bytes | None,
        confidence: float,
    ) -> SignedContribution:
        """Sign a validated, packed payload.  Callers must have checked
        validation.  The contribution holds the confidence as signed, to
        the nearest 1/10,000."""
        confidence = round(confidence * CONFIDENCE_SCALE) / CONFIDENCE_SCALE
        digest = contribution_digest(
            round_id, nonce, blinded, ring_payload, plain_payload, confidence
        )
        return SignedContribution(
            round_id=round_id,
            nonce=nonce,
            blinded=blinded,
            ring_payload=ring_payload,
            plain_payload=plain_payload,
            confidence=confidence,
            signature=self._keypair.sign(digest),
        )
