"""Authenticated encryption built from HMAC-SHA256.

The cipher is encrypt-then-MAC over a counter-mode keystream:

* keystream block ``i`` = ``HMAC(K_enc, nonce || i)``
* tag = ``HMAC(K_mac, nonce || associated_data_framing || ciphertext)``

Encryption and MAC keys are derived from the caller's key with HKDF, so a
single 32-byte key is all protocols carry around.  The construction is a
standard, provable AE composition; what makes it simulation-grade is the key
sizes elsewhere in the library, not this module.
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.crypto.hashing import keyed_hmac_sha256
from repro.crypto.kdf import hkdf
from repro.errors import AuthenticationError, CryptoError

NONCE_SIZE = 16
TAG_SIZE = 32
_BLOCK = 32


@dataclass(frozen=True)
class SealedBox:
    """An authenticated ciphertext: nonce, ciphertext, and tag."""

    nonce: bytes
    ciphertext: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        """Serialize for transport: nonce || tag || ciphertext."""
        return self.nonce + self.tag + self.ciphertext

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SealedBox":
        if len(blob) < NONCE_SIZE + TAG_SIZE:
            raise CryptoError("sealed box too short")
        return cls(
            nonce=blob[:NONCE_SIZE],
            tag=blob[NONCE_SIZE : NONCE_SIZE + TAG_SIZE],
            ciphertext=blob[NONCE_SIZE + TAG_SIZE :],
        )


class AuthenticatedCipher:
    """Symmetric authenticated encryption under a single 32-byte key.

    The caller supplies nonces (the simulator's DRBGs generate them), which
    keeps the cipher deterministic and testable.  A nonce must never repeat
    under one key; protocols in this library use per-message counters or
    DRBG output.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise CryptoError("key must be at least 16 bytes")
        self._keystream_block = keyed_hmac_sha256(hkdf(key, "ae-encryption-key"))
        self._mac_key = hkdf(key, "ae-mac-key")

    def _xor_keystream(self, nonce: bytes, data: bytes) -> bytes:
        """``data`` XOR the first ``len(data)`` keystream bytes, as one buffer."""
        block = self._keystream_block
        stream = b"".join(
            [
                block(nonce + i.to_bytes(8, "big"))
                for i in range((len(data) + _BLOCK - 1) // _BLOCK)
            ]
        )
        return (
            np.frombuffer(data, dtype=np.uint8)
            ^ np.frombuffer(stream, dtype=np.uint8, count=len(data))
        ).tobytes()

    def _tag(self, nonce: bytes, associated_data: bytes, ciphertext: bytes) -> bytes:
        framing = (
            nonce
            + len(associated_data).to_bytes(8, "big")
            + associated_data
            + ciphertext
        )
        return hmac.new(self._mac_key, framing, hashlib.sha256).digest()

    def encrypt(self, nonce: bytes, plaintext: bytes, associated_data: bytes = b"") -> SealedBox:
        """Encrypt and authenticate ``plaintext`` (and bind ``associated_data``)."""
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"nonce must be {NONCE_SIZE} bytes")
        ciphertext = self._xor_keystream(nonce, plaintext)
        return SealedBox(nonce, ciphertext, self._tag(nonce, associated_data, ciphertext))

    def decrypt(self, box: SealedBox, associated_data: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext; raise on any tampering."""
        expected = self._tag(box.nonce, associated_data, box.ciphertext)
        if not hmac.compare_digest(expected, box.tag):
            raise AuthenticationError("ciphertext authentication failed")
        return self._xor_keystream(box.nonce, box.ciphertext)
