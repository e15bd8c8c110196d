"""Sealed storage: encrypt data so only a designated enclave can recover it.

SGX derives sealing keys with EGETKEY from a fused, per-CPU root secret plus
the requesting enclave's identity.  Two policies exist and both are modeled:

* ``mrenclave`` — keyed to the exact measurement; a patched or different
  enclave (even from the same vendor) cannot unseal.  The paper uses this
  for the service's signing key: "sealed ... to the Glimmer code, so that it
  is only available to instances of Glimmer enclaves."
* ``mrsigner`` — keyed to the vendor; newer versions from the same vendor
  can unseal (upgrade path).

Sealed blobs authenticate their policy metadata, so tampering with the
header is detected rather than yielding a wrong-key decryption.
"""

from __future__ import annotations

from repro.crypto.cipher import AuthenticatedCipher, SealedBox
from repro.crypto.drbg import HmacDrbg
from repro.crypto.kdf import hkdf
from repro.errors import SealingError
from repro.sgx.enclave import EnclaveIdentity

_POLICIES = ("mrenclave", "mrsigner")
_HEADER_SIZE = 1 + 32  # policy byte + identity hash


class SealingManager:
    """Per-platform sealing: derives keys from the CPU root sealing secret."""

    def __init__(self, root_secret: bytes, rng: HmacDrbg) -> None:
        self._root_secret = root_secret
        self._rng = rng

    def _policy_identity(self, identity: EnclaveIdentity, policy: str) -> bytes:
        if policy == "mrenclave":
            return identity.mrenclave
        if policy == "mrsigner":
            return identity.mrsigner
        raise SealingError(f"unknown sealing policy {policy!r}")

    def _key_for(self, policy: str, policy_identity: bytes) -> bytes:
        return hkdf(
            self._root_secret,
            f"sgx-seal-key:{policy}",
            salt=policy_identity,
        )

    def seal(self, identity: EnclaveIdentity, plaintext: bytes, policy: str) -> bytes:
        """Seal ``plaintext`` under ``identity`` with the given policy."""
        if policy not in _POLICIES:
            raise SealingError(f"unknown sealing policy {policy!r}")
        policy_identity = self._policy_identity(identity, policy)
        cipher = AuthenticatedCipher(self._key_for(policy, policy_identity))
        nonce = self._rng.generate(16)
        header = bytes([_POLICIES.index(policy)]) + policy_identity
        box = cipher.encrypt(nonce, plaintext, associated_data=header)
        return header + box.to_bytes()

    def unseal(self, identity: EnclaveIdentity, blob: bytes) -> bytes:
        """Unseal a blob; fails unless ``identity`` matches the sealing policy."""
        if not isinstance(blob, (bytes, bytearray, memoryview)):
            raise SealingError(f"sealed blob is a {type(blob).__name__}, not bytes")
        if len(blob) < _HEADER_SIZE:
            raise SealingError("sealed blob too short")
        policy_index = blob[0]
        if policy_index >= len(_POLICIES):
            raise SealingError("sealed blob has unknown policy")
        policy = _POLICIES[policy_index]
        sealed_identity = blob[1:_HEADER_SIZE]
        expected_identity = self._policy_identity(identity, policy)
        if sealed_identity != expected_identity:
            raise SealingError(
                f"sealed to a different {policy}; this enclave cannot unseal"
            )
        cipher = AuthenticatedCipher(self._key_for(policy, sealed_identity))
        header = blob[:_HEADER_SIZE]
        try:
            box = SealedBox.from_bytes(blob[_HEADER_SIZE:])
            return cipher.decrypt(box, associated_data=header)
        except Exception as exc:
            raise SealingError("sealed blob failed authentication") from exc
