"""HMAC-DRBG (NIST SP 800-90A style) deterministic random bit generator.

All randomness in the simulator flows through :class:`HmacDrbg` so that
experiments are reproducible bit-for-bit from a seed.  The construction is
the standard HMAC-SHA256 DRBG: an internal ``(K, V)`` state updated on every
generate and reseed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.crypto.hashing import hmac_sha256, keyed_hmac_sha256

_OUTLEN = 32


class HmacDrbg:
    """Deterministic random bit generator keyed by a seed and a personalization string.

    Parameters
    ----------
    seed:
        Entropy input.  Equal seeds plus equal personalization yield equal
        output streams.
    personalization:
        Domain-separation string; two DRBGs with the same seed but different
        personalization produce independent-looking streams.
    """

    def __init__(self, seed: bytes, personalization: str = "") -> None:
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes")
        self._key = b"\x00" * _OUTLEN
        self._value = b"\x01" * _OUTLEN
        self._update(bytes(seed) + personalization.encode("utf-8"))
        self.reseed_counter = 1

    def _update(self, provided: bytes = b"", mac=None) -> None:
        """SP 800-90A's update.  ``mac`` is the current key's
        :func:`keyed_hmac_sha256`, when the caller already built it; a key
        that MACs only once is used one-shot (:func:`hmac_sha256`)."""
        data = self._value + b"\x00" + provided
        self._key = mac(data) if mac else hmac_sha256(self._key, data)
        if provided:
            mac = keyed_hmac_sha256(self._key)
            self._value = mac(self._value)
            self._key = mac(self._value + b"\x01" + provided)
        self._value = hmac_sha256(self._key, self._value)

    def reseed(self, entropy: bytes) -> None:
        """Mix fresh entropy into the state."""
        self._update(entropy)
        self.reseed_counter = 1

    def generate(self, num_bytes: int) -> bytes:
        """Return ``num_bytes`` pseudorandom bytes and advance the state.

        Every output block and the next key are MACs under the current
        key, so its key schedule runs once per call, not once per block;
        only the next ``V`` is a MAC under the next key.  No keyed state
        outlives the call.
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        mac = keyed_hmac_sha256(self._key)
        value = self._value
        blocks: list[bytes] = []
        for _ in range((num_bytes + _OUTLEN - 1) // _OUTLEN):
            value = mac(value)
            blocks.append(value)
        self._value = value
        self._update(mac=mac)
        self.reseed_counter += 1
        return b"".join(blocks)[:num_bytes]

    #: The bulk spelling the mask kernels use: the same stream, one keyed
    #: pass, which is what :meth:`generate` is.
    generate_block = generate

    def uint64_vector(self, length: int) -> np.ndarray:
        """``length`` uniform 64-bit ring words as a ``np.uint64`` array.

        One HMAC stream pass: the words are the big-endian parse of
        ``generate_block(8 * length)``, so a scalar caller doing
        ``int.from_bytes`` over the same stream reproduces them exactly
        (the parity contract the mask kernels rely on).
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        data = self.generate_block(8 * length)
        return np.frombuffer(data, dtype=">u8").astype(np.uint64)

    def randint(self, upper: int) -> int:
        """Uniform integer in ``[0, upper)`` via rejection sampling.

        ``nbits`` is the bit length of ``upper - 1``: for a power-of-two
        ``upper`` the masked candidate is always in range, so exactly one
        ``generate`` call is consumed — no rejection loop (tested as the
        no-rejection fast path; :meth:`uniform` and 64-bit ring sampling
        depend on it).  For any other ``upper`` the bit lengths of
        ``upper`` and ``upper - 1`` coincide, the candidate is rejected
        with probability below one half, and the loop retries — unbiased
        by construction, identical stream to the historical behavior.
        """
        if upper <= 0:
            raise ValueError("upper must be positive")
        nbits = (upper - 1).bit_length()
        nbytes = (nbits + 7) // 8
        mask = (1 << nbits) - 1
        while True:
            candidate = int.from_bytes(self.generate(nbytes), "big") & mask
            if candidate < upper:
                return candidate

    def randrange(self, lower: int, upper: int) -> int:
        """Uniform integer in ``[lower, upper)``."""
        if upper <= lower:
            raise ValueError("empty range")
        return lower + self.randint(upper - lower)

    def uniform(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of precision.

        ``2^53`` is a power of two, so :meth:`randint` takes its
        no-rejection fast path: every call consumes exactly one 7-byte
        generate, and the result is an exact dyadic rational ``k / 2^53``
        — there is no modulo bias to correct for.
        """
        return self.randint(1 << 53) / float(1 << 53)

    def gauss(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        """Gaussian sample via Box-Muller (deterministic, like everything here)."""
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        return mean + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def choice(self, seq):
        """Uniformly pick one element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randint(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this DRBG."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def fork(self, label: str) -> "HmacDrbg":
        """Derive an independent child DRBG.

        Forking lets one experiment seed spawn per-client, per-round
        generators without the streams overlapping.
        """
        return HmacDrbg(self.generate(_OUTLEN), personalization="fork:" + label)
