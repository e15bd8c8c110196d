"""Shamir secret sharing over the prime field GF(2^255 - 19).

Secure aggregation (Bonawitz et al. [3], which §3 of the paper adopts for
blinding) needs dropout recovery: each client's mask seed is shared among its
peers so that the masks of clients who disappear mid-round can be
reconstructed.  This module supplies the ``t``-of-``n`` sharing.

Secrets are arbitrary 32-byte strings, embedded into field elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.codec import Int, wire
from repro.crypto.drbg import HmacDrbg
from repro.errors import CryptoError

# 2^255 - 19, prime; comfortably holds any 31-byte secret plus framing.
FIELD_PRIME = (1 << 255) - 19
SECRET_SIZE = 30  # bytes; leaves headroom below the prime


@wire(0x8117, x=Int(0), y=Int(0))
@dataclass(frozen=True)
class ShamirShare:
    """One share: evaluation point ``x`` (>=1) and value ``y = f(x)``."""

    x: int
    y: int


def _check_secret(secret: bytes) -> int:
    if len(secret) > SECRET_SIZE:
        raise CryptoError(f"secret must be at most {SECRET_SIZE} bytes")
    # Length framing so trailing-zero secrets round-trip exactly.
    framed = len(secret).to_bytes(1, "big") + secret.rjust(SECRET_SIZE, b"\x00")
    return int.from_bytes(framed, "big")


def _decode_secret(value: int) -> bytes:
    if not 0 <= value < (1 << ((SECRET_SIZE + 1) * 8)):
        raise CryptoError("reconstructed value is not a framed secret")
    framed = value.to_bytes(SECRET_SIZE + 1, "big")
    length = framed[0]
    if length > SECRET_SIZE:
        raise CryptoError("reconstructed value is not a framed secret")
    payload = framed[1:]
    if length == 0:
        if payload != b"\x00" * SECRET_SIZE:
            raise CryptoError("reconstructed value is not a framed secret")
        return b""
    if payload[: SECRET_SIZE - length] != b"\x00" * (SECRET_SIZE - length):
        raise CryptoError("reconstructed value is not a framed secret")
    return payload[SECRET_SIZE - length :]


def split_secret(
    secret: bytes, threshold: int, num_shares: int, rng: HmacDrbg
) -> list[ShamirShare]:
    """Split ``secret`` into ``num_shares`` shares, any ``threshold`` of which recover it.

    Raises :class:`CryptoError` on invalid parameters (threshold < 1,
    threshold > num_shares, oversized secret).
    """
    if threshold < 1:
        raise CryptoError("threshold must be at least 1")
    if num_shares < threshold:
        raise CryptoError("need at least `threshold` shares")
    if num_shares >= FIELD_PRIME:
        raise CryptoError("too many shares for the field")
    constant = _check_secret(secret)
    coefficients = [constant] + [
        rng.randint(FIELD_PRIME) for _ in range(threshold - 1)
    ]
    shares = []
    for x in range(1, num_shares + 1):
        y = 0
        for coefficient in reversed(coefficients):  # Horner's rule
            y = (y * x + coefficient) % FIELD_PRIME
        shares.append(ShamirShare(x=x, y=y))
    return shares


def recover_secret(shares: Sequence[ShamirShare]) -> bytes:
    """Lagrange-interpolate at zero and decode the framed secret.

    The caller must supply at least ``threshold`` *distinct* shares; fewer
    (or corrupted) shares yield either a :class:`CryptoError` or garbage that
    fails frame decoding with overwhelming probability.
    """
    if not shares:
        raise CryptoError("no shares supplied")
    xs = [share.x for share in shares]
    if len(set(xs)) != len(xs):
        raise CryptoError("duplicate share indices")
    secret_value = 0
    for i, share_i in enumerate(shares):
        numerator = 1
        denominator = 1
        for j, share_j in enumerate(shares):
            if i == j:
                continue
            numerator = (numerator * (-share_j.x)) % FIELD_PRIME
            denominator = (denominator * (share_i.x - share_j.x)) % FIELD_PRIME
        lagrange = numerator * pow(denominator, FIELD_PRIME - 2, FIELD_PRIME)
        secret_value = (secret_value + share_i.y * lagrange) % FIELD_PRIME
    return _decode_secret(secret_value)
