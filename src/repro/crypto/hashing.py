"""Tagged hashing helpers.

Every hash in the library is *domain separated*: callers supply a short ASCII
tag describing what is being hashed, and the tag is mixed into the digest.
This prevents cross-protocol collisions (e.g. an attestation report being
replayed as a sealing key) — a real concern for the Glimmer design, which
hashes many structurally similar byte strings.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable

DIGEST_SIZE = 32
_SHA256_BLOCK = 64
_IPAD = bytes(map((0x36).__xor__, range(256)))  # byte-translation tables for
_OPAD = bytes(map((0x5C).__xor__, range(256)))  # the HMAC inner and outer pads


def hash_bytes(tag: str, data: bytes) -> bytes:
    """Return the 32-byte SHA-256 digest of ``data`` under domain ``tag``."""
    h = hashlib.sha256()
    tag_bytes = tag.encode("ascii")
    h.update(len(tag_bytes).to_bytes(2, "big"))
    h.update(tag_bytes)
    h.update(data)
    return h.digest()


def hash_items(tag: str, items: Iterable[bytes], framed: bytes = b"") -> bytes:
    """Hash a sequence of byte strings with unambiguous length framing.

    ``hash_items(t, [a, b])`` never collides with ``hash_items(t, [a + b])``
    because each item is prefixed by its length.  ``framed`` is more items
    already in that framing — each one's 8-byte big-endian length, then
    the item — absorbed after ``items`` in one update, so a caller with
    many fixed-width items can frame them in one buffer.
    """
    h = hashlib.sha256()
    tag_bytes = tag.encode("ascii")
    h.update(len(tag_bytes).to_bytes(2, "big"))
    h.update(tag_bytes)
    for item in items:
        h.update(len(item).to_bytes(8, "big"))
        h.update(item)
    h.update(framed)
    return h.digest()


def hexdigest(tag: str, data: bytes) -> str:
    """Hex form of :func:`hash_bytes`, for measurements and identifiers."""
    return hash_bytes(tag, data).hex()


def hash_to_int(tag: str, data: bytes, modulus: int) -> int:
    """Hash ``data`` to an integer in ``[0, modulus)``.

    Uses enough digest blocks to make the modular bias negligible for the
    modulus sizes used in this library (the output has at least 128 bits of
    headroom over ``modulus``).
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    blocks = (modulus.bit_length() + 128 + 255) // 256
    stream = b"".join(
        hash_bytes(tag, counter.to_bytes(4, "big") + data) for counter in range(blocks)
    )
    return int.from_bytes(stream, "big") % modulus


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """``hmac.new(key, data, sha256).digest()`` under a key used once: the
    padded key and two hashes, with no keyed state built to copy."""
    if len(key) > _SHA256_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_SHA256_BLOCK, b"\x00")
    inner = hashlib.sha256(key.translate(_IPAD) + data).digest()
    return hashlib.sha256(key.translate(_OPAD) + inner).digest()


def keyed_hmac_sha256(key: bytes) -> Callable[[bytes], bytes]:
    """``mac(data) == hmac.new(key, data, sha256).digest()``, keyed once.

    The inner and outer SHA-256 states absorb the key here and are only
    copied per call: a caller that MACs many short messages under one key
    (a counter-mode keystream, a DRBG output chain) pays two compression
    calls per message, not the key schedule again.
    """
    if len(key) > _SHA256_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_SHA256_BLOCK, b"\x00")
    inner = hashlib.sha256(key.translate(_IPAD)).copy
    outer = hashlib.sha256(key.translate(_OPAD)).copy

    def mac(data: bytes) -> bytes:
        inner_state = inner()
        inner_state.update(data)
        outer_state = outer()
        outer_state.update(inner_state.digest())
        return outer_state.digest()

    return mac
