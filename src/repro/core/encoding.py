"""Canonical byte encodings of public keys and their groups.

Keys serialize here so that they can ride inside measured enclave
configs.  Everything else that crosses a boundary is a
:mod:`repro.codec` frame.
"""

from __future__ import annotations

from repro.crypto.dh import OAKLEY_GROUP_1, TEST_GROUP
from repro.crypto.schnorr import SchnorrPublicKey
from repro.errors import ConfigurationError

_GROUPS = {group.name: group for group in (OAKLEY_GROUP_1, TEST_GROUP)}


def encode_public_key(key: SchnorrPublicKey) -> bytes:
    name = key.group.name.encode("utf-8")
    element = key.element.to_bytes(256, "big")
    return len(name).to_bytes(2, "big") + name + element


def decode_public_key(blob: bytes) -> SchnorrPublicKey:
    if len(blob) < 2:
        raise ConfigurationError("public key blob too short")
    name_len = int.from_bytes(blob[:2], "big")
    if len(blob) != 2 + name_len + 256:
        raise ConfigurationError("public key blob has wrong length")
    name = blob[2 : 2 + name_len].decode("utf-8")
    group = _GROUPS.get(name)
    if group is None:
        raise ConfigurationError(f"unknown group {name!r}")
    element = int.from_bytes(blob[2 + name_len :], "big")
    return SchnorrPublicKey(group=group, element=element)
