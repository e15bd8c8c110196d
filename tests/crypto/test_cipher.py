"""Tests for the authenticated cipher."""

import hashlib
import hmac

import pytest
from hypothesis import given, strategies as st

from repro.crypto.cipher import AuthenticatedCipher, SealedBox, NONCE_SIZE
from repro.crypto.kdf import hkdf
from repro.errors import AuthenticationError, CryptoError

KEY = b"k" * 32
NONCE = b"n" * NONCE_SIZE


def test_roundtrip():
    cipher = AuthenticatedCipher(KEY)
    box = cipher.encrypt(NONCE, b"hello world")
    assert cipher.decrypt(box) == b"hello world"


def test_roundtrip_empty_plaintext():
    cipher = AuthenticatedCipher(KEY)
    assert cipher.decrypt(cipher.encrypt(NONCE, b"")) == b""


def test_ciphertext_differs_from_plaintext():
    cipher = AuthenticatedCipher(KEY)
    box = cipher.encrypt(NONCE, b"secret message bytes")
    assert box.ciphertext != b"secret message bytes"


def test_tamper_ciphertext_detected():
    cipher = AuthenticatedCipher(KEY)
    box = cipher.encrypt(NONCE, b"payload")
    bad = SealedBox(box.nonce, bytes([box.ciphertext[0] ^ 1]) + box.ciphertext[1:], box.tag)
    with pytest.raises(AuthenticationError):
        cipher.decrypt(bad)


def test_tamper_tag_detected():
    cipher = AuthenticatedCipher(KEY)
    box = cipher.encrypt(NONCE, b"payload")
    bad = SealedBox(box.nonce, box.ciphertext, bytes(32))
    with pytest.raises(AuthenticationError):
        cipher.decrypt(bad)


def test_tamper_nonce_detected():
    cipher = AuthenticatedCipher(KEY)
    box = cipher.encrypt(NONCE, b"payload")
    bad = SealedBox(b"m" * NONCE_SIZE, box.ciphertext, box.tag)
    with pytest.raises(AuthenticationError):
        cipher.decrypt(bad)


def test_wrong_key_fails():
    box = AuthenticatedCipher(KEY).encrypt(NONCE, b"payload")
    with pytest.raises(AuthenticationError):
        AuthenticatedCipher(b"x" * 32).decrypt(box)


def test_associated_data_bound():
    cipher = AuthenticatedCipher(KEY)
    box = cipher.encrypt(NONCE, b"payload", associated_data=b"header-1")
    assert cipher.decrypt(box, associated_data=b"header-1") == b"payload"
    with pytest.raises(AuthenticationError):
        cipher.decrypt(box, associated_data=b"header-2")


def test_short_key_rejected():
    with pytest.raises(CryptoError):
        AuthenticatedCipher(b"short")


def test_bad_nonce_length_rejected():
    with pytest.raises(CryptoError):
        AuthenticatedCipher(KEY).encrypt(b"short", b"data")


def test_serialization_roundtrip():
    cipher = AuthenticatedCipher(KEY)
    box = cipher.encrypt(NONCE, b"some payload")
    blob = box.to_bytes()
    restored = SealedBox.from_bytes(blob)
    assert restored == box
    assert cipher.decrypt(restored) == b"some payload"


def test_from_bytes_too_short():
    with pytest.raises(CryptoError):
        SealedBox.from_bytes(b"tiny")


def test_distinct_nonces_distinct_ciphertexts():
    cipher = AuthenticatedCipher(KEY)
    a = cipher.encrypt(b"a" * NONCE_SIZE, b"same plaintext")
    b = cipher.encrypt(b"b" * NONCE_SIZE, b"same plaintext")
    assert a.ciphertext != b.ciphertext


@given(st.binary(max_size=512), st.binary(max_size=64))
def test_roundtrip_property(plaintext, associated):
    cipher = AuthenticatedCipher(KEY)
    box = cipher.encrypt(NONCE, plaintext, associated_data=associated)
    assert cipher.decrypt(box, associated_data=associated) == plaintext


@given(st.binary(min_size=1, max_size=128), st.integers(min_value=0, max_value=127))
def test_any_bitflip_detected(plaintext, position):
    cipher = AuthenticatedCipher(KEY)
    box = cipher.encrypt(NONCE, plaintext)
    index = position % len(box.ciphertext)
    mutated = bytearray(box.ciphertext)
    mutated[index] ^= 0x01
    with pytest.raises(AuthenticationError):
        cipher.decrypt(SealedBox(box.nonce, bytes(mutated), box.tag))


# ------------------------------------------------------------- byte-level pins
#
# Recorded on the commit before the keystream and XOR became whole-buffer
# operations: any change to the HMAC-SHA256 counter-mode construction, the
# tag framing or the key derivation shows up here as a changed byte.

GOLDEN_KEY = bytes(range(32))
GOLDEN_NONCE = bytes(range(100, 116))
GOLDEN_AD = b"golden-associated-data"
# length -> (ciphertext hex, or its SHA-256 for the long one; tag hex)
GOLDEN_BOXES = {
    0: ("", "88c8184835a0ded664bae0ae2f14697cac5f195b812c8eb67cd726a6085cd820"),
    1: ("3e", "987d2a2815f1e095fa298afea5d02048f2c0ec2e42a29eed5183dc9a1c1b7e48"),
    31: (
        "3ed4304ff01b2fe4fd2571cb3d190ae2fa90fb4816facc83b3d66c33b07f34",
        "f646ae76a4dda43020327ea283d47eaadab42187f65cb810f01a3c7142328e46",
    ),
    32: (
        "3ed4304ff01b2fe4fd2571cb3d190ae2fa90fb4816facc83b3d66c33b07f34ef",
        "2ff8762fc366c487cad3e144967d3c2dee7ec47c8fcb546d32c95f19c7d7adfb",
    ),
    33: (
        "3ed4304ff01b2fe4fd2571cb3d190ae2fa90fb4816facc83b3d66c33b07f34efb6",
        "d261734a7536a09b4def1c193ebae4c76608964eb04715754b310ea0b2048528",
    ),
    4097: (
        "71c97784b99b78b26aa1a237978fdc8eedae8aee8da844eff8683f0ecae07298",
        "e1e5235f3eb93fc59d3e95724a559e7fa0142637c8329c0dd76c3937e73b8c53",
    ),
}


@pytest.mark.parametrize("length", sorted(GOLDEN_BOXES))
def test_encrypt_golden_vectors(length):
    plaintext = bytes((7 * i + 3) % 256 for i in range(length))
    cipher = AuthenticatedCipher(GOLDEN_KEY)
    box = cipher.encrypt(GOLDEN_NONCE, plaintext, GOLDEN_AD)
    expected_ciphertext, expected_tag = GOLDEN_BOXES[length]
    if length > 64:
        assert hashlib.sha256(box.ciphertext).hexdigest() == expected_ciphertext
    else:
        assert box.ciphertext.hex() == expected_ciphertext
    assert len(box.ciphertext) == length
    assert box.tag.hex() == expected_tag
    assert cipher.decrypt(box, GOLDEN_AD) == plaintext


def _reference_encrypt(key, nonce, plaintext, associated_data):
    """The construction as the module docstring states it, block by block."""
    enc_key = hkdf(key, "ae-encryption-key")
    mac_key = hkdf(key, "ae-mac-key")
    ciphertext = bytearray()
    for offset in range(0, len(plaintext), 32):
        block = hmac.new(
            enc_key, nonce + (offset // 32).to_bytes(8, "big"), hashlib.sha256
        ).digest()
        for p, s in zip(plaintext[offset : offset + 32], block):
            ciphertext.append(p ^ s)
    framing = (
        nonce
        + len(associated_data).to_bytes(8, "big")
        + associated_data
        + bytes(ciphertext)
    )
    return bytes(ciphertext), hmac.new(mac_key, framing, hashlib.sha256).digest()


@given(
    st.binary(min_size=16, max_size=48),
    st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE),
    st.binary(max_size=700),
    st.binary(max_size=64),
)
def test_encrypt_matches_per_block_reference(key, nonce, plaintext, associated):
    box = AuthenticatedCipher(key).encrypt(nonce, plaintext, associated)
    assert (box.ciphertext, box.tag) == _reference_encrypt(
        key, nonce, plaintext, associated
    )
