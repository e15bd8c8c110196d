"""Tests for the authenticated cipher."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

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
# Recorded from ``_reference_encrypt`` below when the keystream became one
# SHAKE256 call: any change to the keystream, the tag framing or the key
# derivation shows up here as a changed byte.  (The empty plaintext's tag
# covers no keystream, so it is the value the HMAC-counter cipher gave.)

GOLDEN_KEY = bytes(range(32))
GOLDEN_NONCE = bytes(range(100, 116))
GOLDEN_AD = b"golden-associated-data"
# length -> (ciphertext hex, or its SHA-256 for the long one; tag hex)
GOLDEN_BOXES = {
    0: ("", "88c8184835a0ded664bae0ae2f14697cac5f195b812c8eb67cd726a6085cd820"),
    1: ("d9", "72b84d7038170d9f9feeb38ee4bf115628830ca2c8e66755a5e6ef15e6bc785d"),
    31: (
        "d9267738b9a9c4d0b9f0665cbd8dd23baa9b968e52a7a8afedd0489e2c2091",
        "31429a54cc13defdd7ed5dcf8da01897e408b0c7783cef36c9e210d92e8a4463",
    ),
    32: (
        "d9267738b9a9c4d0b9f0665cbd8dd23baa9b968e52a7a8afedd0489e2c20915b",
        "66bc663ac931012c0791dec95788c9b724a3370ac2e1ccf87657dc56df44e7ff",
    ),
    33: (
        "d9267738b9a9c4d0b9f0665cbd8dd23baa9b968e52a7a8afedd0489e2c20915ba4",
        "ee5324efe5ffac804585aad3c3da7449b0fae14cd967243e44641dd3f695d591",
    ),
    4097: (
        "3dbd8c1e86c716053be3649eb88fef91a5490b3179f78b9c5f2eef612a291685",
        "aa70a045ba1c15b1450cfdbbc5183b102ad786d478106f7e2827f11f1fcd63ab",
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
    """The construction as the module docstring states it, byte by byte."""
    enc_key = hkdf(key, "ae-encryption-key")
    mac_key = hkdf(key, "ae-mac-key")
    stream = hashlib.shake_256(enc_key + nonce).digest(len(plaintext))
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    framing = (
        nonce
        + len(associated_data).to_bytes(8, "big")
        + associated_data
        + ciphertext
    )
    return ciphertext, hmac.new(mac_key, framing, hashlib.sha256).digest()


@given(
    st.binary(min_size=16, max_size=48),
    st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE),
    st.binary(max_size=700),
    st.binary(max_size=64),
)
def test_encrypt_matches_reference(key, nonce, plaintext, associated):
    box = AuthenticatedCipher(key).encrypt(nonce, plaintext, associated)
    assert (box.ciphertext, box.tag) == _reference_encrypt(
        key, nonce, plaintext, associated
    )


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=4097))
def test_ciphertext_is_as_long_as_its_plaintext(length):
    """No padding and no block rounding at any length, and each nonce has
    its own keystream (a zero plaintext enciphers to the keystream itself)."""
    cipher = AuthenticatedCipher(KEY)
    zeros = bytes(length)
    first = cipher.encrypt(b"a" * NONCE_SIZE, zeros)
    second = cipher.encrypt(b"b" * NONCE_SIZE, zeros)
    assert len(first.ciphertext) == len(second.ciphertext) == length
    assert (first.ciphertext != second.ciphertext) == (length > 0)
