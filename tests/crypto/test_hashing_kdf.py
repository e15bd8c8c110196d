"""Tests for tagged hashing and HKDF."""

import hashlib
import hmac

import pytest
from hypothesis import given, strategies as st

from repro.crypto.hashing import (
    hash_bytes,
    hash_items,
    hash_to_int,
    hexdigest,
    keyed_hmac_sha256,
)
from repro.crypto.kdf import hkdf, hkdf_expand, hkdf_extract


def test_hash_bytes_deterministic():
    assert hash_bytes("t", b"data") == hash_bytes("t", b"data")


def test_hash_bytes_tag_separation():
    assert hash_bytes("tag-a", b"data") != hash_bytes("tag-b", b"data")


def test_hash_bytes_length():
    assert len(hash_bytes("t", b"")) == 32


def test_hash_items_framing_prevents_concat_collision():
    assert hash_items("t", [b"ab", b"c"]) != hash_items("t", [b"a", b"bc"])
    assert hash_items("t", [b"abc"]) != hash_items("t", [b"abc", b""])


def test_hash_items_deterministic():
    assert hash_items("t", [b"a", b"b"]) == hash_items("t", [b"a", b"b"])


def test_hexdigest_is_hex_of_hash():
    assert hexdigest("t", b"x") == hash_bytes("t", b"x").hex()


def test_hash_to_int_in_range():
    for modulus in (2, 17, 1 << 61, (1 << 255) - 19):
        value = hash_to_int("t", b"data", modulus)
        assert 0 <= value < modulus


def test_hash_to_int_golden_values():
    """Recorded before ``hash_to_int`` was rebuilt on the seeded form."""
    assert hash_to_int("golden", b"hash-to-int", (1 << 61) - 1) == 388370394976527696
    assert hash_to_int("golden", b"hash-to-int", (1 << 767) - 1) % (1 << 64) == (
        8844387436674413671
    )


@given(
    st.binary(max_size=64),
    st.binary(max_size=64),
    st.integers(min_value=1, max_value=1 << 800),
)
def test_hash_to_int_matches_the_definition(prefix, suffix, modulus):
    blocks = (modulus.bit_length() + 128 + 255) // 256
    stream = b"".join(
        hash_bytes("p", counter.to_bytes(4, "big") + prefix + suffix)
        for counter in range(blocks)
    )
    expected = int.from_bytes(stream, "big") % modulus
    assert hash_to_int("p", prefix + suffix, modulus) == expected


@given(st.binary(max_size=200), st.binary(max_size=200))
def test_keyed_hmac_matches_hmac_new(key, data):
    mac = keyed_hmac_sha256(key)
    expected = hmac.new(key, data, hashlib.sha256).digest()
    assert mac(data) == expected
    assert mac(data) == expected  # the keyed states are copied, not consumed


def test_hash_to_int_invalid_modulus():
    with pytest.raises(ValueError):
        hash_to_int("t", b"d", 0)


@given(st.binary(max_size=64), st.integers(min_value=1, max_value=1 << 128))
def test_hash_to_int_range_property(data, modulus):
    assert 0 <= hash_to_int("p", data, modulus) < modulus


def test_hkdf_deterministic():
    assert hkdf(b"ikm", "context") == hkdf(b"ikm", "context")


def test_hkdf_info_separation():
    assert hkdf(b"ikm", "a") != hkdf(b"ikm", "b")


def test_hkdf_length():
    for n in (0, 1, 16, 32, 33, 100):
        assert len(hkdf(b"ikm", "ctx", length=n)) == n


def test_hkdf_salt_changes_output():
    assert hkdf(b"ikm", "ctx") != hkdf(b"ikm", "ctx", salt=b"salt")


def test_hkdf_expand_limit():
    prk = hkdf_extract(b"", b"ikm")
    with pytest.raises(ValueError):
        hkdf_expand(prk, b"info", 255 * 32 + 1)


def test_hkdf_expand_negative():
    prk = hkdf_extract(b"", b"ikm")
    with pytest.raises(ValueError):
        hkdf_expand(prk, b"info", -1)


def test_hkdf_rfc5869_test_case_1():
    """RFC 5869 Appendix A.1 known-answer test."""
    ikm = bytes.fromhex("0b" * 22)
    salt = bytes.fromhex("000102030405060708090a0b0c")
    info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
    prk = hkdf_extract(salt, ikm)
    okm = hkdf_expand(prk, info, 42)
    assert okm.hex() == (
        "3cb25f25faacd57a90434f64d0362f2a"
        "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865"
    )
