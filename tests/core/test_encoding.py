"""Tests for canonical encodings: public keys, and vectors in the codec.

The length-prefixed vector encoders that lived here are gone: a vector
crosses packed (:mod:`repro.perf.kernels`) inside a :mod:`repro.codec`
frame, so their round-trip and torn-length cases now hold the codec to
the same standard.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import codec
from repro.core.encoding import _GROUPS, decode_public_key, encode_public_key
from repro.crypto.dh import OAKLEY_GROUP_1, TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.schnorr import SchnorrKeyPair
from repro.errors import ConfigurationError, ProtocolViolation
from repro.perf import kernels


def _float_vector(values):
    """Floats through the codec, as a sequence and packed."""
    packed = codec.decode(codec.encode(kernels.be_doubles_to_bytes(values)))
    assert kernels.be_doubles(packed).tolist() == list(values)
    return codec.decode(codec.encode(list(values)))


def _ring_vector(values):
    """Ring words through the codec, as a sequence and packed."""
    packed = codec.decode(codec.encode(kernels.be_words_to_bytes(values)))
    assert list(kernels.bytes_to_be_words(packed)) == list(values)
    return codec.decode(codec.encode(list(values)))


def test_float_vector_roundtrip():
    values = [0.0, 1.5, -2.25, 1e10, -1e-10]
    assert _float_vector(values) == values


def test_float_vector_empty():
    assert _float_vector([]) == []


def test_float_vector_truncated():
    blob = codec.encode(kernels.be_doubles_to_bytes([1.0, 2.0]))
    with pytest.raises(ProtocolViolation):
        codec.decode(blob[:-1])
    with pytest.raises(ProtocolViolation):
        codec.decode(b"\x00\x00")
    with pytest.raises(ValueError):
        kernels.be_doubles(codec.decode(blob)[:-1])  # a torn packed vector


def test_ring_vector_roundtrip():
    values = [0, 1, (1 << 64) - 1, 12345678901234567890 % (1 << 64)]
    assert _ring_vector(values) == values


def test_ring_vector_wraps_modulo():
    """Packing reduces a word into the ring; the codec carries any int as
    it is, so nothing outside the ring can pass for a word in it."""
    assert kernels.as_ring([1 << 64]).tolist() == [0]
    assert codec.decode(codec.encode([1 << 64])) == [1 << 64]


def test_ring_vector_malformed():
    with pytest.raises(ProtocolViolation):
        codec.decode(bytes([codec.BYTES]))
    blob = codec.encode(kernels.be_words_to_bytes([1, 2]))
    with pytest.raises(ProtocolViolation):
        codec.decode(blob + b"\x00")


def test_public_key_roundtrip():
    for group in (TEST_GROUP, OAKLEY_GROUP_1):
        key = SchnorrKeyPair.generate(HmacDrbg(b"enc"), group).public_key
        decoded = decode_public_key(encode_public_key(key))
        assert decoded.element == key.element
        assert decoded.group.name == key.group.name


def test_public_key_malformed():
    with pytest.raises(ConfigurationError):
        decode_public_key(b"\x00")
    key = SchnorrKeyPair.generate(HmacDrbg(b"enc"), TEST_GROUP).public_key
    blob = encode_public_key(key)
    with pytest.raises(ConfigurationError):
        decode_public_key(blob[:-1])


def test_public_key_unknown_group():
    key = SchnorrKeyPair.generate(HmacDrbg(b"enc"), TEST_GROUP).public_key
    blob = encode_public_key(key)
    name = b"nonexistent-group"
    forged = len(name).to_bytes(2, "big") + name + blob[-256:]
    with pytest.raises(ConfigurationError):
        decode_public_key(forged)


def group_by_name(name: str):
    group = _GROUPS.get(name)
    if group is None:
        raise ConfigurationError(f"unknown group {name!r}")
    return group


def test_group_by_name():
    assert group_by_name("test-64bit") is TEST_GROUP
    assert group_by_name("oakley-group-1") is OAKLEY_GROUP_1
    with pytest.raises(ConfigurationError):
        group_by_name("nope")


@settings(max_examples=50)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=32))
def test_float_vector_roundtrip_property(values):
    assert _float_vector(values) == values


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=32))
def test_ring_vector_roundtrip_property(values):
    assert _ring_vector(values) == values
