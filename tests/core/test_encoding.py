"""Tests for canonical encodings: public keys and vectors in the codec.

The length-prefixed vector encoders and the public-key layout that lived
here are gone: a vector crosses packed (:mod:`repro.perf.kernels`) inside
a :mod:`repro.codec` frame, and a measured key is its
``SchnorrPublicKey`` frame, so their round-trip and torn-length cases now
hold the codec to the same standard.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import codec
from repro.crypto.dh import GROUPS, OAKLEY_GROUP_1, TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrPublicKey
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
    assert kernels.be_words(packed).tolist() == list(values)
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
        decoded = codec.decode(codec.encode(key), SchnorrPublicKey)
        assert decoded.element == key.element
        assert decoded.group.name == key.group.name


def test_public_key_malformed():
    with pytest.raises(ProtocolViolation):
        codec.decode(b"\x00", SchnorrPublicKey)
    key = SchnorrKeyPair.generate(HmacDrbg(b"enc"), TEST_GROUP).public_key
    blob = codec.encode(key)
    with pytest.raises(ProtocolViolation):
        codec.decode(blob[:-1], SchnorrPublicKey)


def test_public_key_unknown_group():
    """The group travels first, as its one-byte code; a code that names no
    shipped group (0 included: a key must name one) is refused."""
    key = SchnorrKeyPair.generate(HmacDrbg(b"enc"), TEST_GROUP).public_key
    blob = bytearray(codec.encode(key))
    assert blob[2] == TEST_GROUP.code
    for code in (0, 3, 0xFF):
        blob[2] = code
        with pytest.raises(ProtocolViolation):
            codec.decode(bytes(blob), SchnorrPublicKey)


def group_by_name(name: str):
    group = GROUPS.get(name)
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
