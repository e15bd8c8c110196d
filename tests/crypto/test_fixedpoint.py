"""Tests for the fixed-point codec."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.fixedpoint import MODULUS, FixedPointCodec
from repro.errors import ConfigurationError


def test_roundtrip_positive():
    codec = FixedPointCodec()
    assert codec.decode_value(codec.encode_value(1.5)) == pytest.approx(1.5)


def test_roundtrip_negative():
    codec = FixedPointCodec()
    assert codec.decode_value(codec.encode_value(-2.25)) == pytest.approx(-2.25)


def test_roundtrip_zero():
    codec = FixedPointCodec()
    assert codec.decode_value(codec.encode_value(0.0)) == 0.0


def test_quantization_error_bounded():
    codec = FixedPointCodec()
    value = 0.123456789
    assert abs(codec.decode_value(codec.encode_value(value)) - value) <= 1 / codec.scale


def test_out_of_bound_value_rejected():
    codec = FixedPointCodec()
    with pytest.raises(ConfigurationError):
        codec.encode_value(codec.bound + 1.0)
    with pytest.raises(ConfigurationError):
        codec.encode_value(-codec.bound - 0.5)
    with pytest.raises(ConfigurationError):
        codec.encode([0.0, codec.bound + 1.0])


def test_bound_edge_accepted():
    codec = FixedPointCodec()
    bound = float(codec.bound)
    assert codec.decode_value(codec.encode_value(bound)) == pytest.approx(bound)
    assert codec.decode_value(codec.encode_value(-bound)) == pytest.approx(-bound)
    assert list(codec.decode(codec.encode([bound, -bound]))) == [bound, -bound]


def test_invalid_configurations():
    """The codec has no knobs: its scale, bound and ring are constants, and
    a constructor argument is refused rather than silently honoured."""
    assert dataclasses.fields(FixedPointCodec) == ()
    for knob in ({"scale": 1 << 8}, {"bound": 10.0}, {"modulus_bits": 32}):
        with pytest.raises(TypeError):
            FixedPointCodec(**knob)
    assert FixedPointCodec.scale * FixedPointCodec.bound < MODULUS // 2


def test_vector_roundtrip():
    codec = FixedPointCodec()
    values = [0.0, 1.0, -1.0, 0.5, -0.125]
    assert list(codec.decode(codec.encode(values))) == pytest.approx(values)


def test_ring_addition_matches_real_addition():
    codec = FixedPointCodec()
    a = codec.encode([1.5, -2.0])
    b = codec.encode([-0.5, 3.0])
    assert list(codec.decode(codec.add(a, b))) == pytest.approx([1.0, 1.0])


def test_add_length_mismatch():
    codec = FixedPointCodec()
    with pytest.raises(ConfigurationError):
        codec.add([1, 2], [1])


def test_sum_vectors():
    codec = FixedPointCodec()
    vectors = [codec.encode([1.0, 2.0]), codec.encode([3.0, -1.0]), codec.encode([0.5, 0.5])]
    assert list(codec.decode(codec.sum_vectors(vectors))) == pytest.approx([4.5, 1.5])


def test_sum_vectors_empty():
    with pytest.raises(ConfigurationError):
        FixedPointCodec().sum_vectors([])


def test_sum_vectors_length_mismatch():
    codec = FixedPointCodec()
    with pytest.raises(ConfigurationError):
        codec.sum_vectors([[1, 2], [3]])


def test_negative_values_use_upper_half_ring():
    codec = FixedPointCodec()
    encoded = codec.encode_value(-1.0)
    assert encoded > MODULUS // 2


@settings(max_examples=100)
@given(st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False))
def test_roundtrip_property(value):
    codec = FixedPointCodec()
    decoded = codec.decode_value(codec.encode_value(value))
    assert abs(decoded - value) <= 1 / codec.scale


@settings(max_examples=50)
@given(
    st.lists(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False), min_size=1, max_size=8),
    st.lists(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False), min_size=1, max_size=8),
)
def test_homomorphic_addition_property(left, right):
    size = min(len(left), len(right))
    left, right = left[:size], right[:size]
    codec = FixedPointCodec()
    total = codec.decode(codec.add(codec.encode(left), codec.encode(right)))
    for got, expect in zip(total, (l + r for l, r in zip(left, right))):
        assert abs(got - expect) <= 2 / codec.scale
