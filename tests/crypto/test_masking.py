"""Tests for sum-zero masking and the blinding service (§3 construction)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import MODULUS, FixedPointCodec
from repro.crypto.masking import (
    BlindingService,
    SumZeroMasks,
    apply_mask,
    remove_mask,
)
from repro.errors import ConfigurationError, CryptoError
from repro.perf import kernels


def rng():
    return HmacDrbg(b"masking-tests")


def test_masks_sum_to_zero():
    masks = SumZeroMasks.sample(8, 16, rng())
    assert masks.verify_sum_zero()


def test_single_party_mask_is_zero():
    masks = SumZeroMasks.sample(1, 4, rng())
    assert masks.share_for(0).row() == bytes(8 * 4)


def test_two_party_masks_negate():
    masks = SumZeroMasks.sample(2, 3, rng())
    rows = [kernels.as_ring(share.row()) for share in masks.shares]
    for a, b in zip(*rows):
        assert (int(a) + int(b)) % MODULUS == 0


def test_a_family_is_packed_rows():
    """k = 4,096 over 8 slots is 8 read-only rows of 32,768 packed bytes:
    8 bytes a word, and not one Python int per word."""
    masks = SumZeroMasks.sample(8, 4096, rng())
    assert type(masks.shares) is tuple and len(masks.shares) == 8
    assert all(type(share.row()) is bytes and len(share.row()) == 32768 for share in masks.shares)
    assert masks.share_for(3) is masks.shares[3]
    assert masks.verify_sum_zero()


def test_invalid_parameters():
    with pytest.raises(ConfigurationError):
        SumZeroMasks.sample(0, 4, rng())
    with pytest.raises(ConfigurationError):
        SumZeroMasks.sample(3, 0, rng())


def test_apply_remove_roundtrip():
    masks = SumZeroMasks.sample(3, 5, rng())
    vector = [10, 20, 30, 40, 50]
    blinded = apply_mask(vector, masks.share_for(1).row())
    assert remove_mask(blinded, masks.share_for(1).row()) == vector


def test_apply_mask_length_mismatch():
    with pytest.raises(ConfigurationError):
        apply_mask([1, 2], [1, 2, 3])
    with pytest.raises(ConfigurationError):
        remove_mask([1, 2], [1])


def test_blinded_sum_equals_true_sum():
    """The core §3 identity: Σ y_i = Σ x_i when Σ p_i = 0."""
    codec = FixedPointCodec()
    masks = SumZeroMasks.sample(4, 3, rng())
    xs = [[1.0, 2.0, 3.0], [0.5, -1.0, 2.5], [-2.0, 0.0, 1.0], [4.0, 4.0, 4.0]]
    blinded = [
        apply_mask(codec.encode(x), masks.share_for(i).row()) for i, x in enumerate(xs)
    ]
    total = codec.decode(codec.sum_vectors(blinded))
    expect = [sum(col) for col in zip(*xs)]
    assert list(total) == pytest.approx(expect)


def test_single_blinded_vector_hides_contribution():
    """One blinded vector decodes to nonsense, not the contribution."""
    codec = FixedPointCodec()
    masks = SumZeroMasks.sample(4, 2, rng())
    x = [0.9, 0.1]
    blinded = apply_mask(codec.encode(x), masks.share_for(0).row())
    assert blinded != codec.encode(x)


def test_blinding_service_round_lifecycle():
    service = BlindingService(rng())
    masks = service.open_round(1, num_parties=3, length=4)
    assert masks.verify_sum_zero()
    with pytest.raises(CryptoError):
        service.open_round(1, num_parties=3, length=4)


def test_blinding_service_unopened_round():
    service = BlindingService(rng())
    with pytest.raises(CryptoError):
        service.mask_for(99, 0)
    with pytest.raises(CryptoError):
        service.mask_for_dropout(99, 0)


def test_dropout_repair_restores_exact_sum():
    """Revealing a dropped party's mask repairs the aggregate (§3 scheme)."""
    codec = FixedPointCodec()
    service = BlindingService(rng(), codec)
    service.open_round(1, num_parties=4, length=2)
    xs = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]
    blinded = {
        i: apply_mask(codec.encode(xs[i]), service.mask_for_dropout(1, i).row())
        for i in range(4)
    }
    # Party 2 drops: since Σp = 0, the partial sum is off by -p_2, so the
    # repair *adds* the dropped party's mask back in.
    partial = codec.sum_vectors([blinded[i] for i in (0, 1, 3)])
    repaired = apply_mask(partial, service.mask_for_dropout(1, 2).row())
    assert list(codec.decode(repaired)) == pytest.approx([7.0, 7.0])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=16),
)
def test_sum_zero_property(num_parties, length):
    masks = SumZeroMasks.sample(num_parties, length, rng())
    assert masks.verify_sum_zero()
    assert len(masks.shares) == num_parties
    assert all(len(share.row()) == 8 * length for share in masks.shares)
