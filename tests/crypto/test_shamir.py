"""Tests for Shamir secret sharing."""

from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.crypto.shamir import (
    SECRET_SIZE,
    ShamirShare,
    recover_secret,
    split_secret,
)
from repro.errors import CryptoError


def rng():
    return HmacDrbg(b"shamir-tests")


def test_exact_threshold_recovers():
    shares = split_secret(b"secret", 3, 5, rng())
    assert recover_secret(shares[:3]) == b"secret"


def test_any_subset_of_threshold_recovers():
    shares = split_secret(b"secret", 3, 5, rng())
    assert recover_secret([shares[0], shares[2], shares[4]]) == b"secret"
    assert recover_secret([shares[4], shares[1], shares[3]]) == b"secret"


def test_more_than_threshold_recovers():
    shares = split_secret(b"secret", 2, 5, rng())
    assert recover_secret(shares) == b"secret"


def test_below_threshold_does_not_recover():
    shares = split_secret(b"secret", 3, 5, rng())
    try:
        recovered = recover_secret(shares[:2])
    except CryptoError:
        return  # frame decoding rejected the garbage — acceptable
    assert recovered != b"secret"


def test_one_of_one():
    shares = split_secret(b"s", 1, 1, rng())
    assert recover_secret(shares) == b"s"


def test_empty_secret_roundtrip():
    shares = split_secret(b"", 2, 3, rng())
    assert recover_secret(shares[:2]) == b""


def test_max_size_secret_roundtrip():
    secret = bytes(range(SECRET_SIZE))
    shares = split_secret(secret, 2, 3, rng())
    assert recover_secret(shares[1:]) == secret


def test_leading_zero_secret_roundtrip():
    secret = b"\x00\x00abc"
    shares = split_secret(secret, 2, 3, rng())
    assert recover_secret(shares[:2]) == secret


def test_oversized_secret_rejected():
    with pytest.raises(CryptoError):
        split_secret(b"x" * (SECRET_SIZE + 1), 2, 3, rng())


def test_invalid_threshold():
    with pytest.raises(CryptoError):
        split_secret(b"s", 0, 3, rng())
    with pytest.raises(CryptoError):
        split_secret(b"s", 4, 3, rng())


def test_no_shares():
    with pytest.raises(CryptoError):
        recover_secret([])


def test_duplicate_share_indices_rejected():
    shares = split_secret(b"s", 2, 3, rng())
    with pytest.raises(CryptoError):
        recover_secret([shares[0], shares[0]])


def test_corrupted_share_does_not_silently_recover():
    shares = split_secret(b"real secret", 3, 5, rng())
    corrupted = [shares[0], ShamirShare(shares[1].x, shares[1].y ^ 12345), shares[2]]
    try:
        recovered = recover_secret(corrupted)
    except CryptoError:
        return
    assert recovered != b"real secret"


def recover_from_subsets(
    share_sets: Iterable[Sequence[ShamirShare]],
) -> list[bytes]:
    """Convenience: recover one secret per share set (used in dropout recovery)."""
    return [recover_secret(shares) for shares in share_sets]


def test_recover_from_subsets():
    shares_a = split_secret(b"alpha", 2, 3, rng())
    shares_b = split_secret(b"beta", 2, 3, rng())
    assert recover_from_subsets([shares_a[:2], shares_b[1:]]) == [b"alpha", b"beta"]


def test_shares_are_distinct():
    shares = split_secret(b"s", 3, 6, rng())
    assert len({share.y for share in shares}) == 6


@settings(max_examples=50, deadline=None)
@given(
    st.binary(max_size=SECRET_SIZE),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=4),
)
def test_roundtrip_property(secret, threshold, extra):
    num_shares = threshold + extra
    shares = split_secret(secret, threshold, num_shares, rng())
    assert recover_secret(shares[:threshold]) == secret
    assert recover_secret(list(reversed(shares))[:threshold]) == secret
