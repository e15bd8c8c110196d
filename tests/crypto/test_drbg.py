"""Tests for the HMAC-DRBG deterministic generator."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.drbg import HmacDrbg


def test_same_seed_same_stream():
    a = HmacDrbg(b"seed")
    b = HmacDrbg(b"seed")
    assert a.generate(64) == b.generate(64)


def test_different_seed_different_stream():
    assert HmacDrbg(b"seed-a").generate(32) != HmacDrbg(b"seed-b").generate(32)


def test_personalization_separates_streams():
    a = HmacDrbg(b"seed", personalization="alpha")
    b = HmacDrbg(b"seed", personalization="beta")
    assert a.generate(32) != b.generate(32)


def test_generate_zero_bytes():
    assert HmacDrbg(b"seed").generate(0) == b""


def test_generate_negative_raises():
    with pytest.raises(ValueError):
        HmacDrbg(b"seed").generate(-1)


def test_stream_advances():
    rng = HmacDrbg(b"seed")
    assert rng.generate(16) != rng.generate(16)


def test_reseed_changes_stream():
    a = HmacDrbg(b"seed")
    b = HmacDrbg(b"seed")
    b.reseed(b"extra entropy")
    assert a.generate(32) != b.generate(32)


def test_seed_must_be_bytes():
    with pytest.raises(TypeError):
        HmacDrbg("not bytes")  # type: ignore[arg-type]


def test_randint_range():
    rng = HmacDrbg(b"seed")
    for _ in range(200):
        assert 0 <= rng.randint(7) < 7


def test_randint_upper_one_always_zero():
    rng = HmacDrbg(b"seed")
    assert all(rng.randint(1) == 0 for _ in range(20))


def test_randint_invalid():
    with pytest.raises(ValueError):
        HmacDrbg(b"s").randint(0)


def test_randrange():
    rng = HmacDrbg(b"seed")
    for _ in range(100):
        assert 5 <= rng.randrange(5, 10) < 10


def test_randrange_empty():
    with pytest.raises(ValueError):
        HmacDrbg(b"s").randrange(3, 3)


def test_uniform_in_unit_interval():
    rng = HmacDrbg(b"seed")
    values = [rng.uniform() for _ in range(500)]
    assert all(0.0 <= v < 1.0 for v in values)
    # crude uniformity: mean near 0.5
    assert 0.4 < sum(values) / len(values) < 0.6


def test_choice():
    rng = HmacDrbg(b"seed")
    items = ["a", "b", "c"]
    assert all(rng.choice(items) in items for _ in range(50))


def test_choice_empty_raises():
    with pytest.raises(ValueError):
        HmacDrbg(b"s").choice([])


def test_shuffle_is_permutation():
    rng = HmacDrbg(b"seed")
    items = list(range(30))
    shuffled = items.copy()
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_fork_independent_of_parent_future():
    parent = HmacDrbg(b"seed")
    child = parent.fork("child")
    child_bytes = child.generate(32)
    # A fresh parent forked the same way yields the same child stream.
    parent2 = HmacDrbg(b"seed")
    child2 = parent2.fork("child")
    assert child2.generate(32) == child_bytes


def test_fork_labels_differ():
    parent = HmacDrbg(b"seed")
    a = parent.fork("a")
    parent2 = HmacDrbg(b"seed")
    b = parent2.fork("b")
    assert a.generate(32) != b.generate(32)


@given(st.integers(min_value=1, max_value=1 << 64))
def test_randint_always_below_upper(upper):
    rng = HmacDrbg(upper.to_bytes(9, "big"))
    assert 0 <= rng.randint(upper) < upper


@given(st.binary(min_size=1, max_size=64), st.integers(min_value=0, max_value=300))
def test_generate_length(seed, n):
    assert len(HmacDrbg(seed).generate(n)) == n


def test_randint_distribution_covers_support():
    rng = HmacDrbg(b"dist")
    seen = {rng.randint(4) for _ in range(300)}
    assert seen == {0, 1, 2, 3}


# ------------------------------------------------------- bulk expansion


def test_generate_block_golden_stream():
    """Pin the exact byte stream so the bulk path can never drift."""
    rng = HmacDrbg(b"golden-block", personalization="pin")
    assert rng.generate_block(48).hex() == (
        "9949a697a1dd335007cebed7ae1444ce0c874ef568e8377b0e29e72c71739675"
        "ab43d0b3c5fcc3fb426b51928000bb7f"
    )
    # The state advanced exactly as generate() would have.
    assert rng.generate(16).hex() == "c75973578e2a7cfb3cec298aa34ea22f"


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 64, 1000])
def test_generate_block_matches_generate(n):
    a = HmacDrbg(b"block-parity")
    b = HmacDrbg(b"block-parity")
    assert a.generate_block(n) == b.generate(n)
    # And the post-call states agree too.
    assert a.generate(32) == b.generate(32)


def test_generate_block_negative_raises():
    with pytest.raises(ValueError):
        HmacDrbg(b"seed").generate_block(-1)


def test_uint64_vector_golden_words():
    words = HmacDrbg(b"golden-words").uint64_vector(4)
    assert words.tolist() == [
        1391146611485684116,
        4493946822647620243,
        10707631592188488736,
        8354422961555399113,
    ]


@pytest.mark.parametrize("length", [0, 1, 7, 4096])
def test_uint64_vector_matches_scalar_parse(length):
    from tests.perf.reference import uint64_vector_scalar

    fast = HmacDrbg(b"u64-parity").uint64_vector(length)
    slow = uint64_vector_scalar(HmacDrbg(b"u64-parity"), length)
    assert fast.tolist() == slow


def test_uint64_vector_negative_raises():
    with pytest.raises(ValueError):
        HmacDrbg(b"seed").uint64_vector(-1)


# ------------------------------------------------- randint fast/slow paths


@pytest.mark.parametrize("bits", [1, 8, 53, 63, 64])
def test_randint_power_of_two_never_rejects(bits):
    """Each pow2 draw consumes exactly one generate call (no rejection).

    ``reseed_counter`` increments once per generate, so a draw that
    entered the rejection loop would advance it by more than one.
    """
    rng = HmacDrbg(b"pow2")
    for _ in range(50):
        before = rng.reseed_counter
        value = rng.randint(1 << bits)
        assert 0 <= value < (1 << bits)
        assert rng.reseed_counter == before + 1


def test_randint_power_of_two_is_masked_single_draw():
    """The pow2 value is the masked big-endian parse of one draw."""
    rng = HmacDrbg(b"pow2-value")
    clone = HmacDrbg(b"pow2-value")
    for bits in (8, 53, 64):
        value = rng.randint(1 << bits)
        nbytes = (bits + 7) // 8
        expected = int.from_bytes(clone.generate(nbytes), "big") & ((1 << bits) - 1)
        assert value == expected


def test_randint_non_power_of_two_stream_unchanged():
    """Regression: non-pow2 moduli keep the historical rejection stream.

    ``(upper - 1).bit_length() == upper.bit_length()`` whenever ``upper``
    is not a power of two, so the draws must match the pre-fast-path
    algorithm byte for byte.
    """

    def historical_randint(rng, upper):
        nbits = upper.bit_length()
        nbytes = (nbits + 7) // 8
        mask = (1 << nbits) - 1
        while True:
            candidate = int.from_bytes(rng.generate(nbytes), "big") & mask
            if candidate < upper:
                return candidate

    new = HmacDrbg(b"non-pow2")
    old = HmacDrbg(b"non-pow2")
    for upper in (3, 5, 7, 100, 12345, (1 << 61) - 1):
        for _ in range(20):
            assert new.randint(upper) == historical_randint(old, upper)


def test_randint_non_power_of_two_still_rejects():
    """The rejection loop is alive: some draw must consume extra bytes."""
    rng = HmacDrbg(b"reject")
    rejected = 0
    for _ in range(200):
        before = rng.reseed_counter
        rng.randint(5)  # 3-bit candidates, rejected with probability 3/8
        rejected += rng.reseed_counter - before - 1
    assert rejected > 0
