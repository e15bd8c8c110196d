"""The width a round's blinded words cross at, b(n, M), at the kernel level.

Reduction mod ``2^b`` is a ring homomorphism from ``Z/2^64``: a family
that sums to zero mod ``2^64`` still does after it, and the residues of
``n`` blinded contributions fold in ``uint64`` to the residue of their
sum.  When ``n · ⌈M · scale⌉ < 2^(b − 1)`` that residue, sign-extended
(:func:`~repro.perf.kernels.widen`), is the 64-bit sum itself.  These
tests hold the width tables at the codec's bound and at M = 1 (the
default predicate's range), that identity at every edge of each
magnitude's range, and the bit packing it rides on: ``⌈k·b/8⌉`` bytes,
the last byte's pad bits zero, one spelling per payload.  No device runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec import MAX_PARTIES
from repro.crypto.fixedpoint import (
    RING_WIDTHS,
    WHOLE_WORD,
    FixedPointCodec,
    holds_sum,
    ring_width,
    word_bound,
)
from repro.errors import ConfigurationError
from repro.perf import kernels

#: The largest magnitude a contribution word encodes: ``bound · scale``.
EDGE = FixedPointCodec.bound * FixedPointCodec.scale

#: b(n) at the codec's bound: ``37 + n.bit_length()`` bits.
BITS = {
    1: 38, 7: 40, 8: 41, 2047: 48, 2048: 49, 524287: 56, 524288: 57, MAX_PARTIES: 57,
}


def _case_id(table: dict[int, int]):
    """Name a case ``<parties>-<⌈b/8⌉>``: the whole bytes its word spans,
    the width it crossed at when widths went in whole bytes."""
    return lambda parties: f"{parties}-{-(-table[parties] // 8)}"


@pytest.mark.parametrize("parties", sorted(BITS), ids=_case_id(BITS))
def test_the_width_table(parties):
    bits = ring_width(parties)
    assert bits == BITS[parties]
    assert bits in RING_WIDTHS


@pytest.mark.parametrize("parties", [0, -1])
def test_a_round_has_a_party(parties):
    with pytest.raises(ConfigurationError):
        ring_width(parties)


def _narrowed_sum(
    contributions: np.ndarray, rng: np.random.Generator, width: int | None = None
) -> np.ndarray:
    """Blind ``contributions`` (n × k signed words) with a sum-zero family
    drawn mod ``2^64``, send each word at ``width`` bits (``ring_width(n)``
    by default), fold the residues in ``uint64`` and widen the total."""
    parties, length = contributions.shape
    masks = rng.integers(0, 1 << 64, size=(parties, length), dtype=np.uint64, endpoint=False)
    masks[-1] = np.uint64(0) - masks[:-1].sum(axis=0, dtype=np.uint64)
    assert not masks.sum(axis=0, dtype=np.uint64).any()
    blinded = contributions.view(np.uint64) + masks
    width = width or ring_width(parties)
    wire = kernels.pack_words(blinded.ravel(), width)
    assert len(wire) == -(-width * parties * length // 8)
    residues = kernels.unpack_words(wire, width).reshape(parties, length)
    return kernels.widen(residues.sum(axis=0, dtype=np.uint64), width).view(np.int64)


@settings(max_examples=40, deadline=None)
@given(
    parties=st.one_of(st.integers(1, 40), st.sampled_from(sorted(BITS))),
    length=st.integers(1, 2),
    shape=st.sampled_from(["all-at-plus-bound", "all-at-minus-bound", "anywhere"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_narrowed_words_sum_to_the_64_bit_ring_sum(parties, length, shape, seed):
    rng = np.random.default_rng(seed)
    if shape == "anywhere":
        contributions = rng.integers(-EDGE, EDGE, size=(parties, length), endpoint=True)
    else:
        edge = EDGE if shape == "all-at-plus-bound" else -EDGE
        contributions = np.full((parties, length), edge, dtype=np.int64)
    contributions = contributions.astype(np.int64)
    ring_sum = contributions.sum(axis=0, dtype=np.int64)
    assert np.array_equal(_narrowed_sum(contributions, rng), ring_sum)


@pytest.mark.parametrize("parties", [8, 2048, 524288])
def test_one_party_past_an_edge_needs_the_next_width(parties):
    """The table is tight: at the width one party fewer needs, a cohort
    all at +bound wraps to the most negative value that width holds."""
    narrower = ring_width(parties - 1)
    assert ring_width(parties) == narrower + 1
    total = np.array([parties * EDGE], dtype=np.int64).view(np.uint64)
    assert kernels.widen(total, narrower).view(np.int64)[0] == -parties * EDGE


# ------------------------------------------------------------- the packing


def _reference_packing(words, bits: int) -> bytes:
    """Each word's low ``bits`` bits, run together big-endian, the stream
    zero-padded to whole bytes: the spelling, one Python int at a time."""
    stream = 0
    for word in words:
        stream = (stream << bits) | (int(word) % (1 << bits))
    pad = -len(words) * bits % 8
    return (stream << pad).to_bytes((len(words) * bits + pad) // 8, "big")


@pytest.mark.parametrize("width", [4, 5, 6, 7, 8])
@settings(max_examples=25, deadline=None)
@given(words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_pack_and_unpack_round_trip_at_each_width(width, words):
    """At a whole number of bytes ``w`` (``8w`` bits), the spelling is the
    low ``w`` bytes of each big-endian word, as when widths went in whole
    bytes; at ``w == 8`` the bytes ``be_words_to_bytes`` packs."""
    bits = 8 * width
    packed = kernels.pack_words(words, bits)
    assert packed == b"".join(
        (word % (1 << bits)).to_bytes(width, "big") for word in words
    )
    residues = kernels.unpack_words(packed, bits)
    assert residues.tolist() == [word % (1 << bits) for word in words]
    assert kernels.pack_words(residues, bits) == packed
    if width == 8:
        assert packed == kernels.be_words_to_bytes(words)


@settings(max_examples=80, deadline=None)
@given(
    magnitude=st.sampled_from([0.0, 1e-3, 0.5, 1.0, 2.5, 300.0, FixedPointCodec.bound]),
    parties=st.integers(1, MAX_PARTIES),
    data=st.data(),
)
def test_the_width_holds_the_sum_and_one_bit_less_does_not(magnitude, parties, data):
    """b(n, M) is the fewest bits ≥ 8 whose signed range holds ±n·⌈M·scale⌉
    (the 8-bit floor aside, b − 1 bits wrap a cohort all at +M), and words
    at b bits pack to ⌈k·b/8⌉ bytes and unpack to their residues."""
    bits = ring_width(parties, magnitude)
    total = parties * word_bound(magnitude)
    assert 8 <= bits <= WHOLE_WORD and holds_sum(bits, parties, magnitude)
    assert -(1 << (bits - 1)) <= -total and total < 1 << (bits - 1)
    if bits > 8:
        assert not holds_sum(bits - 1, parties, magnitude)
        assert total >= 1 << (bits - 2)
    words = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    packed = kernels.pack_words(words, bits)
    assert packed == _reference_packing(words, bits)
    assert len(packed) == -(-len(words) * bits // 8)
    assert kernels.unpack_words(packed, bits).tolist() == [w % (1 << bits) for w in words]


@pytest.mark.parametrize("width", [4, 5, 6, 7, 8])
def test_a_torn_word_does_not_unpack(width):
    """A payload one byte short of ``k`` whole words at ``8w`` bits."""
    with pytest.raises(ValueError, match=f"not whole {8 * width}-bit ring words"):
        kernels.unpack_words(bytes(3 * width - 1), 8 * width)


@pytest.mark.parametrize("bits", [9, 20, 25, 43, 57, 63])
@pytest.mark.parametrize("count", [1, 3, 77])
def test_one_byte_short_or_a_pad_bit_set_is_no_spelling(bits, count):
    """A length spells one word count at a width of eight bits or more:
    a payload one byte short of ``count`` words is no spelling of any
    count, nor is one whose last byte carries a pad bit."""
    packed = kernels.pack_words([2**64 - 1] * count, bits)
    assert kernels.misspelled(packed, bits) is None
    assert kernels.misspelled(packed[:-1], bits)
    with pytest.raises(ValueError):
        kernels.unpack_words(packed[:-1], bits)
    if count * bits % 8:
        padded = packed[:-1] + bytes([packed[-1] | 1])
        assert "pad bit" in kernels.misspelled(padded, bits)
        with pytest.raises(ValueError, match="pad bit"):
            kernels.unpack_words(padded, bits)


# ------------------------------------------- the width the predicate proves

#: b(n, 1.0): a round whose Glimmer range-checks every value into [0, 1]:
#: ``17 + n.bit_length()`` bits.
UNIT_BITS = {1: 18, 64: 24, 192: 25, 32767: 32, 32768: 33}


@pytest.mark.parametrize("parties", sorted(UNIT_BITS), ids=_case_id(UNIT_BITS))
def test_the_width_table_at_unit_magnitude(parties):
    bits = ring_width(parties, 1.0)
    assert bits == UNIT_BITS[parties]
    assert holds_sum(bits, parties, 1.0)
    assert not holds_sum(bits - 1, parties, 1.0)


def test_no_width_is_narrower_than_the_floor():
    """Eight bits, even for one party whose values are all zero: at eight
    bits or more a payload's length spells at most one word count."""
    assert RING_WIDTHS[0] == 8 == ring_width(1, 0.0)
    assert RING_WIDTHS[-1] == WHOLE_WORD == 64
    assert not holds_sum(7, 1, 0.0)


def test_a_magnitude_between_quanta_rounds_up():
    """A value at M encodes to rint(M·scale) ≤ ⌈M·scale⌉: the width holds
    the ceiling, so an M that is no whole number of quanta still fits."""
    magnitude = (3 + 0.5) / FixedPointCodec.scale
    assert word_bound(magnitude) == 4
    codec = FixedPointCodec()
    assert abs(np.int64(np.uint64(codec.encode([-magnitude])[0]))) <= word_bound(magnitude)


@settings(max_examples=40, deadline=None)
@given(
    magnitude=st.sampled_from([0.0, 1e-3, 0.5, 1.0, 2.5, 8.0, 300.0, 1 << 20]),
    parties=st.one_of(st.integers(1, 40), st.sampled_from(sorted(UNIT_BITS))),
    length=st.integers(1, 2),
    shape=st.sampled_from(["all-at-plus-M", "all-at-minus-M", "anywhere"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_narrowed_words_sum_to_the_64_bit_ring_sum_at_each_magnitude(
    magnitude, parties, length, shape, seed
):
    """At b(n, M), n values each within ±M, as the codec encodes them,
    blind, cross, fold and widen to their exact 64-bit ring sum."""
    rng = np.random.default_rng(seed)
    codec = FixedPointCodec()
    if shape == "anywhere":
        values = rng.uniform(-magnitude, magnitude, size=(parties, length))
    else:
        edge = magnitude if shape == "all-at-plus-M" else -magnitude
        values = np.full((parties, length), edge)
    contributions = np.array(
        [codec.encode(row) for row in values], dtype=np.uint64
    ).view(np.int64)
    assert np.abs(contributions).max() <= word_bound(magnitude)
    ring_sum = contributions.sum(axis=0, dtype=np.int64)
    width = ring_width(parties, magnitude)
    assert np.array_equal(_narrowed_sum(contributions, rng, width), ring_sum)
