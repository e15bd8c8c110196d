"""The width a round's blinded words cross at, w(n, M), at the kernel level.

Reduction mod ``2^(8·w)`` is a ring homomorphism from ``Z/2^64``: a
family that sums to zero mod ``2^64`` still does after it, and the
residues of ``n`` blinded contributions fold in ``uint64`` to the residue
of their sum.  When ``n · ⌈M · scale⌉ < 2^(8w − 1)`` that residue,
sign-extended (:func:`~repro.perf.kernels.widen`), is the 64-bit sum
itself.  These tests hold the width tables at the codec's bound and at
M = 1 (the default predicate's range), that identity at every edge of
each magnitude's range, and the packing it rides on.  No device runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec import MAX_PARTIES
from repro.crypto.fixedpoint import (
    MIN_RING_WIDTH,
    RING_WIDTHS,
    FixedPointCodec,
    holds_sum,
    ring_width,
    word_bound,
)
from repro.errors import ConfigurationError
from repro.perf import kernels

#: The largest magnitude a contribution word encodes: ``bound · scale``.
EDGE = FixedPointCodec.bound * FixedPointCodec.scale

BOUNDARIES = {
    1: 5, 7: 5, 8: 6, 2047: 6, 2048: 7, 524287: 7, 524288: 8, MAX_PARTIES: 8,
}


@pytest.mark.parametrize("parties, width", sorted(BOUNDARIES.items()))
def test_the_width_table(parties, width):
    assert ring_width(parties) == width
    assert width in RING_WIDTHS


@pytest.mark.parametrize("parties", [0, -1])
def test_a_round_has_a_party(parties):
    with pytest.raises(ConfigurationError):
        ring_width(parties)


def _narrowed_sum(
    contributions: np.ndarray, rng: np.random.Generator, width: int | None = None
) -> np.ndarray:
    """Blind ``contributions`` (n × k signed words) with a sum-zero family
    drawn mod ``2^64``, send each word at ``width`` (``ring_width(n)`` by
    default), fold the residues in ``uint64`` and widen the total."""
    parties, length = contributions.shape
    masks = rng.integers(0, 1 << 64, size=(parties, length), dtype=np.uint64, endpoint=False)
    masks[-1] = np.uint64(0) - masks[:-1].sum(axis=0, dtype=np.uint64)
    assert not masks.sum(axis=0, dtype=np.uint64).any()
    blinded = contributions.view(np.uint64) + masks
    width = width or ring_width(parties)
    wire = kernels.pack_words(blinded.ravel(), width)
    assert len(wire) == width * parties * length
    residues = kernels.unpack_words(wire, width).reshape(parties, length)
    return kernels.widen(residues.sum(axis=0, dtype=np.uint64), width).view(np.int64)


@settings(max_examples=40, deadline=None)
@given(
    parties=st.one_of(st.integers(1, 40), st.sampled_from(sorted(BOUNDARIES))),
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


@pytest.mark.parametrize("width", RING_WIDTHS)
@settings(max_examples=25, deadline=None)
@given(words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_pack_and_unpack_round_trip_at_each_width(width, words):
    packed = kernels.pack_words(words, width)
    assert len(packed) == width * len(words)
    residues = kernels.unpack_words(packed, width)
    assert residues.tolist() == [word % (1 << (8 * width)) for word in words]
    assert kernels.pack_words(residues, width) == packed
    if width == 8:
        assert packed == kernels.be_words_to_bytes(words)


@pytest.mark.parametrize("width", RING_WIDTHS)
def test_a_torn_word_does_not_unpack(width):
    with pytest.raises(ValueError, match=f"whole {width}-byte words"):
        kernels.unpack_words(bytes(3 * width - 1), width)


# ------------------------------------------- the width the predicate proves

#: w(n, 1.0): a round whose Glimmer range-checks every value into [0, 1].
UNIT_BOUNDARIES = {1: 4, 64: 4, 192: 4, 32767: 4, 32768: 5}


@pytest.mark.parametrize("parties, width", sorted(UNIT_BOUNDARIES.items()))
def test_the_width_table_at_unit_magnitude(parties, width):
    assert ring_width(parties, 1.0) == width
    assert holds_sum(width, parties, 1.0)
    assert width == MIN_RING_WIDTH or not holds_sum(width - 1, parties, 1.0)


def test_no_width_is_narrower_than_the_floor():
    """Four bytes, even for one party whose values are all zero: a torn
    frame the codec refuses at every width stays refused."""
    assert RING_WIDTHS[0] == MIN_RING_WIDTH == ring_width(1, 0.0)
    assert not holds_sum(MIN_RING_WIDTH - 1, 1, 0.0)


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
    parties=st.one_of(st.integers(1, 40), st.sampled_from(sorted(UNIT_BOUNDARIES))),
    length=st.integers(1, 2),
    shape=st.sampled_from(["all-at-plus-M", "all-at-minus-M", "anywhere"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_narrowed_words_sum_to_the_64_bit_ring_sum_at_each_magnitude(
    magnitude, parties, length, shape, seed
):
    """At w(n, M), n values each within ±M, as the codec encodes them,
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
