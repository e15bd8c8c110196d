"""Fixed-point encoding of real-valued model vectors into a modular ring.

Blinding (§3) operates on integers modulo ``2^64``: masks cancel exactly only
in modular arithmetic.  Model weights are floats, so every protocol in this
library encodes them as scaled integers first.  The codec is exact for the
quantization it advertises and round-trips any value within its range.

A round's blinded words cross at :func:`ring_width` bits each, their
residues mod ``2^b``: the fewest bits that still hold the round's whole
sum, which its party count, the ``scale`` and the largest value a
contribution may hold fix — the codec's ``bound``, or less where the
Glimmer's measured predicate proves less.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.perf import kernels

#: The ring the codec encodes into, ``Z/2^64``.
MODULUS = kernels.MODULUS

#: Largest integer magnitude exactly representable in a float64.  The
#: vectorized decode is used only when every centred value stays at or
#: below this, which makes the float division bit-exact against the
#: scalar true-division reference; otherwise decode falls back to the
#: scalar loop (blinded words reach ``2^63``).
_EXACT_FLOAT_BOUND = 1 << 53


@dataclass(frozen=True)
class FixedPointCodec:
    """Encode floats in ``[-bound, bound]`` as integers mod ``2^64``.

    The codec has no knobs.  ``scale`` is the quantization factor: an
    encoded value represents ``round(x * scale)``.  ``bound`` is the
    largest magnitude :meth:`encode` accepts; a ring sum decodes with its
    sign intact while its magnitude stays below ``2^63 / scale``.
    ``bound * scale`` (``2^36``) fits a float64 mantissa, so
    :meth:`encode` is one exact numpy pass.
    """

    scale = 1 << 16
    bound = 1 << 20

    def encode_value(self, value: float) -> int:
        if not -self.bound <= value <= self.bound:
            raise ConfigurationError(
                f"value {value!r} outside codec bound ±{self.bound}"
            )
        return round(value * self.scale) % MODULUS

    def decode_value(self, encoded: int) -> float:
        encoded %= MODULUS
        if encoded >= MODULUS // 2:  # negative half
            encoded -= MODULUS
        return encoded / self.scale

    def encode(self, values: Sequence[float]) -> list[int]:
        """Encode a float vector; raises if any entry exceeds the bound.

        One ``np.rint`` pass (round-half-even, matching Python's
        ``round``) over the whole vector, exact because the bounded
        magnitudes fit a float64 mantissa.
        """
        array = np.asarray(values, dtype=np.float64)
        in_bound = (array >= -self.bound) & (array <= self.bound)
        if not in_bound.all():
            offender = float(array[~in_bound][0])
            raise ConfigurationError(
                f"value {offender!r} outside codec bound ±{self.bound}"
            )
        return np.rint(array * self.scale).astype(np.int64).view(np.uint64).tolist()

    def decode(self, encoded: Sequence[int]) -> np.ndarray:
        """Decode a ring vector back to floats."""
        arr = kernels.as_ring(encoded)
        centered = arr.view(np.int64)
        if np.abs(centered).max(initial=0) <= _EXACT_FLOAT_BOUND:
            return centered.astype(np.float64) / self.scale
        return np.array([self.decode_value(e) for e in arr.tolist()], dtype=float)

    def add(self, left: Sequence[int], right: Sequence[int]) -> list[int]:
        """Component-wise ring addition (what the service does with blinded vectors)."""
        if len(left) != len(right):
            raise ConfigurationError("vector length mismatch")
        return kernels.ring_add(left, right).tolist()

    def sum_vectors(self, vectors: Sequence[Sequence[int]]) -> list[int]:
        """Ring sum of many encoded vectors — one column-wise numpy pass."""
        if not vectors:
            raise ConfigurationError("no vectors to sum")
        length = len(vectors[0])
        for vector in vectors:
            if len(vector) != length:
                raise ConfigurationError("vector length mismatch")
        return kernels.ring_sum_rows(vectors).tolist()


def word_bound(magnitude: float) -> int:
    """The largest magnitude a word encoding a value in ``[-M, M]`` holds:
    ``⌈M · scale⌉``, since the codec's round-half-even never rounds past
    the ceiling."""
    return math.ceil(magnitude * FixedPointCodec.scale)


def _bits_for(sum_bound: int) -> int:
    """The fewest bits ``b ≥ 8`` with ``sum_bound < 2^(b − 1)``: at eight
    bits or more a payload's length spells at most one word count."""
    return max(8, sum_bound.bit_length() + 1)


def ring_width(parties: int, magnitude: float = FixedPointCodec.bound) -> int:
    """b(n, M): the bits a blinded word of an ``n``-party round crosses in,
    when every value is at most ``M`` in magnitude.

    The fewest bits ``b ≥ 8`` with ``n · ⌈M · scale⌉ < 2^(b − 1)``: the
    sum of ``n`` contributions then survives reduction mod ``2^b`` and
    sign extension (:func:`repro.perf.kernels.widen`) bit for bit.  At the
    codec's own bound (the default) that is ``37 + n.bit_length()``: 38
    bits for one party, 43 for 32, 57 for :data:`~repro.codec.MAX_PARTIES`;
    for values in ``[0, 1]``, ``17 + n.bit_length()``: 25 bits for 192
    parties.
    """
    if parties < 1:
        raise ConfigurationError(f"a round has at least one party, not {parties}")
    width = _bits_for(parties * word_bound(magnitude))
    if width > 64:
        raise ConfigurationError(f"{parties} parties' sum does not fit Z/2^64")
    return width


def holds_sum(width: int, parties: int, magnitude: float) -> bool:
    """Whether ``width``-bit words carry the sum of ``parties`` values
    each at most ``magnitude``: a width a round may cross at, and no
    narrower than :func:`ring_width` of that round."""
    return width in RING_WIDTHS and _bits_for(parties * word_bound(magnitude)) <= width


#: Every width a round's words may cross at, in bits.
RING_WIDTHS = tuple(range(ring_width(1, 0.0), 65))

#: A whole ``Z/2^64`` word, which holds any sum: the width of a round that
#: no engine opened, whose in-process caller names none.
WHOLE_WORD = RING_WIDTHS[-1]
