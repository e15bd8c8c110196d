"""Fixed-point encoding of real-valued model vectors into a modular ring.

Blinding (§3) operates on integers modulo ``2^64``: masks cancel exactly only
in modular arithmetic.  Model weights are floats, so every protocol in this
library encodes them as scaled integers first.  The codec is exact for the
quantization it advertises and round-trips any value within its range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.perf import kernels

DEFAULT_MODULUS_BITS = 64

#: Largest integer magnitude exactly representable in a float64.  The
#: vectorized encode/decode paths are used only when every intermediate
#: stays at or below this, which makes the float arithmetic bit-exact
#: against the scalar ``round``/true-division reference; otherwise the
#: codec falls back to the scalar loop.
_EXACT_FLOAT_BOUND = 1 << 53


@dataclass(frozen=True)
class FixedPointCodec:
    """Encode floats in ``[-bound, bound]`` as integers mod ``2^modulus_bits``.

    Parameters
    ----------
    scale:
        Quantization factor: an encoded value represents ``round(x * scale)``.
    bound:
        Largest representable magnitude *after aggregation*.  Choose
        ``bound >= max_clients * per_client_bound`` so sums never wrap.
    modulus_bits:
        Ring size.  The codec refuses configurations where ``bound * scale``
        does not fit in half the ring (positive/negative halves).
    """

    scale: int = 1 << 16
    bound: float = 1 << 20
    modulus_bits: int = DEFAULT_MODULUS_BITS

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")
        if self.bound <= 0:
            raise ConfigurationError("bound must be positive")
        if self.bound * self.scale >= self.modulus() // 2:
            raise ConfigurationError(
                "bound * scale must fit in half the ring to preserve signs"
            )

    def modulus(self) -> int:
        return 1 << self.modulus_bits

    def encode_value(self, value: float) -> int:
        if not -self.bound <= value <= self.bound:
            raise ConfigurationError(
                f"value {value!r} outside codec bound ±{self.bound}"
            )
        return round(value * self.scale) % self.modulus()

    def decode_value(self, encoded: int) -> float:
        modulus = self.modulus()
        encoded %= modulus
        if encoded >= modulus // 2:  # negative half
            encoded -= modulus
        return encoded / self.scale

    def _batch_exact(self) -> bool:
        """Whether float64 round-trips are provably exact for this codec."""
        return (
            self.bound * self.scale <= _EXACT_FLOAT_BOUND
            and self.scale <= _EXACT_FLOAT_BOUND
        )

    def encode(self, values: Sequence[float]) -> list[int]:
        """Encode a float vector; raises if any entry exceeds the bound.

        Batch path: one ``np.rint`` pass (round-half-even, matching
        Python's ``round``) over the whole vector, exact because the gated
        magnitudes fit a float64 mantissa.  Codecs scaled beyond that
        range take the scalar loop.
        """
        if not self._batch_exact():
            return [self.encode_value(float(v)) for v in values]
        array = np.asarray(values, dtype=np.float64)
        in_bound = (array >= -self.bound) & (array <= self.bound)
        if not in_bound.all():
            offender = float(array[~in_bound][0])
            raise ConfigurationError(
                f"value {offender!r} outside codec bound ±{self.bound}"
            )
        scaled = np.rint(array * self.scale).astype(np.int64)
        ring = kernels.ring_reduce(scaled.view(np.uint64), self.modulus_bits)
        return ring.tolist()

    def decode(self, encoded: Sequence[int]) -> np.ndarray:
        """Decode a ring vector back to floats."""
        arr = kernels.as_ring(encoded, self.modulus_bits)
        if self.modulus_bits == 64:
            centered = arr.view(np.int64)
        else:
            # (x + half) mod 2^mb - half recenters into [-half, half) without
            # ever materializing 2^mb (which can overflow int64 at mb=63).
            half = 1 << (self.modulus_bits - 1)
            shifted = kernels.ring_reduce(arr + np.uint64(half), self.modulus_bits)
            centered = shifted.astype(np.int64) - np.int64(half)
        if (
            self.scale <= _EXACT_FLOAT_BOUND
            and np.abs(centered).max(initial=0) <= _EXACT_FLOAT_BOUND
        ):
            return centered.astype(np.float64) / self.scale
        return np.array([self.decode_value(e) for e in arr.tolist()], dtype=float)

    def add(self, left: Sequence[int], right: Sequence[int]) -> list[int]:
        """Component-wise ring addition (what the service does with blinded vectors)."""
        if len(left) != len(right):
            raise ConfigurationError("vector length mismatch")
        return kernels.ring_add(left, right, self.modulus_bits).tolist()

    def sum_vectors(self, vectors: Sequence[Sequence[int]]) -> list[int]:
        """Ring sum of many encoded vectors — one column-wise numpy pass."""
        if not vectors:
            raise ConfigurationError("no vectors to sum")
        length = len(vectors[0])
        for vector in vectors:
            if len(vector) != length:
                raise ConfigurationError("vector length mismatch")
        return kernels.ring_sum_rows(vectors, self.modulus_bits).tolist()
