"""Numpy ring-arithmetic and serialization kernels.

All §3 blinding math happens in ``Z_{2^modulus_bits}`` with
``modulus_bits <= 64``.  Native ``np.uint64`` arithmetic wraps modulo
``2^64``, and because ``2^modulus_bits`` divides ``2^64`` a final bitmask
reduces any wrapped result to the correct smaller ring — so every kernel
here is bit-exact against the ``(x op y) % modulus`` scalar definition,
including multi-term sums whose intermediate totals overflow 64 bits.

Inputs arrive from the wire as Python-int sequences; :func:`as_ring`
converts once at the boundary (falling back to an explicit ``% modulus``
pass for out-of-range values, matching scalar semantics) so downstream
phases can run O(1) array operations instead of O(length) interpreter
loops.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

U64 = np.uint64
#: Big-endian unsigned 64-bit word — the wire order of every ring vector.
BE_U64 = np.dtype(">u8")

_FULL_MASK = U64(0xFFFFFFFFFFFFFFFF)


def ring_bitmask(modulus_bits: int) -> np.uint64:
    """The ``2^modulus_bits - 1`` mask as a ``np.uint64`` scalar."""
    if not 1 <= modulus_bits <= 64:
        raise ValueError("modulus_bits must be in [1, 64]")
    if modulus_bits == 64:
        return _FULL_MASK
    return U64((1 << modulus_bits) - 1)


def ring_reduce(arr: np.ndarray, modulus_bits: int) -> np.ndarray:
    """Reduce a ``np.uint64`` array into ``[0, 2^modulus_bits)``."""
    if modulus_bits == 64:
        return arr
    return arr & ring_bitmask(modulus_bits)


_reduce = ring_reduce


def as_ring(values: Sequence[int] | np.ndarray, modulus_bits: int = 64) -> np.ndarray:
    """A 1-D ``np.uint64`` ring vector from any integer sequence.

    Values already in ``[0, 2^64)`` convert directly; anything outside
    (negative or arbitrarily large Python ints) takes a scalar ``%``
    fallback so the result always equals ``[int(v) % modulus for v in
    values]``.
    """
    if isinstance(values, np.ndarray) and values.dtype == U64:
        return _reduce(values, modulus_bits)
    try:
        arr = np.asarray(values, dtype=U64)
    except (OverflowError, TypeError, ValueError):
        modulus = 1 << modulus_bits
        arr = np.asarray([int(v) % modulus for v in values], dtype=U64)
    return _reduce(arr, modulus_bits)


def as_ring_rows(
    rows: Sequence[Sequence[int]] | np.ndarray, modulus_bits: int = 64
) -> np.ndarray:
    """A 2-D ``np.uint64`` matrix (one ring vector per row)."""
    if isinstance(rows, np.ndarray) and rows.dtype == U64 and rows.ndim == 2:
        return _reduce(rows, modulus_bits)
    try:
        arr = np.asarray(rows, dtype=U64)
        if arr.ndim != 2:
            raise ValueError("rows do not form a matrix")
    except (OverflowError, TypeError, ValueError):
        modulus = 1 << modulus_bits
        arr = np.asarray(
            [[int(v) % modulus for v in row] for row in rows], dtype=U64
        )
    return _reduce(arr, modulus_bits)


def ring_add(
    left: np.ndarray | Sequence[int],
    right: np.ndarray | Sequence[int],
    modulus_bits: int = 64,
) -> np.ndarray:
    """Component-wise ``(a + b) mod 2^modulus_bits``."""
    return _reduce(
        as_ring(left, modulus_bits) + as_ring(right, modulus_bits), modulus_bits
    )


def ring_sub(
    left: np.ndarray | Sequence[int],
    right: np.ndarray | Sequence[int],
    modulus_bits: int = 64,
) -> np.ndarray:
    """Component-wise ``(a - b) mod 2^modulus_bits``."""
    return _reduce(
        as_ring(left, modulus_bits) - as_ring(right, modulus_bits), modulus_bits
    )


def ring_neg(
    values: np.ndarray | Sequence[int], modulus_bits: int = 64
) -> np.ndarray:
    """Component-wise ``(-a) mod 2^modulus_bits``."""
    return _reduce(U64(0) - as_ring(values, modulus_bits), modulus_bits)


def ring_sum_rows(
    rows: np.ndarray | Sequence[Sequence[int]], modulus_bits: int = 64
) -> np.ndarray:
    """Column-wise ring sum of a matrix of ring vectors.

    ``uint64`` accumulation wraps mod ``2^64``; reducing the wrapped total
    by the ring bitmask yields exactly ``sum(column) % 2^modulus_bits``.
    """
    matrix = as_ring_rows(rows, modulus_bits)
    return _reduce(matrix.sum(axis=0, dtype=U64), modulus_bits)


def ring_accumulate(
    rows, modulus_bits: int = 64, chunk_rows: int = 1024
) -> np.ndarray:
    """Column-wise ring sum of an *iterable* of ring vectors, chunked.

    Bit-identical to :func:`ring_sum_rows` (uint64 addition mod ``2^64``
    is associative, and ``2^modulus_bits`` divides ``2^64``), but never
    materializes the full row-major matrix: rows are folded in blocks of
    ``chunk_rows``, so peak memory is O(chunk_rows · length) regardless
    of how many rows stream past.  This is the finalize-path sum for the
    streaming ingest story — a u1M round folds through a ~1k-row window.
    """
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be >= 1")
    total: np.ndarray | None = None
    buffer: list = []
    for row in rows:
        buffer.append(row)
        if len(buffer) >= chunk_rows:
            partial = ring_sum_rows(buffer, modulus_bits)
            total = partial if total is None else total + partial
            buffer.clear()
    if buffer:
        partial = ring_sum_rows(buffer, modulus_bits)
        total = partial if total is None else total + partial
    if total is None:
        raise ValueError("ring_accumulate needs at least one row")
    return _reduce(total, modulus_bits)


def limb_column_sums(
    rows: np.ndarray | Sequence[Sequence[int]],
    num_limbs: int,
    limb_bits: int = 16,
) -> np.ndarray:
    """Per-limb column sums of a matrix of ring vectors.

    Returns a ``(num_limbs, length)`` ``np.uint64`` array where entry
    ``[l][i]`` is ``Σ_rows limb_l(row[i])`` — the quantity the mask
    commitment scheme publishes per limb column.  Each sum is bounded by
    ``num_rows · 2^limb_bits``, far inside ``uint64``, so the accumulation
    is exact and the result is bit-identical to the per-word scalar loop.
    """
    matrix = as_ring_rows(rows)
    limb_mask = U64((1 << limb_bits) - 1)
    return np.stack(
        [
            ((matrix >> U64(limb_bits * l)) & limb_mask).sum(axis=0, dtype=U64)
            for l in range(num_limbs)
        ]
    )


# ------------------------------------------------------------- serialization


def be_words_to_bytes(words: Sequence[int] | np.ndarray) -> bytes:
    """``b"".join(int(v).to_bytes(8, "big") for v in words)``, in one pass.

    Out-of-range words fall back to the scalar join so the same
    ``OverflowError`` surfaces for values outside ``[0, 2^64)``.
    """
    try:
        arr = np.asarray(words, dtype=U64)
    except (OverflowError, TypeError, ValueError):
        return b"".join(int(v).to_bytes(8, "big") for v in words)
    return arr.astype(BE_U64, copy=False).tobytes()


def bytes_to_be_words(payload: bytes) -> tuple[int, ...]:
    """Inverse of :func:`be_words_to_bytes`; returns Python ints.

    ``payload`` length must be a multiple of 8 — callers validate framing
    before parsing, exactly as the scalar loops did.
    """
    return tuple(np.frombuffer(payload, dtype=BE_U64).tolist())
