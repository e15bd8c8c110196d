"""Numpy ring-arithmetic and serialization kernels.

All §3 blinding math happens in ``Z/2^64``, the one ring of every mask,
commitment and sum.  Native ``np.uint64`` arithmetic wraps modulo
``2^64``, so that wraparound *is* the reduction: every kernel here is
bit-exact against the ``(x op y) % 2**64`` scalar definition, including
multi-term sums whose intermediate totals overflow 64 bits.

Masks, commitments and openings travel packed as ``bytes`` of
big-endian u64 words (:func:`be_words_to_bytes`), which :func:`as_ring`
reads with one ``np.frombuffer``.  Python-int sequences from in-process
callers convert the same way (falling back to an explicit ``% 2**64``
pass for out-of-range values, matching scalar semantics), so downstream
phases run O(1) array operations instead of O(length) interpreter loops.
Float vectors travel as big-endian IEEE-754 doubles
(:func:`be_doubles_to_bytes` / :func:`be_doubles`).

A blinded contribution and the §3 repair cross narrower: each word as
its residue mod ``2^b`` in ``b`` bits, the words' bits run together
big-endian and the last byte's pad bits zero (:func:`pack_words` /
:func:`unpack_words`), where ``b`` is the width the round's sum needs
(:func:`repro.crypto.fixedpoint.ring_width`).  Reduction mod ``2^b`` is
a ring homomorphism from ``Z/2^64``, so residues fold in ``uint64`` like
any words, and :func:`widen` turns the folded total back into the 64-bit
sum by sign extension.  At ``b ≥ 8`` a length spells at most one word
count, so :func:`misspelled` judges a payload from its length and its
last byte alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

U64 = np.uint64
#: Big-endian unsigned 64-bit word — the wire order of every ring vector.
BE_U64 = np.dtype(">u8")
#: Big-endian IEEE-754 double — the wire order of every float vector.
BE_F64 = np.dtype(">f8")
#: What a packed vector may arrive as in process; the wire takes ``bytes`` only.
_PACKED = (bytes, bytearray, memoryview)
#: The one ring of every mask, commitment and sum is ``Z/2^64``.
MODULUS = 1 << 64


def _unpack(payload, dtype: np.dtype) -> np.ndarray:
    """A packed buffer of 8-byte values, read in place (no copy)."""
    if len(payload) % 8:
        raise ValueError(
            f"a packed vector is whole 8-byte values, not {len(payload)} bytes"
        )
    return np.frombuffer(payload, dtype=dtype)


def be_words(payload: bytes) -> np.ndarray:
    """The native ``np.uint64`` words of a packed ring vector.

    Inverse of :func:`be_words_to_bytes`; raises ``ValueError`` when the
    length is not a multiple of 8.
    """
    return _unpack(payload, BE_U64).astype(U64)


def misspelled(payload: bytes, bits: int) -> str | None:
    """What keeps ``payload`` from being the one spelling of ring words at
    ``bits`` bits each, if anything: ``⌈k·bits/8⌉`` bytes for some ``k``,
    whose last byte's pad bits are zero."""
    pad = len(payload) * 8 % bits
    if pad >= 8:
        return f"{len(payload)} bytes are not whole {bits}-bit ring words"
    if pad and payload[-1] & ((1 << pad) - 1):
        return f"the last byte's {pad} pad bit(s) are not zero"
    return None


def unpack_words(payload: bytes, bits: int) -> np.ndarray:
    """The ``np.uint64`` residues of ring words packed ``bits`` bits each.

    Inverse of :func:`pack_words`: each word is zero-extended, so it is
    its residue mod ``2^bits``.  Raises ``ValueError`` when the payload is
    not their one spelling (:func:`misspelled`).
    """
    complaint = misspelled(payload, bits)
    if complaint:
        raise ValueError(complaint)
    start = np.arange(len(payload) * 8 // bits, dtype=U64) * U64(bits)
    pairs = np.frombuffer(payload + bytes(16 - len(payload) % 8), dtype=BE_U64).astype(U64)
    at, skip = (start >> U64(6)).astype(np.intp), start & U64(63)
    # Each word is the top ``bits`` of the 64 bits from its start, which
    # span two u64s; numpy shifts a u64 by 64 to 0, so a word starting on
    # a u64 boundary takes nothing from the next.
    return ((pairs[at] << skip) | (pairs[at + 1] >> (U64(64) - skip))) >> U64(64 - bits)


def widen(words: np.ndarray, bits: int) -> np.ndarray:
    """Words reduced mod ``2^bits`` and sign-extended to 64 bits.

    A folded total of :func:`unpack_words` residues is the 64-bit ring
    sum's residue; when that sum's signed value fits ``bits`` bits, this
    returns it exactly.  ``bits == 64`` is the identity.
    """
    shift = np.uint64(64 - bits)
    return ((as_ring(words) << shift).view(np.int64) >> np.int64(shift)).view(U64)


def be_doubles(payload: bytes) -> np.ndarray:
    """The native ``np.float64`` values of a packed float vector.

    Inverse of :func:`be_doubles_to_bytes`; raises ``ValueError`` when the
    length is not a multiple of 8.
    """
    return _unpack(payload, BE_F64).astype(np.float64)


def as_ring(values: Sequence[int] | np.ndarray) -> np.ndarray:
    """A 1-D ``np.uint64`` ring vector from packed words or any integer sequence.

    A packed buffer (``bytes``) holds big-endian u64 words; its length
    must be a multiple of 8 (``ValueError`` otherwise).  Integer values
    already in ``[0, 2^64)`` convert directly; anything outside (negative
    or arbitrarily large Python ints) takes a scalar ``%`` fallback so the
    result always equals ``[int(v) % 2**64 for v in values]``.
    """
    if isinstance(values, np.ndarray) and values.dtype == U64:
        return values
    if isinstance(values, _PACKED):
        return be_words(values)
    try:
        return np.asarray(values, dtype=U64)
    except (OverflowError, TypeError, ValueError):
        return np.asarray([int(v) % MODULUS for v in values], dtype=U64)


def as_ring_rows(rows: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """A 2-D ``np.uint64`` matrix (one ring vector per row).

    Rows may be packed buffers, read as :func:`as_ring` reads them.
    """
    if isinstance(rows, np.ndarray) and rows.dtype == U64 and rows.ndim == 2:
        return rows
    if not isinstance(rows, np.ndarray) and any(isinstance(r, _PACKED) for r in rows):
        return np.stack([as_ring(row) for row in rows])
    try:
        arr = np.asarray(rows, dtype=U64)
        if arr.ndim != 2:
            raise ValueError("rows do not form a matrix")
    except (OverflowError, TypeError, ValueError):
        arr = np.asarray([[int(v) % MODULUS for v in row] for row in rows], dtype=U64)
    return arr


def ring_add(
    left: np.ndarray | Sequence[int], right: np.ndarray | Sequence[int]
) -> np.ndarray:
    """Component-wise ``(a + b) mod 2^64``."""
    return as_ring(left) + as_ring(right)


def ring_sub(
    left: np.ndarray | Sequence[int], right: np.ndarray | Sequence[int]
) -> np.ndarray:
    """Component-wise ``(a - b) mod 2^64``."""
    return as_ring(left) - as_ring(right)


def ring_neg(values: np.ndarray | Sequence[int]) -> np.ndarray:
    """Component-wise ``(-a) mod 2^64``."""
    return U64(0) - as_ring(values)


def ring_sum_rows(rows: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """Column-wise ring sum of a matrix of ring vectors.

    ``uint64`` accumulation wraps mod ``2^64``, which is exactly
    ``sum(column) % 2^64``.
    """
    return as_ring_rows(rows).sum(axis=0, dtype=U64)


def ring_accumulate(rows, chunk_rows: int = 1024) -> np.ndarray:
    """Column-wise ring sum of an *iterable* of ring vectors, chunked.

    Bit-identical to :func:`ring_sum_rows` (uint64 addition mod ``2^64``
    is associative), but never materializes the full row-major matrix:
    rows are folded in blocks of ``chunk_rows``, so peak memory is
    O(chunk_rows · length) regardless of how many rows stream past.
    This is the finalize-path sum for the streaming ingest story — a
    u1M round folds through a ~1k-row window.
    """
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be >= 1")
    total: np.ndarray | None = None
    buffer: list = []
    for row in rows:
        buffer.append(row)
        if len(buffer) >= chunk_rows:
            partial = ring_sum_rows(buffer)
            total = partial if total is None else total + partial
            buffer.clear()
    if buffer:
        partial = ring_sum_rows(buffer)
        total = partial if total is None else total + partial
    if total is None:
        raise ValueError("ring_accumulate needs at least one row")
    return total


# ------------------------------------------------------------- serialization


def be_words_to_bytes(words: Sequence[int] | np.ndarray | bytes) -> bytes:
    """``b"".join(int(v).to_bytes(8, "big") for v in words)``, in one pass.

    An already-packed buffer is returned as its bytes (``ValueError`` when
    it is not whole 8-byte words).  Out-of-range words fall back to the
    scalar join so the same ``OverflowError`` surfaces for values outside
    ``[0, 2^64)``.
    """
    if isinstance(words, _PACKED):
        packed = bytes(words)
        if len(packed) % 8:
            raise ValueError(
                f"a packed vector is whole 8-byte values, not {len(packed)} bytes"
            )
        return packed
    try:
        arr = np.asarray(words, dtype=U64)
    except (OverflowError, TypeError, ValueError):
        return b"".join(int(v).to_bytes(8, "big") for v in words)
    return arr.astype(BE_U64, copy=False).tobytes()


def pack_words(words: Sequence[int] | np.ndarray | bytes, bits: int) -> bytes:
    """Each ring word's residue mod ``2^bits``, its ``bits`` bits run
    together big-endian and the last byte's pad bits zero: ``⌈k·bits/8⌉``
    bytes for ``k`` words, in one pass; at ``bits == 64`` the bytes
    :func:`be_words_to_bytes` packs."""
    top = (as_ring(words) << U64(64 - bits)).astype(BE_U64).view(np.uint8).reshape(-1, 8)
    return np.packbits(np.unpackbits(top, axis=1, count=bits)).tobytes()


def be_doubles_to_bytes(values: Sequence[float] | np.ndarray) -> bytes:
    """``struct.pack(f">{len(values)}d", *values)``, in one pass.

    An int too large for a double raises ``OverflowError``, as ``struct``
    does.
    """
    return np.asarray(values, dtype=np.float64).astype(BE_F64, copy=False).tobytes()
