"""Scalar reference implementations for the vectorized kernels.

* ``*_scalar`` functions are the **parity references**: the same
  algorithm as the numpy fast path, written as plain Python loops.  The
  parity suite (``tests/perf/test_parity.py``) asserts bit-identical
  outputs between each fast path and its ``_scalar`` twin on the same
  inputs / same DRBG state.

* ``*_naive`` functions are the public-key twins: builtin ``pow`` loops
  with no tables, memoization or batching, which
  ``tests/perf/test_pk_parity.py`` holds :mod:`repro.crypto.group_ops`
  and the batch verifiers to.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.drbg import HmacDrbg

# ------------------------------------------------------------------ parity


def uint64_vector_scalar(rng: HmacDrbg, length: int) -> list[int]:
    """Scalar twin of :meth:`HmacDrbg.uint64_vector`: same stream, int loop."""
    if length < 0:
        raise ValueError("length must be non-negative")
    data = rng.generate(8 * length)
    return [
        int.from_bytes(data[8 * i : 8 * (i + 1)], "big") for i in range(length)
    ]


def sample_sum_zero_scalar(
    num_parties: int, length: int, rng: HmacDrbg, modulus_bits: int = 64
) -> list[tuple[int, ...]]:
    """Scalar twin of the bulk :meth:`SumZeroMasks.sample` (64-bit path).

    First ``N - 1`` masks are big-endian parses of one ``generate`` call
    each; the last is the ring negation of their running sum.
    """
    modulus = 1 << modulus_bits
    masks: list[tuple[int, ...]] = []
    running = [0] * length
    for _ in range(num_parties - 1):
        if modulus_bits == 64:
            mask = tuple(uint64_vector_scalar(rng, length))
        else:
            mask = tuple(rng.randint(modulus) for _ in range(length))
        for i, value in enumerate(mask):
            running[i] = (running[i] + value) % modulus
        masks.append(mask)
    masks.append(tuple((-total) % modulus for total in running))
    return masks


def expand_mask_scalar(
    seed: bytes, label: str, length: int, modulus: int
) -> list[int]:
    """Scalar twin of secagg's bulk ``_expand_mask`` (64-bit ring)."""
    rng = HmacDrbg(seed, personalization="secagg-mask:" + label)
    if modulus == 1 << 64:
        return uint64_vector_scalar(rng, length)
    return [rng.randint(modulus) for _ in range(length)]


def apply_mask_scalar(
    encoded: Sequence[int], mask: Sequence[int], modulus_bits: int = 64
) -> list[int]:
    modulus = 1 << modulus_bits
    return [(int(x) + int(p)) % modulus for x, p in zip(encoded, mask)]


def remove_mask_scalar(
    blinded: Sequence[int], mask: Sequence[int], modulus_bits: int = 64
) -> list[int]:
    modulus = 1 << modulus_bits
    return [(int(y) - int(p)) % modulus for y, p in zip(blinded, mask)]


def sum_vectors_scalar(
    vectors: Sequence[Sequence[int]], modulus_bits: int = 64
) -> list[int]:
    modulus = 1 << modulus_bits
    total = [0] * len(vectors[0])
    for vector in vectors:
        for i, value in enumerate(vector):
            total[i] = (total[i] + int(value)) % modulus
    return total


def encode_scalar(codec, values: Sequence[float]) -> list[int]:
    """Scalar fixed-point encode: per-value ``round(v * scale) % modulus``."""
    return [codec.encode_value(float(v)) for v in values]


def decode_scalar(codec, encoded: Sequence[int]) -> list[float]:
    """Scalar fixed-point decode (list form; callers wrap in np.array)."""
    return [codec.decode_value(int(e)) for e in encoded]


def words_to_bytes_scalar(words: Sequence[int]) -> bytes:
    return b"".join(int(v).to_bytes(8, "big") for v in words)


def bytes_to_words_scalar(payload: bytes) -> tuple[int, ...]:
    return tuple(
        int.from_bytes(payload[i : i + 8], "big")
        for i in range(0, len(payload), 8)
    )


# ----------------------------------------------------- public-key baselines


def fixed_power_naive(prime: int, base: int, exponent: int) -> int:
    """Naive twin of :func:`repro.crypto.group_ops.fixed_power`."""
    return pow(base, exponent, prime)


def multi_power_naive(
    prime: int, bases: Sequence[int], exponents: Sequence[int]
) -> int:
    """Naive twin of :func:`repro.crypto.group_ops.multi_power`: a pow loop."""
    product = 1 % prime
    for base, exponent in zip(bases, exponents):
        product = product * pow(base, exponent, prime) % prime
    return product


def schnorr_verify_naive(group, public_element: int, message: bytes, signature) -> bool:
    """Frozen per-signature Schnorr verification with builtin ``pow``.

    Mirrors the seed revision's :meth:`SchnorrPublicKey.verify` decision
    exactly — range checks, full membership check, ``r' = h^s·y^{q-e}``,
    challenge recomputation — with no tables, no memoization, and no
    batching.  The batch path must agree with this on every input.
    """
    from repro.crypto.schnorr import _challenge

    q = group.subgroup_order
    if not (0 <= signature.challenge < q and 0 <= signature.response < q):
        return False
    element = public_element
    if not 1 < element < group.prime - 1:
        return False
    if pow(element, q, group.prime) != 1:
        return False
    h = pow(group.generator, 2, group.prime)
    r_prime = (
        pow(h, signature.response, group.prime)
        * pow(element, q - signature.challenge, group.prime)
    ) % group.prime
    return _challenge(group, r_prime, element, message) == signature.challenge


def verify_signatures_naive(public, items) -> bool:
    """Naive cohort verification: :func:`schnorr_verify_naive` in a loop."""
    return all(
        schnorr_verify_naive(public.group, public.element, message, signature)
        for message, signature in items
    )


def verify_openings_naive(commitments, openings) -> bool:
    """Naive twin of :func:`repro.crypto.commitments.batch_verify_openings`.

    Per-slot Pedersen point checks with builtin ``pow`` — the decision
    (not the arithmetic route) the batch multi-exp path must reproduce.
    """
    from repro.crypto.commitments import (
        MaskVerificationError,
        _checked_scalar,
        pedersen_generators,
        resolve_group,
    )

    group = resolve_group(commitments.group_name)
    h, u = pedersen_generators(group)
    weights = commitments.weights()
    for slot, opening in openings:
        try:
            scalar, point = _checked_scalar(commitments, slot, opening, weights)
        except MaskVerificationError:
            return False
        expected = (
            pow(h, scalar, group.prime)
            * pow(u, opening.randomizer, group.prime)
        ) % group.prime
        if expected != point:
            return False
    return True
