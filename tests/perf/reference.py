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

import hashlib
from operator import mul
from typing import Sequence

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import hash_items
from repro.perf.kernels import MODULUS

# ------------------------------------------------------------------ parity


def uint64_vector_scalar(rng: HmacDrbg, length: int) -> list[int]:
    """Scalar twin of :meth:`HmacDrbg.uint64_vector`: same stream, int loop."""
    if length < 0:
        raise ValueError("length must be non-negative")
    data = rng.generate(8 * length)
    return [
        int.from_bytes(data[8 * i : 8 * (i + 1)], "big") for i in range(length)
    ]


def sample_sum_zero_scalar(num_parties: int, length: int, rng: HmacDrbg) -> list[bytes]:
    """Scalar twin of :meth:`SumZeroMasks.sample`, from its definition.

    A 32-byte family seed from ``rng`` keys every slot but the last: slot
    ``j``'s seed is ``SHA-256(u16 tag length ‖ b"sum-zero-slot-seed" ‖
    family seed ‖ j as a u32)``, and word ``i`` of its mask is word ``i``
    of ``SHAKE256(b"sum-zero-masks" ‖ slot seed)``, one ``int.from_bytes``
    each.  The last mask is the ring negation of the running sum.  Masks
    are returned packed, as the family holds them.
    """
    family_seed = rng.generate(32)
    tag = b"sum-zero-slot-seed"
    masks: list[bytes] = []
    running = [0] * length
    for j in range(num_parties - 1):
        seed = hashlib.sha256(
            len(tag).to_bytes(2, "big") + tag + family_seed + j.to_bytes(4, "big")
        ).digest()
        stream = hashlib.shake_256(b"sum-zero-masks" + seed).digest(8 * length)
        mask = [int.from_bytes(stream[8 * i : 8 * (i + 1)], "big") for i in range(length)]
        for i, value in enumerate(mask):
            running[i] = (running[i] + value) % MODULUS
        masks.append(words_to_bytes_scalar(mask))
    masks.append(words_to_bytes_scalar([(-total) % MODULUS for total in running]))
    return masks


def expand_mask_scalar(seed: bytes, label: str, length: int) -> list[int]:
    """Scalar twin of secagg's bulk ``_expand_mask``."""
    rng = HmacDrbg(seed, personalization="secagg-mask:" + label)
    return uint64_vector_scalar(rng, length)


def apply_mask_scalar(encoded: Sequence[int], mask: Sequence[int]) -> list[int]:
    return [(int(x) + int(p)) % MODULUS for x, p in zip(encoded, mask)]


def remove_mask_scalar(blinded: Sequence[int], mask: Sequence[int]) -> list[int]:
    return [(int(y) - int(p)) % MODULUS for y, p in zip(blinded, mask)]


def sum_vectors_scalar(vectors: Sequence[Sequence[int]]) -> list[int]:
    total = [0] * len(vectors[0])
    for vector in vectors:
        for i, value in enumerate(vector):
            total[i] = (total[i] + int(value)) % MODULUS
    return total


def encode_scalar(codec, values: Sequence[float]) -> list[int]:
    """Scalar fixed-point encode: per-value ``round(v * scale) % 2**64``."""
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


def weighted_limb_sum_scalar(
    mask: Sequence[int], weights: Sequence[int], limbs: int, q: int
) -> int:
    """Scalar twin of ``commitments._weighted_limb_sum``.

    ``Σ_{i,l} weights[i·limbs + l]·limb_l(mask[i]) mod q`` as one
    Python-int dot over the flat weights, reduced once.
    """
    limb_values = [
        (int(word) >> (16 * l)) & 0xFFFF for word in mask for l in range(limbs)
    ]
    return sum(map(mul, weights, limb_values)) % q


def sum_zero_target_scalar(column_sums: bytes, weights: Sequence[int], q: int) -> int:
    """Scalar twin of ``commitments._sum_zero_target``: ``Σ w[i][l]·T[i][l] mod q``
    over the packed claims, read word by word."""
    return sum(map(mul, weights, bytes_to_words_scalar(column_sums))) % q


def commitment_root_scalar(commitments) -> bytes:
    """Scalar twin of :meth:`MaskCommitmentSet.root`.

    The set's shape (with the ring width, 64, as a 2-byte field), every
    hash commitment, then each of the k·limbs column claims (one packed
    word) as its own 8-byte ``hash_items`` entry.
    """
    claims = commitments.column_sums
    items = [
        commitments.round_id.to_bytes(8, "big"),
        commitments.num_slots.to_bytes(4, "big"),
        commitments.vector_length.to_bytes(4, "big"),
        (64).to_bytes(2, "big"),
        commitments.group_name.encode("ascii"),
        *commitments.hash_commitments,
    ]
    for at in range(0, len(claims), 8):
        items.append(claims[at : at + 8])
    return hash_items("mask-commitment-root", items)


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
            scalar, point, _ = _checked_scalar(commitments, slot, opening, weights)
        except MaskVerificationError:
            return False
        expected = (
            pow(h, scalar, group.prime)
            * pow(u, opening.randomizer, group.prime)
        ) % group.prime
        if expected != point:
            return False
    return True
