"""Sum-zero additive blinding — the exact construction of §3 of the paper.

    "Assume the existence of a trusted blinding service ... that computes N
    random blinding values p_i such that Σ p_i = 0.  It then seals each p_i
    value to the Glimmer code, and encrypts one of the sealed values to each
    of N clients' public keys ... The Blinding component then computes the
    blinded user contribution y_i = x_i + p_i."

:class:`BlindingService` plays that trusted third party: it samples ``N``
mask vectors summing to zero in the ring, and hands each out encrypted to a
per-client key.  :class:`SumZeroMasks` is the client-side arithmetic.

The paper notes the blinding service "could, itself, be implemented as a
separate enclave on one of the clients"; :mod:`repro.core.provisioning`
hosts this service inside a simulated enclave and handles the sealing leg.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.crypto.cipher import AuthenticatedCipher, SealedBox
from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec
from repro.errors import ConfigurationError, CryptoError
from repro.perf import kernels


@dataclass(frozen=True)
class SumZeroMasks:
    """A family of N ring vectors whose component-wise sum is zero."""

    masks: tuple[tuple[int, ...], ...]
    modulus_bits: int

    @classmethod
    def sample(
        cls, num_parties: int, length: int, rng: HmacDrbg, modulus_bits: int = 64
    ) -> "SumZeroMasks":
        """Sample N masks with Σ_i masks[i] ≡ 0 (mod 2^modulus_bits), per component.

        The first N-1 masks are uniform; the last is the ring negation of
        their sum, which makes the family jointly uniform subject to the
        sum-zero constraint.

        For the 64-bit ring each mask is one bulk DRBG expansion
        (:meth:`~repro.crypto.drbg.HmacDrbg.uint64_vector`) and the
        running sum is numpy ring arithmetic — bit-exact against the
        scalar reference (:func:`repro.perf.reference.sample_sum_zero_scalar`).
        Narrower rings keep the per-element rejection sampler, since a
        masked 64-bit word is not uniform mod a non-power-of-two slice.
        """
        if num_parties < 1:
            raise ConfigurationError("need at least one party")
        if length < 1:
            raise ConfigurationError("mask length must be positive")
        if modulus_bits == 64:
            running = np.zeros(length, dtype=np.uint64)
            masks: list[tuple[int, ...]] = []
            for _ in range(num_parties - 1):
                row = rng.uint64_vector(length)
                running += row
                masks.append(tuple(row.tolist()))
            masks.append(tuple(kernels.ring_neg(running).tolist()))
            return cls(masks=tuple(masks), modulus_bits=modulus_bits)
        modulus = 1 << modulus_bits
        masks = []
        running_list = [0] * length
        for _ in range(num_parties - 1):
            mask = tuple(rng.randint(modulus) for _ in range(length))
            for i, value in enumerate(mask):
                running_list[i] = (running_list[i] + value) % modulus
            masks.append(mask)
        masks.append(tuple((-total) % modulus for total in running_list))
        return cls(masks=tuple(masks), modulus_bits=modulus_bits)

    def mask_for(self, party_index: int) -> tuple[int, ...]:
        return self.masks[party_index]

    def verify_sum_zero(self) -> bool:
        """Sanity invariant used by tests and the blinding service's self-check.

        Chunked accumulation (:func:`repro.perf.kernels.ring_accumulate`)
        keeps the check's peak memory bounded even for large families —
        the full row-major matrix is never needed for a sum.
        """
        totals = kernels.ring_accumulate(self.masks, self.modulus_bits)
        return not totals.any()


class GroupedSumZeroMasks:
    """Per-subgroup sum-zero mask families, materialized on demand.

    The hierarchical aggregation path samples an *independent* sum-zero
    family inside each subgroup of a :class:`repro.scale.subgroup.
    SubgroupPlan`: every subgroup sums to zero, so the cohort sums to
    zero, and the aggregate is bit-identical to any flat sum-zero
    construction — the parity gate is the aggregate, not the mask
    stream.  What changes is the resident state: instead of O(n·k) mask
    words the service holds one 32-byte seed per subgroup and
    re-expands a subgroup's :class:`SumZeroMasks` only when a slot in it
    is provisioned or repaired.  A small FIFO cache keeps the hot
    subgroups warm, so between round open and round close the family
    holds at most ``CACHE_GROUPS`` · g · k mask words, and §3 dropout
    repair touches O(g) of them, never O(n).  (Committing the round
    walks every subgroup once through :attr:`masks`; that O(n·k) pass is
    transient — nothing it builds outlives ``open_round``.)
    """

    #: Materialized subgroups kept warm per family.
    CACHE_GROUPS = 4

    def __init__(self, plan, seeds: tuple[bytes, ...], length: int, modulus_bits: int) -> None:
        if len(seeds) != plan.num_groups:
            raise ConfigurationError("one seed per subgroup required")
        self.plan = plan
        self.seeds = seeds
        self.length = length
        self.modulus_bits = modulus_bits
        self._cache: dict[int, SumZeroMasks] = {}

    @classmethod
    def sample(
        cls, plan, length: int, rng: HmacDrbg, modulus_bits: int = 64
    ) -> "GroupedSumZeroMasks":
        """Draw one independent seed per subgroup from the round's DRBG."""
        if length < 1:
            raise ConfigurationError("mask length must be positive")
        seeds = tuple(rng.generate(32) for _ in range(plan.num_groups))
        return cls(plan, seeds, length, modulus_bits)

    @property
    def num_parties(self) -> int:
        return self.plan.num_slots

    def group_family(self, group: int) -> SumZeroMasks:
        """Materialize (or fetch cached) one subgroup's sum-zero family."""
        family = self._cache.get(group)
        if family is None:
            family = SumZeroMasks.sample(
                len(self.plan.slots_in(group)),
                self.length,
                HmacDrbg(self.seeds[group], personalization="subgroup-masks"),
                modulus_bits=self.modulus_bits,
            )
            if len(self._cache) >= self.CACHE_GROUPS:
                self._cache.pop(next(iter(self._cache)))
            self._cache[group] = family
        return family

    def mask_for(self, party_index: int) -> tuple[int, ...]:
        group = self.plan.group_of(party_index)
        local = self.plan.local_index(party_index)
        return self.group_family(group).mask_for(local)

    @property
    def masks(self) -> tuple[tuple[int, ...], ...]:
        """All masks in slot order, rebuilt on every access (O(n·k)).

        The verifiable-blinding path commits to and seals every slot's
        mask, so round open expands the whole family once through here.
        The rows are fresh objects the family keeps no reference to (they
        bypass the cache): they are garbage as soon as the caller drops
        them, which the blinder does before ``open_round`` returns.
        """
        rows: list[tuple[int, ...] | None] = [None] * self.plan.num_slots
        for group in range(self.plan.num_groups):
            family = SumZeroMasks.sample(
                len(self.plan.slots_in(group)),
                self.length,
                HmacDrbg(self.seeds[group], personalization="subgroup-masks"),
                modulus_bits=self.modulus_bits,
            )
            for local, slot in enumerate(self.plan.slots_in(group)):
                rows[slot] = family.mask_for(local)
        return tuple(rows)  # type: ignore[arg-type]

    def verify_sum_zero(self) -> bool:
        """Each subgroup independently sums to zero (hence so does the whole)."""
        for group in range(self.plan.num_groups):
            if not self.group_family(group).verify_sum_zero():
                return False
        return True


def apply_mask(
    encoded: Sequence[int], mask: Sequence[int], modulus_bits: int = 64
) -> list[int]:
    """Blind an encoded contribution: ``y_i = x_i + p_i`` in the ring."""
    if len(encoded) != len(mask):
        raise ConfigurationError("mask length does not match vector length")
    return kernels.ring_add(encoded, mask, modulus_bits).tolist()


def remove_mask(
    blinded: Sequence[int], mask: Sequence[int], modulus_bits: int = 64
) -> list[int]:
    """Inverse of :func:`apply_mask` (used for dropout repair and tests)."""
    if len(blinded) != len(mask):
        raise ConfigurationError("mask length does not match vector length")
    return kernels.ring_sub(blinded, mask, modulus_bits).tolist()


@dataclass(frozen=True)
class EncryptedMask:
    """A mask encrypted to one client's key, tagged with the round it belongs to."""

    party_index: int
    round_id: int
    box: SealedBox


class BlindingService:
    """The trusted blinding service of §3.

    For each aggregation round it samples a fresh :class:`SumZeroMasks`
    family and encrypts mask ``i`` under client ``i``'s symmetric key (in
    the full system this key comes from an attested DH exchange with the
    client's Glimmer; see :mod:`repro.core.provisioning`).

    The service never learns contributions — it only produces masks — which
    is why the paper can afford to centralize it.
    """

    def __init__(
        self,
        rng: HmacDrbg,
        codec: FixedPointCodec | None = None,
    ) -> None:
        self._rng = rng
        self._codec = codec or FixedPointCodec()
        self._round_masks: dict[int, SumZeroMasks] = {}
        self._closed: set[int] = set()

    @property
    def codec(self) -> FixedPointCodec:
        return self._codec

    def open_round(self, round_id: int, num_parties: int, length: int) -> SumZeroMasks:
        """Sample the mask family for a round (idempotent per round id)."""
        self._require_unopened(round_id)
        masks = SumZeroMasks.sample(
            num_parties, length, self._rng.fork(f"round-{round_id}"),
            modulus_bits=self._codec.modulus_bits,
        )
        self._round_masks[round_id] = masks
        return masks

    def open_round_grouped(
        self, round_id: int, num_parties: int, length: int, subgroup_size: int
    ) -> GroupedSumZeroMasks:
        """Open a round with per-subgroup sum-zero families (hierarchical path).

        Mask state is O(subgroups) seeds instead of O(n·k) words; every
        later ``mask_for``/``mask_for_dropout`` touches one subgroup's
        O(g·k) family.  The flat :meth:`open_round` DRBG stream is
        untouched — grouped rounds fork a distinct label, so enabling
        subgrouping for one round never shifts another round's masks.
        """
        self._require_unopened(round_id)
        from repro.scale.subgroup import plan_subgroups

        plan = plan_subgroups(round_id, num_parties, subgroup_size)
        masks = GroupedSumZeroMasks.sample(
            plan, length, self._rng.fork(f"round-grouped-{round_id}"),
            modulus_bits=self._codec.modulus_bits,
        )
        self._round_masks[round_id] = masks
        return masks

    def has_round(self, round_id: int) -> bool:
        return round_id in self._round_masks

    def _refuse_closed(self, round_id: int) -> None:
        if round_id in self._closed:
            raise CryptoError(f"round {round_id} is closed")

    def _require_unopened(self, round_id: int) -> None:
        self._refuse_closed(round_id)
        if round_id in self._round_masks:
            raise CryptoError(f"round {round_id} already opened")

    def _open_masks(self, round_id: int) -> SumZeroMasks:
        masks = self._round_masks.get(round_id)
        if masks is None:
            self._refuse_closed(round_id)
            raise CryptoError(f"round {round_id} not opened")
        return masks

    def close_round(self, round_id: int) -> None:
        """The round is over: forget its masks for good (idempotent).

        §3's privacy argument holds only while ``p_i`` is not available
        next to the blinded ``y_i``, so a finished round's masks must not
        stay revealable.  Only the round id survives, as a tombstone that
        refuses re-opening, restoring and every later mask lookup.
        """
        self._round_masks.pop(round_id, None)
        self._closed.add(round_id)

    def restore_round(self, round_id: int, masks: SumZeroMasks) -> None:
        """Reinstate a round's mask family from durable (sealed) storage.

        A blinding service restarted mid-round must still be able to
        reveal dropout masks for §3 repair — this is the recovery half of
        that story; :class:`repro.core.provisioning.BlinderProvisioner`
        owns the sealing half.  Restoring a round that is already live
        with *different* masks is refused: that would split the sum-zero
        family and silently corrupt the aggregate.
        """
        self._refuse_closed(round_id)
        existing = self._round_masks.get(round_id)
        if existing is not None:
            if existing != masks:
                raise CryptoError(
                    f"round {round_id} already open with different masks"
                )
            return
        if not masks.verify_sum_zero():
            raise CryptoError(f"restored masks for round {round_id} do not sum to zero")
        self._round_masks[round_id] = masks

    def encrypted_mask(
        self, round_id: int, party_index: int, client_key: bytes
    ) -> EncryptedMask:
        """Encrypt party ``i``'s mask under its key, bound to the round id."""
        mask = self._open_masks(round_id).mask_for(party_index)
        payload = kernels.be_words_to_bytes(mask)
        cipher = AuthenticatedCipher(client_key)
        nonce = self._rng.generate(16)
        associated = round_id.to_bytes(8, "big") + party_index.to_bytes(4, "big")
        return EncryptedMask(
            party_index=party_index,
            round_id=round_id,
            box=cipher.encrypt(nonce, payload, associated_data=associated),
        )

    @staticmethod
    def decrypt_mask(encrypted: EncryptedMask, client_key: bytes) -> tuple[int, ...]:
        """Client-side decryption; raises on tampering or round/party mismatch."""
        cipher = AuthenticatedCipher(client_key)
        associated = encrypted.round_id.to_bytes(8, "big") + encrypted.party_index.to_bytes(
            4, "big"
        )
        payload = cipher.decrypt(encrypted.box, associated_data=associated)
        if len(payload) % 8 != 0:
            raise CryptoError("mask payload has invalid length")
        return kernels.bytes_to_be_words(payload)

    def mask_for(self, round_id: int, party_index: int) -> tuple[int, ...]:
        """The raw mask for one party in one round (provisioning-side view)."""
        return self._open_masks(round_id).mask_for(party_index)

    def mask_for_dropout(self, round_id: int, party_index: int) -> tuple[int, ...]:
        """Reveal a dropped-out party's mask so the round sum stays exact.

        With the §3 scheme, if client ``i`` never submits, the service's sum
        is off by ``p_i`` (because Σp = 0); the blinding service can
        disclose just that mask (learning nothing about submitted
        contributions) to repair the round.
        """
        return self.mask_for(round_id, party_index)
