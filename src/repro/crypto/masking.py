"""Sum-zero additive blinding — the exact construction of §3 of the paper.

    "Assume the existence of a trusted blinding service ... that computes N
    random blinding values p_i such that Σ p_i = 0.  It then seals each p_i
    value to the Glimmer code, and encrypts one of the sealed values to each
    of N clients' public keys ... The Blinding component then computes the
    blinded user contribution y_i = x_i + p_i."

:class:`BlindingService` plays that trusted third party: it samples ``N``
mask vectors summing to zero in ``Z/2^64`` — the one ring of every mask,
commitment and sum, so no party chooses it — and hands each out encrypted
to a per-client key.  :class:`SumZeroMasks` is the client-side arithmetic.

The paper notes the blinding service "could, itself, be implemented as a
separate enclave on one of the clients"; :mod:`repro.core.provisioning`
hosts this service inside a simulated enclave and handles the sealing leg.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec
from repro.errors import ConfigurationError, CryptoError
from repro.perf import kernels


#: Domain tag of the SHAKE256 stream a sum-zero family is expanded from.
_MASK_STREAM_TAG = b"sum-zero-masks"
_SEED_SIZE = 32


@dataclass(frozen=True)
class SumZeroMasks:
    """A family of N ring vectors whose component-wise sum is zero.

    Each mask is a read-only row of packed big-endian u64 words, the form
    every ring vector takes on the bus: 8 bytes a word, from expansion
    through commitment, opening and dropout repair.
    """

    masks: tuple[bytes, ...]

    @classmethod
    def sample(cls, num_parties: int, length: int, rng: HmacDrbg) -> "SumZeroMasks":
        """Sample N masks with Σ_i masks[i] ≡ 0 (mod 2^64), per component.

        One 32-byte seed drawn from ``rng`` keys a SHAKE256 stream; its
        first ``8·length·(N−1)`` bytes are the first N−1 masks, already
        packed words.  The last mask is the ring negation of their sum,
        which makes the family jointly uniform subject to the sum-zero
        constraint.  Scalar twin: ``sample_sum_zero_scalar``, in the
        parity tests' ``reference`` module (``tests/perf/``).
        """
        if num_parties < 1:
            raise ConfigurationError("need at least one party")
        if length < 1:
            raise ConfigurationError("mask length must be positive")
        seed = rng.generate(_SEED_SIZE)
        stream = hashlib.shake_256(_MASK_STREAM_TAG + seed).digest(
            8 * length * (num_parties - 1)
        )
        words = kernels.be_words(stream).reshape(num_parties - 1, length)
        last = kernels.ring_neg(words.sum(axis=0, dtype=np.uint64))
        rows = [kernels.be_words_to_bytes(row) for row in (*words, last)]
        return cls(masks=tuple(rows))

    def mask_for(self, party_index: int) -> bytes:
        """One party's mask, as its packed row."""
        return self.masks[party_index]

    def verify_sum_zero(self) -> bool:
        """The sum-zero invariant, checked by tests and by :class:`GroupedSumZeroMasks`.

        Chunked accumulation (:func:`repro.perf.kernels.ring_accumulate`)
        keeps the check's peak memory bounded even for large families —
        the full row-major matrix is never needed for a sum.
        """
        totals = kernels.ring_accumulate(self.masks)
        return not totals.any()


class GroupedSumZeroMasks:
    """Per-subgroup sum-zero mask families, materialized on demand.

    Every blinded round's masks: an *independent* sum-zero family inside
    each subgroup of a :class:`repro.scale.subgroup.SubgroupPlan`, a flat
    round being the one-group plan ``plan_subgroups(r, n, n)``.  Every
    subgroup sums to zero, so the cohort sums to zero, and the aggregate
    is bit-identical for any grouping — the parity gate is the aggregate,
    not the mask stream.  The family is its seeds: one 32-byte seed per
    subgroup, from which a subgroup's :class:`SumZeroMasks` is re-expanded
    only when a slot in it is committed, provisioned or repaired.  A small
    FIFO cache keeps the hot subgroups warm, so between round open and
    round close the family holds at most ``CACHE_GROUPS`` · g · k mask
    words, and §3 dropout repair touches O(g) of them.
    """

    #: Materialized subgroups kept warm per family.
    CACHE_GROUPS = 4

    def __init__(self, plan, seeds: tuple[bytes, ...], length: int) -> None:
        if len(seeds) != plan.num_groups:
            raise ConfigurationError("one seed per subgroup required")
        self.plan = plan
        self.seeds = seeds
        self.length = length
        self._cache: dict[int, SumZeroMasks] = {}

    @classmethod
    def sample(cls, plan, length: int, rng: HmacDrbg) -> "GroupedSumZeroMasks":
        """Draw one independent seed per subgroup from the round's DRBG."""
        if length < 1:
            raise ConfigurationError("mask length must be positive")
        seeds = tuple(rng.generate(32) for _ in range(plan.num_groups))
        return cls(plan, seeds, length)

    def _identity(self) -> tuple:
        plan = self.plan
        return (
            plan.round_id, plan.num_slots, plan.group_size, self.seeds, self.length
        )

    def __eq__(self, other) -> bool:
        """Same plan, seeds and shape: the same masks, without expanding them."""
        if not isinstance(other, GroupedSumZeroMasks):
            return NotImplemented
        return self._identity() == other._identity()

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
            )
            if len(self._cache) >= self.CACHE_GROUPS:
                self._cache.pop(next(iter(self._cache)))
            self._cache[group] = family
        return family

    def mask_for(self, party_index: int) -> bytes:
        group = self.plan.group_of(party_index)
        local = self.plan.local_index(party_index)
        return self.group_family(group).mask_for(local)

    @property
    def masks(self) -> tuple[bytes, ...]:
        """All masks in slot order, every subgroup through :meth:`group_family`.

        O(n·k): committing a round needs every slot's mask once.  The
        rows are the warm families' own, so the subgroups still cached
        afterwards — the whole family of a one-group flat round — serve
        the first deliveries without expanding again.
        """
        rows: list[bytes | None] = [None] * self.plan.num_slots
        for group in range(self.plan.num_groups):
            family = self.group_family(group)
            for local, slot in enumerate(self.plan.slots_in(group)):
                rows[slot] = family.mask_for(local)
        return tuple(rows)  # type: ignore[arg-type]

    def verify_sum_zero(self) -> bool:
        """Each subgroup independently sums to zero (hence so does the whole)."""
        for group in range(self.plan.num_groups):
            if not self.group_family(group).verify_sum_zero():
                return False
        return True


def apply_mask(encoded: Sequence[int], mask: Sequence[int]) -> list[int]:
    """Blind an encoded contribution: ``y_i = x_i + p_i`` in the ring.

    Either side may be packed words (:func:`repro.perf.kernels.as_ring`).
    """
    encoded, mask = kernels.as_ring(encoded), kernels.as_ring(mask)
    if len(encoded) != len(mask):
        raise ConfigurationError("mask length does not match vector length")
    return kernels.ring_add(encoded, mask).tolist()


def remove_mask(blinded: Sequence[int], mask: Sequence[int]) -> list[int]:
    """Inverse of :func:`apply_mask` (used for dropout repair and tests)."""
    blinded, mask = kernels.as_ring(blinded), kernels.as_ring(mask)
    if len(blinded) != len(mask):
        raise ConfigurationError("mask length does not match vector length")
    return kernels.ring_sub(blinded, mask).tolist()


class BlindingService:
    """The trusted blinding service of §3.

    For each aggregation round it samples a fresh sum-zero family, a
    :class:`GroupedSumZeroMasks` (one subgroup for a flat round), and
    answers per-slot mask lookups.  Sealing each mask to its client's
    Glimmer over an attested DH exchange is
    :class:`repro.core.provisioning.BlinderProvisioner`'s part.

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
        self._round_masks: dict[int, GroupedSumZeroMasks] = {}
        self._closed: set[int] = set()

    @property
    def codec(self) -> FixedPointCodec:
        return self._codec

    def open_round(
        self, round_id: int, num_parties: int, length: int
    ) -> GroupedSumZeroMasks:
        """Sample a flat round's masks: one subgroup of every slot."""
        return self.open_round_grouped(round_id, num_parties, length, num_parties)

    def open_round_grouped(
        self, round_id: int, num_parties: int, length: int, subgroup_size: int
    ) -> GroupedSumZeroMasks:
        """Open a round whose masks sum to zero inside every subgroup of
        ``plan_subgroups(round_id, num_parties, subgroup_size)``.

        Mask state is one 32-byte seed per subgroup; every later
        ``mask_for``/``mask_for_dropout`` touches one subgroup's O(g·k)
        family.
        """
        self._require_unopened(round_id)
        from repro.scale.subgroup import plan_subgroups

        plan = plan_subgroups(round_id, num_parties, subgroup_size)
        masks = GroupedSumZeroMasks.sample(
            plan, length, self._rng.fork(f"round-grouped-{round_id}")
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

    def _open_masks(self, round_id: int) -> GroupedSumZeroMasks:
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

    def restore_round(self, round_id: int, masks: GroupedSumZeroMasks) -> None:
        """Reinstate a round's mask family from durable (sealed) storage.

        A blinding service restarted mid-round must still be able to
        reveal dropout masks for §3 repair — this is the recovery half of
        that story; :class:`repro.core.provisioning.BlinderProvisioner`
        owns the sealing half.  A family re-expanded from its seeds sums
        to zero by construction.  Restoring a round that is already live
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
        self._round_masks[round_id] = masks

    def mask_for(self, round_id: int, party_index: int) -> bytes:
        """The raw mask for one party in one round (provisioning-side view),
        as packed words."""
        return self._open_masks(round_id).mask_for(party_index)

    def mask_for_dropout(self, round_id: int, party_index: int) -> bytes:
        """Reveal a dropped-out party's mask so the round sum stays exact.

        With the §3 scheme, if client ``i`` never submits, the service's sum
        is off by ``p_i`` (because Σp = 0); the blinding service can
        disclose just that mask (learning nothing about submitted
        contributions) to repair the round.
        """
        return self.mask_for(round_id, party_index)
