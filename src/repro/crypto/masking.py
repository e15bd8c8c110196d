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

A mask is held and sent as its :class:`MaskShare`: every slot but the last
of a family by its own 32-byte seed, which :func:`expand_seed` turns into
the row where the row is used, and the last slot by its words, the ring
negation of the others' sum.  Slot seeds are derived one-way from the
family's seed (:func:`slot_seed`), so one slot's seed reveals no other
slot's row (Bonawitz et al., CCS 2017, expand PRG seeds the same way).

The paper notes the blinding service "could, itself, be implemented as a
separate enclave on one of the clients"; :mod:`repro.core.provisioning`
hosts this service inside a simulated enclave and handles the sealing leg.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.codec import LENGTH, Bytes, Optional, Packed, wire
from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec
from repro.crypto.hashing import hash_bytes
from repro.errors import ConfigurationError, CryptoError, MaskVerificationError
from repro.perf import kernels


#: Domain tag of the SHAKE256 stream a slot's row is expanded from.
_MASK_STREAM_TAG = b"sum-zero-masks"
SEED_SIZE = 32


def slot_seed(family_seed: bytes, index: int) -> bytes:
    """Slot ``index``'s 32-byte seed: ``SHA-256`` of the family's seed and
    the index, under its own domain, so it reveals neither the family's
    seed nor any other slot's."""
    return hash_bytes("sum-zero-slot-seed", family_seed + index.to_bytes(4, "big"))


def expand_seed(seed: bytes, length: int) -> bytes:
    """The row a slot seed keys: the first ``8·length`` bytes of
    ``SHAKE256(b"sum-zero-masks" ‖ seed)``, already packed words."""
    return hashlib.shake_256(_MASK_STREAM_TAG + seed).digest(8 * length)


@wire(0x8119, length=LENGTH, seed=Optional(Bytes(SEED_SIZE)), words=Optional(Packed()))
@dataclass(frozen=True)
class MaskShare:
    """One slot's mask as every party holds and sends it: its ``length``
    and either its 32-byte ``seed`` or, for a family's last slot, its
    ``words`` (packed big-endian u64).  :meth:`row` is the mask itself."""

    length: int
    seed: bytes | None = None
    words: bytes | None = None

    def row(self) -> bytes:
        """The mask as packed words: the seed expanded, or the words.

        A share that is not exactly one of the two, or whose words are not
        ``length`` of them, is :class:`~repro.errors.MaskVerificationError`
        — only a blinder can have made it.
        """
        if self.words is None:
            if self.seed is None:
                raise MaskVerificationError("a mask share holds neither seed nor words")
            return expand_seed(self.seed, self.length)
        if self.seed is not None:
            raise MaskVerificationError("a mask share holds both a seed and words")
        if len(self.words) != 8 * self.length:
            raise MaskVerificationError(
                f"a mask share of {len(self.words)} bytes is not {self.length} words"
            )
        return self.words


@dataclass(frozen=True)
class SumZeroMasks:
    """A family of N ring vectors whose component-wise sum is zero.

    The family is its :class:`MaskShare`\\ s: a seed for every slot but the
    last, the last slot's words.  No row is held: whoever uses one expands
    it from its share (:meth:`MaskShare.row`).
    """

    shares: tuple[MaskShare, ...]

    @classmethod
    def sample(cls, num_parties: int, length: int, rng: HmacDrbg) -> "SumZeroMasks":
        """Sample N masks with Σ_i masks[i] ≡ 0 (mod 2^64), per component.

        One 32-byte family seed drawn from ``rng`` keys slot ``j < N−1``'s
        seed, :func:`slot_seed`, and its row, :func:`expand_seed`.  The
        last mask is the ring negation of their sum, folded one row at a
        time, which makes the family jointly uniform subject to the
        sum-zero constraint.  Scalar twin: ``sample_sum_zero_scalar``, in
        the parity tests' ``reference`` module (``tests/perf/``).
        """
        if num_parties < 1:
            raise ConfigurationError("need at least one party")
        if length < 1:
            raise ConfigurationError("mask length must be positive")
        family_seed = rng.generate(SEED_SIZE)
        seeded = tuple(
            MaskShare(length, seed=slot_seed(family_seed, j)) for j in range(num_parties - 1)
        )
        total = np.zeros(length, dtype=np.uint64)
        for share in seeded:
            total += kernels.be_words(share.row())
        last = MaskShare(length, words=kernels.be_words_to_bytes(kernels.ring_neg(total)))
        return cls(shares=(*seeded, last))

    def share_for(self, party_index: int) -> MaskShare:
        """One party's mask as it is handed out."""
        return self.shares[party_index]

    def verify_sum_zero(self) -> bool:
        """The sum-zero invariant, checked by tests and by :class:`GroupedSumZeroMasks`.

        Chunked accumulation (:func:`repro.perf.kernels.ring_accumulate`)
        over rows expanded as they are summed keeps the check's peak
        memory bounded even for large families — the full row-major
        matrix is never needed for a sum.
        """
        totals = kernels.ring_accumulate(share.row() for share in self.shares)
        return not totals.any()


class GroupedSumZeroMasks:
    """Per-subgroup sum-zero mask families, kept as their shares.

    Every blinded round's masks: an *independent* sum-zero family inside
    each subgroup of a :class:`repro.scale.subgroup.SubgroupPlan`, a flat
    round being the one-group plan ``plan_subgroups(r, n, n)``.  Every
    subgroup sums to zero, so the cohort sums to zero, and the aggregate
    is bit-identical for any grouping — the parity gate is the aggregate,
    not the mask stream.  The family is its seeds: one 32-byte seed per
    subgroup, from which a subgroup's :class:`SumZeroMasks` is derived the
    first time a slot in it is committed, provisioned or repaired, and
    then kept: its slot seeds and its last slot's words, one row per
    subgroup.  No other row is held; each is expanded where it is used.
    """

    def __init__(self, plan, seeds: tuple[bytes, ...], length: int) -> None:
        if len(seeds) != plan.num_groups:
            raise ConfigurationError("one seed per subgroup required")
        self.plan = plan
        self.seeds = seeds
        self.length = length
        self._families: dict[int, SumZeroMasks] = {}

    @classmethod
    def sample(cls, plan, length: int, rng: HmacDrbg) -> "GroupedSumZeroMasks":
        """Draw one independent seed per subgroup from the round's DRBG."""
        if length < 1:
            raise ConfigurationError("mask length must be positive")
        seeds = tuple(rng.generate(SEED_SIZE) for _ in range(plan.num_groups))
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
        """One subgroup's sum-zero family, as its shares (derived once)."""
        family = self._families.get(group)
        if family is None:
            family = SumZeroMasks.sample(
                len(self.plan.slots_in(group)),
                self.length,
                HmacDrbg(self.seeds[group], personalization="subgroup-masks"),
            )
            self._families[group] = family
        return family

    def share_for(self, party_index: int) -> MaskShare:
        group = self.plan.group_of(party_index)
        return self.group_family(group).share_for(self.plan.local_index(party_index))

    @property
    def shares(self) -> tuple[MaskShare, ...]:
        """Every slot's share, in slot order: what a round commits to."""
        return tuple(self.share_for(slot) for slot in range(self.plan.num_slots))

    def verify_sum_zero(self) -> bool:
        """Each subgroup independently sums to zero (hence so does the whole)."""
        for group in range(self.plan.num_groups):
            if not self.group_family(group).verify_sum_zero():
                return False
        return True


def apply_mask(encoded: Sequence[int], mask: Sequence[int]) -> list[int]:
    """Blind an encoded contribution: ``y_i = x_i + p_i`` in the ring.

    Either side may be packed words (:func:`repro.perf.kernels.as_ring`);
    a mask held as its :class:`MaskShare` is passed as :meth:`MaskShare.row`.
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

        Mask state is one 32-byte seed per subgroup, and once a subgroup
        is touched its slot seeds and last row; every later
        ``mask_for``/``mask_for_dropout`` hands out one slot's share.
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

    def mask_for(self, round_id: int, party_index: int) -> MaskShare:
        """One party's mask in one round (provisioning-side view), as the
        share it is handed out as: its seed, or a last slot's words."""
        return self._open_masks(round_id).share_for(party_index)

    def mask_for_dropout(self, round_id: int, party_index: int) -> MaskShare:
        """Reveal a dropped-out party's mask so the round sum stays exact.

        With the §3 scheme, if client ``i`` never submits, the service's sum
        is off by ``p_i`` (because Σp = 0); the blinding service can
        disclose just that mask (learning nothing about submitted
        contributions) to repair the round.  It is disclosed as its share;
        whoever repairs expands it.
        """
        return self.mask_for(round_id, party_index)
