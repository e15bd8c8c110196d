"""The Blinding component inside the Glimmer.

§3's construction: a trusted blinding service distributes per-client mask
vectors summing to zero; the Glimmer's Blinding component "computes the
blinded user contribution y_i = x_i + p_i", which is safe to reveal because
the mask is secret, yet sums of all clients' blinded vectors equal the sum
of the true contributions.

Masks arrive encrypted (to a key only the attested Glimmer holds) and are
single-use: re-using a mask across rounds would let the service difference
two contributions, so the component destroys each mask after use, refuses
to install a mask it has seen before (a lying blinding service replaying
last round's family is detected right here), and purges all state for a
round when the engine closes it — a long-lived Glimmer's mask table stays
bounded by its *open* rounds, not its lifetime.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.fixedpoint import FixedPointCodec
from repro.crypto.hashing import hash_items
from repro.crypto.masking import MaskShare, apply_mask
from repro.errors import (
    ConfigurationError,
    CryptoError,
    MaskVerificationError,
    ValidationError,
)
from repro.perf import kernels

#: How many past mask digests the reuse check remembers (FIFO-capped so a
#: device Glimmer that lives for years keeps O(1) memory, while still
#: catching the realistic attack: a blinder replaying a *recent* family).
MASK_DIGEST_HISTORY = 1024


class BlindingComponent:
    """Applies sum-zero masks to fixed-point-encoded contributions.

    Masks are keyed by ``(round_id, party_index)``: an on-device Glimmer
    holds a single party's mask per round, while a shared remote Glimmer
    (§4.2) may hold one per client it serves.  A mask is held as the
    :class:`~repro.crypto.masking.MaskShare` it was delivered as — a
    32-byte seed, or a last slot's words — beside the width its round's
    words cross at, which the engine decided at open
    (:func:`~repro.crypto.fixedpoint.ring_width`) and the Glimmer held to
    its own bound before installing.  The share is expanded once per use:
    by the install's opening check, whose row the reuse digest reads, and
    again in :meth:`blind`; only the blinded words are narrowed to that
    width.  Reduction mod ``2^width`` keeps the family's sum zero, so
    the narrowed masks still cancel.
    """

    def __init__(self) -> None:
        self.codec = FixedPointCodec()
        self._masks: dict[tuple[int, int], tuple[int, MaskShare]] = {}
        self._seen_digests: dict[bytes, tuple[int, int]] = {}

    def install_mask(
        self,
        round_id: int,
        party_index: int,
        share: MaskShare,
        row: bytes,
        width: int,
    ) -> None:
        """Store a delivered mask for one (round, party) as its ``share``,
        with the ``width`` its round's words cross at.

        ``row`` is the share expanded, as the opening check that admitted
        it built it.  Rejects double install for a slot, and rejects —
        with :class:`~repro.errors.MaskVerificationError` — any mask whose
        row this component has seen before under a *different* (round,
        party): mask reuse lets the blinding service difference two of
        this client's contributions.  The digest is over the row, not the
        share, so one row delivered as a seed in one round and as words in
        another is still caught.  Only the share is kept.
        """
        key = (round_id, party_index)
        if key in self._masks:
            raise CryptoError(
                f"mask for round {round_id} party {party_index} already installed"
            )
        if row.count(0) != len(row):
            # The all-zero mask is exempt: a single-party round's sum-zero
            # family is forced to it, so it legitimately recurs — and it
            # blinds nothing, so reusing it differences nothing new.
            digest = hash_items("blinding-mask-reuse", [row])
            prior = self._seen_digests.get(digest)
            if prior is not None and prior != key:
                raise MaskVerificationError(
                    f"mask for round {round_id} party {party_index} was already "
                    f"used in round {prior[0]} (blinding service reused a mask)"
                )
            if prior is None:
                if len(self._seen_digests) >= MASK_DIGEST_HISTORY:
                    oldest = next(iter(self._seen_digests))
                    del self._seen_digests[oldest]
                self._seen_digests[digest] = key
        self._masks[key] = (width, share)

    def has_mask(self, round_id: int, party_index: int = 0) -> bool:
        return (round_id, party_index) in self._masks

    def masks_for_round(self, round_id: int) -> dict[int, tuple[int, MaskShare]]:
        """Snapshot the unconsumed masks of one round, each as its share
        beside its width (for sealed checkpoints)."""
        return {
            party: held for (rid, party), held in self._masks.items() if rid == round_id
        }

    def restore_masks(
        self, round_id: int, masks: dict[int, tuple[int, MaskShare]]
    ) -> None:
        """Reinstall checkpointed mask shares, each beside its width, after
        an enclave restart.

        Only fills empty slots: a mask that is already installed (or was
        consumed since the checkpoint) is left alone, preserving the
        single-use rule.  Restored masks bypass the reuse check — they are
        this component's own prior installs coming back from sealed
        storage, not fresh deliveries.
        """
        for party_index, held in masks.items():
            self._masks.setdefault((round_id, int(party_index)), held)

    def purge_round(self, round_id: int) -> int:
        """Destroy every mask held for a finalized/aborted round.

        Returns how many masks were dropped.  Without this, a long-lived
        Glimmer that provisions but never consumes (dropout rounds,
        aborted rounds) grows ``_masks`` without bound.
        """
        stale = [key for key in self._masks if key[0] == round_id]
        for key in stale:
            del self._masks[key]
        return len(stale)

    def blind(
        self, round_id: int, party_index: int, values: Sequence[float]
    ) -> bytes:
        """Encode and mask a contribution; consumes the party's round mask.

        Returns the blinded words packed for the wire at the mask's width
        (:func:`~repro.perf.kernels.pack_words`): the bytes the signature
        covers and the service folds.  A contribution of the wrong length,
        or with a value the codec cannot carry, is refused
        (:class:`ValidationError`) before the mask is taken, so the slot
        stays unconsumed and repairable.
        """
        key = (round_id, party_index)
        held = self._masks.get(key)
        if held is None:
            raise CryptoError(
                f"no blinding mask installed for round {round_id} party {party_index}"
            )
        width, share = held
        if share.length != len(values):
            raise ValidationError(
                f"contribution length {len(values)} does not match the round's "
                f"mask length {share.length}"
            )
        try:
            encoded = self.codec.encode(values)
        except ConfigurationError as exc:
            raise ValidationError(str(exc)) from None
        del self._masks[key]
        return kernels.pack_words(apply_mask(encoded, share.row()), width)
