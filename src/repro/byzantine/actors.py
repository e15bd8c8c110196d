"""Deterministic Byzantine actors: lying blinder, tampering aggregator, attacker.

Each actor wraps the honest implementation and lies in exactly one
configured way, so every experiment row names precisely which defence
caught it:

* :class:`AttackerEndpoint` is a client's bus endpoint whose owner plays
  an :class:`~repro.byzantine.plan.AttackPlan`: told to contribute, it
  forges, floods, replays or equivocates under its own name — caught by
  the service's signature check, the monitor's gates, and eviction at
  finalize — and is the honest endpoint whenever the plan leaves it alone.
* :class:`LyingBlinder` wraps a
  :class:`~repro.core.provisioning.BlinderProvisioner`.  Its
  ``tamper-delivery`` mode is caught by the client Glimmer's per-slot
  opening check at install; ``tamper-reveal`` by the engine's
  commitment check on repair masks; ``forged-claims`` — the strongest
  lie, a non-sum-zero family behind internally consistent commitments —
  by the engine's homomorphic sum-zero check at finalize.  The two
  downgrades — ``withhold-commitments`` (ack the open, publish nothing)
  and ``bare-reveal`` (tampered repair words, no opening) — try to opt
  out of those checks instead of beating them; the engine blames the
  missing set at open and the missing opening at finalize.
* :class:`TamperingAggregator` wraps a
  :class:`~repro.core.service.CloudService` and mutates its finalize
  result; every mode is caught by the engine's result audit
  (nonce/count/signature cross-checks plus bit-exact recomputation),
  ``strip-audit-trail`` included: a corrupted aggregate returned with
  no trail to recompute it from.

Every actor draws its perturbations from an :class:`HmacDrbg` (the
attacker from its device's own), so an attack schedule replays
identically under the same seed.
"""

from __future__ import annotations

import dataclasses
from contextlib import suppress

import numpy as np

from repro.byzantine.plan import (
    ATTACK_BLINDER_BARE_REVEAL,
    ATTACK_BLINDER_FORGED_CLAIMS,
    ATTACK_BLINDER_TAMPER_DELIVERY,
    ATTACK_BLINDER_TAMPER_REVEAL,
    ATTACK_BLINDER_WITHHOLD_COMMITMENTS,
    ATTACK_EQUIVOCATE,
    ATTACK_FLOOD,
    ATTACK_FORGE,
    ATTACK_REPLAY,
    ATTACK_SERVICE_CORRUPT,
    ATTACK_SERVICE_DUPLICATE,
    ATTACK_SERVICE_MISCOUNT,
    ATTACK_SERVICE_OMIT,
    ATTACK_SERVICE_STRIP_TRAIL,
    BLINDER_ATTACKS,
    SERVICE_ATTACKS,
    AttackPlan,
)
from repro.core.client import MaliciousClient
from repro.core.signing import SignedContribution
from repro.crypto.commitments import (
    MaskCommitmentSet,
    MaskOpening,
    hash_commitment,
    pedersen_generators,
    scalar_for_mask,
)
from repro.crypto.drbg import HmacDrbg
from repro.crypto.masking import MaskShare
from repro.errors import ConfigurationError, NetworkError
from repro.perf import kernels
from repro.runtime.endpoints import ClientEndpoint
from repro.runtime.protocol import FLOOD_THRESHOLD
from repro.runtime.telemetry import OUTCOME_SUBMIT_FAILED


def forged_contribution(client, round_id: int, values, width: int) -> SignedContribution:
    """A contribution in the honest wire shape of a round whose words cross
    at ``width`` bits, signed with a made-up key.

    :meth:`MaliciousClient.bypass_glimmer`, run on any client device — an
    attacker does not need a special build of the client software to put
    bytes on the wire.
    """
    return MaliciousClient.bypass_glimmer(client, round_id, values, width)


class AttackerEndpoint(ClientEndpoint):
    """A client device whose owner plays ``plan`` when told to contribute.

    Forging and flooding never touch the Glimmer: self-signed bytes
    answer the command.  Replaying and equivocating ride the honest
    contribution — same Glimmer, fault sites and recovery — and add one
    more submission behind it.  A move the weather eats is just lost.
    """

    def __init__(self, engine, client, name: str, plan: AttackPlan) -> None:
        super().__init__(engine, client, name)
        self.plan = plan
        #: The owner's copy of its own input for the round it plays, read
        #: before the honest step lets go of the store's: forgeries and
        #: rivals are made from it.
        self._values = None

    def _attack(self, round_id: int) -> str | None:
        spec = self.plan.client_attack(round_id, self.client.client_id)
        return None if spec is None else spec.kind

    def _forge(self, command, record, bump: float = 0.0) -> None:
        forged = forged_contribution(
            self.client, command.round_id, self._values + bump, record.width
        )
        super()._submit(command, forged)

    def _contribute(self, command, record):
        kind = self._attack(command.round_id)
        if kind is not None:
            self._values = kernels.be_doubles(self.client.data.vector_for(command.round_id))
        if kind not in (ATTACK_FORGE, ATTACK_FLOOD):
            return super()._contribute(command, record)
        with suppress(NetworkError):
            for index in range(FLOOD_THRESHOLD + 1 if kind == ATTACK_FLOOD else 1):
                self._forge(command, record, float(index))
        return OUTCOME_SUBMIT_FAILED, None

    def _submit(self, command, signed) -> bool:
        accepted = super()._submit(command, signed)
        kind = self._attack(command.round_id)
        with suppress(NetworkError):
            if kind == ATTACK_REPLAY:
                super()._submit(command, signed)
            elif kind == ATTACK_EQUIVOCATE:
                self._forge(command, self.engine.round_record(command.round_id))
        return accepted


class LyingBlinder:
    """A Byzantine blinding service: honest machinery, one configured lie.

    It lies only through its own surface.  The forged-claims mode keeps
    ``(slot, delta)`` per round and shifts that slot's opening wherever
    one leaves the wrapper — :meth:`mask_opening`, :meth:`provision_mask`
    and :meth:`reveal_dropout_mask` — so the honest blinder it wraps, and
    what that blinder seals, stay honest.
    """

    def __init__(
        self,
        inner,
        mode: str,
        *,
        target_slot: int = 0,
        rng: HmacDrbg | None = None,
    ) -> None:
        if mode not in BLINDER_ATTACKS:
            raise ConfigurationError(f"unknown blinder attack mode {mode!r}")
        self.inner = inner
        self.mode = mode
        self.target_slot = target_slot
        self.rng = rng or HmacDrbg(b"lying-blinder")
        self.lies_told = 0
        #: round -> (slot, delta, forged commitment set)
        self._forged: dict[int, tuple[int, int, MaskCommitmentSet]] = {}

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _delta(self) -> int:
        return 1 + self.rng.randint((1 << 16) - 1)

    def _tampered(self, opening: MaskOpening) -> MaskOpening:
        """The same opening with one mask word shifted by a fresh delta."""
        self.lies_told += 1
        return _shifted(opening, self._delta())

    # ---------------------------------------------------------- lying surface

    def round_commitments(self, round_id):
        honest = self.inner.round_commitments(round_id)
        forged = self._forged.get(round_id)
        return honest if forged is None else forged[2]

    def mask_opening(self, round_id, party_index):
        opening = self.inner.mask_opening(round_id, party_index)
        forged = self._forged.get(round_id)
        if forged is None or forged[0] != party_index:
            return opening
        return _shifted(opening, forged[1])

    def provision_mask(
        self, session_id, glimmer_dh_public, quote, round_id, party_index
    ):
        # Same channel and wire format as the honest path — a full attested
        # delivery, or one in the device's live session — only the mask
        # inside the authenticated ciphertext may differ from the committed one.
        opening = self.mask_opening(round_id, party_index)
        if (
            self.mode == ATTACK_BLINDER_TAMPER_DELIVERY
            and party_index == self.target_slot
        ):
            opening = self._tampered(opening)
        return self.inner.deliver_opening(
            session_id, glimmer_dh_public, quote, round_id, party_index, opening
        )

    def reveal_dropout_mask(self, round_id, party_index):
        opening = self.mask_opening(round_id, party_index)
        if self.mode == ATTACK_BLINDER_TAMPER_REVEAL:
            return self._tampered(opening)
        if self.mode == ATTACK_BLINDER_BARE_REVEAL:
            return self._tampered(opening).share.row()
        return opening

    def open_round(self, round_id, num_parties, length, subgroup_size=0):
        honest = self.inner.open_round(round_id, num_parties, length, subgroup_size)
        if self.mode == ATTACK_BLINDER_WITHHOLD_COMMITMENTS:
            self.lies_told += 1
            return True
        if self.mode != ATTACK_BLINDER_FORGED_CLAIMS:
            return honest
        return self._forge_round(round_id, honest)

    def _forge_round(
        self, round_id: int, honest: MaskCommitmentSet
    ) -> MaskCommitmentSet:
        """Corrupt one mask word, then claim the *honest* column sums.

        The forged set is internally consistent everywhere a per-slot
        check looks: hash commitments and Pedersen points are computed
        over the corrupted masks, so structural validation at round open
        and every client's opening check at install both pass.  Only the
        claimed limb-column sums are a lie — they still belong to the
        original sum-zero family — which is exactly what the engine's
        homomorphic sum-zero check over the points exposes at finalize.
        """
        slot = min(self.target_slot, honest.num_slots - 1)
        delta = self._delta()
        openings = [
            self.inner.mask_opening(round_id, index)
            for index in range(honest.num_slots)
        ]
        openings[slot] = _shifted(openings[slot], delta)
        forged = _forge_commitments(
            self.inner.identity.group,
            honest,
            [opening.share.row() for opening in openings],
            [opening.salt for opening in openings],
            [opening.randomizer for opening in openings],
        )
        self._forged[round_id] = (slot, delta, forged)
        self.lies_told += 1
        return forged


def _shifted(opening: MaskOpening, delta: int) -> MaskOpening:
    """The same opening with its first mask word shifted by ``delta``: its
    share is the shifted row's words, whatever it was."""
    share = opening.share
    row = share.row()
    first = (int.from_bytes(row[:8], "big") + delta) % (1 << 64)
    words = first.to_bytes(8, "big") + row[8:]
    return dataclasses.replace(opening, share=MaskShare(share.length, words=words))


def _forge_commitments(
    group, honest: MaskCommitmentSet, masks, salts, randomizers
) -> MaskCommitmentSet:
    """A commitment set over ``masks`` that claims ``honest``'s column sums."""
    hash_commitments = tuple(
        hash_commitment(honest.round_id, slot, masks[slot], salts[slot])
        for slot in range(len(masks))
    )
    partial = dataclasses.replace(
        honest, hash_commitments=hash_commitments, points=(), randomizer_sum=0
    )
    h, u = pedersen_generators(group)
    weights = partial.weights()
    points = tuple(
        (
            group.power(h, scalar_for_mask(partial, masks[slot], weights))
            * group.power(u, randomizers[slot])
        )
        % group.prime
        for slot in range(len(masks))
    )
    return dataclasses.replace(
        partial,
        points=points,
        randomizer_sum=sum(randomizers) % group.subgroup_order,
    )


class TamperingAggregator:
    """A Byzantine cloud service: aggregates honestly, then lies about it."""

    def __init__(self, inner, mode: str, *, rng: HmacDrbg | None = None) -> None:
        if mode not in SERVICE_ATTACKS:
            raise ConfigurationError(f"unknown service attack mode {mode!r}")
        self.inner = inner
        self.mode = mode
        self.rng = rng or HmacDrbg(b"tampering-aggregator")
        self.lies_told = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def finalize_blinded_round(self, round_id, repair=None, repaired=0):
        return self._tamper(
            self.inner.finalize_blinded_round(round_id, repair, repaired)
        )

    def _corrupted(self, result):
        aggregate = np.array(result.aggregate, dtype=float, copy=True)
        bump = 1.0 + float(self.rng.randint(538))
        aggregate[self.rng.randint(len(aggregate))] += bump
        return dataclasses.replace(result, aggregate=aggregate)

    def _tamper(self, result):
        self.lies_told += 1
        if self.mode == ATTACK_SERVICE_CORRUPT:
            return self._corrupted(result)
        if self.mode == ATTACK_SERVICE_STRIP_TRAIL:
            return dataclasses.replace(self._corrupted(result), accepted=())
        if self.mode == ATTACK_SERVICE_OMIT:
            if not result.accepted:
                return result
            return dataclasses.replace(
                result,
                accepted=result.accepted[:-1],
                num_contributions=result.num_contributions - 1,
            )
        if self.mode == ATTACK_SERVICE_DUPLICATE:
            if not result.accepted:
                return result
            return dataclasses.replace(
                result,
                accepted=result.accepted + (result.accepted[0],),
                num_contributions=result.num_contributions + 1,
            )
        if self.mode == ATTACK_SERVICE_MISCOUNT:
            # The aggregate divides by the true count but the receipt
            # claims one more contributor than was aggregated.
            return dataclasses.replace(
                result, num_contributions=result.num_contributions + 1
            )
        raise ConfigurationError(f"unknown service attack mode {self.mode!r}")
