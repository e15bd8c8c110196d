"""The consortium Glimmer: §2's non-TEE realization, built and priced.

"Having an actual third party performing the role of the Glimmer is,
arguably, the realization of this architecture.  For example, the
Electronic Frontier Foundation (EFF), or a consortium of privacy advocacy
organizations could, in ensemble, perform validation and blinding, perhaps
using multi-party computation, or simpler threshold cryptography on inputs.
However, the deployment cost for such a solution would be high."

This module implements that ensemble so experiment E13 can measure the
deployment cost the paper asserts:

* each :class:`ConsortiumMember` independently validates the raw
  contribution (so the trust shift is explicit: members *see* user data,
  unlike the SGX Glimmer) and holds an additive share of every client's
  blinding mask — no single member knows a full mask, so privacy against
  the *service* needs only one honest member;
* a contribution is endorsed when a **quorum** of members signs the same
  contribution digest; the service reconstructs the blinded vector by
  ring-summing the members' shares, so *every* member must respond for the
  sum to be correct — the availability cost E13 measures under member
  failures;
* masks are sum-zero *across clients per member*, so cross-client sums
  cancel exactly as in §3.

The same :class:`~repro.core.service.CloudService`-grade checks apply on
the service side (:class:`ConsortiumService`): quorum, digest agreement,
per-member signatures, replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.validation import PrivateContext, RoundFacts, default_registry
from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec
from repro.crypto.hashing import hash_items
from repro.crypto.masking import SumZeroMasks, apply_mask
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrPublicKey
from repro.errors import ConfigurationError, ProtocolError, ValidationError
from repro.perf import kernels
from repro.sgx.counters import CounterStore


def share_digest(
    round_id: int, client_index: int, member_name: str, values_digest: bytes, share: list[int]
) -> bytes:
    """What a member signs: binds round, client, member, raw digest, and share."""
    return hash_items(
        "consortium-share",
        [
            round_id.to_bytes(8, "big"),
            client_index.to_bytes(4, "big"),
            member_name.encode("utf-8"),
            values_digest,
            b"".join(int(v).to_bytes(8, "big") for v in share),
        ],
    )


def values_digest(values) -> bytes:
    """Digest of the raw contribution all members must agree they validated."""
    return hash_items(
        "consortium-values",
        [b"".join(round(float(v) * (1 << 24)).to_bytes(8, "big", signed=True) for v in values)],
    )


@dataclass(frozen=True)
class MemberEndorsement:
    """One member's output for one contribution."""

    member_name: str
    round_id: int
    client_index: int
    values_digest: bytes
    share: tuple[int, ...]
    signature: object


class ConsortiumMember:
    """One advocacy organization in the ensemble.

    Sees raw contributions and private context (the design's trust cost),
    validates with its own predicate instance, and holds additive mask
    shares per round.
    """

    def __init__(
        self,
        name: str,
        predicate_spec: str,
        rng: HmacDrbg,
        include_plaintext: bool = False,
    ) -> None:
        self.name = name
        self.codec = FixedPointCodec()
        self.identity = SchnorrKeyPair.generate(rng.fork("identity"))
        self._rng = rng
        self._predicate = default_registry().build(predicate_spec)
        self._include_plaintext = include_plaintext
        """Exactly one member per consortium carries the encoded plaintext in
        its share; the rest contribute pure mask shares."""
        self._round_masks: dict[int, SumZeroMasks] = {}
        #: round -> the feature list the round published, as a Glimmer's
        #: RoundFacts carry it to the predicate.
        self._round_features: dict[int, tuple[tuple[str, str], ...]] = {}
        self._counters = CounterStore()
        self.validations_run = 0
        self.available = True
        """Toggled off by E13's failure injection."""

    def open_round(
        self, round_id: int, num_clients: int, features: Sequence[tuple[str, str]]
    ) -> None:
        """Open a round over the service's published ``features``: one
        mask word per feature, and the list a corroboration predicate
        recomputes weights over."""
        if round_id in self._round_masks:
            raise ProtocolError(f"{self.name}: round {round_id} already open")
        self._round_features[round_id] = tuple(features)
        self._round_masks[round_id] = SumZeroMasks.sample(
            num_clients, len(features), self._rng.fork(f"round-{round_id}")
        )

    def endorse(
        self,
        round_id: int,
        client_index: int,
        values,
        context: PrivateContext,
    ) -> MemberEndorsement:
        """Validate the raw contribution; return a signed blinded share.

        Raises :class:`ValidationError` on a failed predicate and
        :class:`ProtocolError` if this member is unavailable or the round
        is unknown.
        """
        if not self.available:
            raise ProtocolError(f"{self.name} is unavailable")
        masks = self._round_masks.get(round_id)
        if masks is None:
            raise ProtocolError(f"{self.name}: round {round_id} not open")
        self.validations_run += 1
        facts = RoundFacts(
            round_id,
            self._round_features[round_id],
            self._counters.counter_for(b"", f"contributions-round-{round_id}"),
        )
        outcome = self._predicate.evaluate(list(values), context, facts)
        if not outcome.passed:
            raise ValidationError(f"{self.name}: {outcome.reason}")
        mask = kernels.as_ring(masks.share_for(client_index).row()).tolist()
        if self._include_plaintext:
            share = apply_mask(self.codec.encode(list(values)), mask)
        else:
            share = mask
        digest = values_digest(values)
        signature = self.identity.sign(
            share_digest(round_id, client_index, self.name, digest, share)
        )
        return MemberEndorsement(
            member_name=self.name,
            round_id=round_id,
            client_index=client_index,
            values_digest=digest,
            share=tuple(share),
            signature=signature,
        )


def build_consortium(
    num_members: int,
    predicate_spec: str,
    rng: HmacDrbg,
) -> list[ConsortiumMember]:
    """A consortium with exactly one plaintext-carrying member."""
    if num_members < 2:
        raise ConfigurationError("a consortium needs at least two members")
    return [
        ConsortiumMember(
            name=f"member-{index}",
            predicate_spec=predicate_spec,
            rng=rng.fork(f"member-{index}"),
            include_plaintext=(index == 0),
        )
        for index in range(num_members)
    ]


@dataclass
class _ConsortiumRound:
    round_id: int
    num_clients: int
    quorum: int
    member_names: tuple[str, ...]
    accepted: dict = field(default_factory=dict)  # client_index -> summed share
    seen_digests: dict = field(default_factory=dict)
    rejected: dict = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1


class ConsortiumService:
    """The cloud service for the consortium deployment.

    Admits a contribution only with a quorum of member signatures agreeing
    on one raw-contribution digest, and with shares from *all* members
    (otherwise masks would not cancel).  Aggregates by ring-summing across
    clients.
    """

    def __init__(
        self,
        member_keys: dict[str, SchnorrPublicKey],
        quorum: int,
    ) -> None:
        if not 2 <= quorum <= len(member_keys):
            raise ConfigurationError("quorum must be in [2, num_members]")
        self._member_keys = dict(member_keys)
        self.quorum = quorum
        self._codec = FixedPointCodec()
        self._rounds: dict[int, _ConsortiumRound] = {}

    def open_round(self, round_id: int, num_clients: int) -> None:
        if round_id in self._rounds:
            raise ProtocolError(f"round {round_id} already open")
        self._rounds[round_id] = _ConsortiumRound(
            round_id=round_id,
            num_clients=num_clients,
            quorum=self.quorum,
            member_names=tuple(sorted(self._member_keys)),
        )

    def round_state(self, round_id: int) -> _ConsortiumRound:
        state = self._rounds.get(round_id)
        if state is None:
            raise ProtocolError(f"round {round_id} not open")
        return state

    def submit(
        self, round_id: int, client_index: int, endorsements: list[MemberEndorsement]
    ) -> bool:
        """Admit one client's endorsement bundle; returns True on acceptance."""
        state = self.round_state(round_id)
        if client_index in state.accepted:
            state.reject("duplicate-client")
            return False
        by_member = {e.member_name: e for e in endorsements}
        if set(by_member) != set(state.member_names):
            state.reject("missing-member-shares")
            return False
        digests = {e.values_digest for e in endorsements}
        if len(digests) != 1:
            state.reject("digest-disagreement")
            return False
        valid_signatures = 0
        for endorsement in endorsements:
            key = self._member_keys.get(endorsement.member_name)
            if key is None:
                continue
            if endorsement.round_id != round_id or endorsement.client_index != client_index:
                state.reject("mismatched-endorsement")
                return False
            digest = share_digest(
                round_id,
                client_index,
                endorsement.member_name,
                endorsement.values_digest,
                list(endorsement.share),
            )
            if key.is_valid(digest, endorsement.signature):
                valid_signatures += 1
        if valid_signatures < self.quorum:
            state.reject("quorum-not-met")
            return False
        total = self._codec.sum_vectors([list(e.share) for e in endorsements])
        state.accepted[client_index] = total
        return True

    def finalize_round(
        self, round_id: int, dropout_shares: list[list[int]] = ()
    ) -> np.ndarray:
        """Ring-sum the accepted blinded vectors (plus dropout repairs), decode."""
        state = self.round_state(round_id)
        if not state.accepted:
            raise ProtocolError("no accepted contributions")
        total = self._codec.sum_vectors(list(state.accepted.values()))
        for share in dropout_shares:
            total = apply_mask(total, list(share))
        return self._codec.decode(total) / len(state.accepted)
