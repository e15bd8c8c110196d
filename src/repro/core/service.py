"""The cloud service: verifies Glimmer endorsements and aggregates.

The service trusts nothing a client relays except what the Glimmer's
signature covers.  Per contribution it checks:

* signature validity under the contribution-signing public key (whose
  secret half only attested Glimmers hold);
* round consistency (the signed round id must match the open round);
* nonce freshness (a replayed signed contribution is dropped);
* payload kind (every round is blinded; a plaintext payload never counts).

The service computes only the ring sum — it never sees an individual
contribution — and repairs dropouts with the ring sum of the masks the
blinding service disclosed (§3), never one mask on its own.  Each blinded
word arrives as its residue at the round's width, which the round's
opener names (the engine decides it:
:func:`~repro.crypto.fixedpoint.ring_width`); the residues fold in
``uint64`` and the total is sign-extended back to the 64-bit sum at
finalize.  Every round keeps one state shape: a
:class:`~repro.scale.streaming.StreamingSubgroupAccumulator` that each
admitted payload folds into on arrival (a single group on the flat route,
the round's subgroups on the streamed one).  The route only decides
whether the signed trail is also retained for the engine's audit.  The
aggregate divides by the number of *contributions actually included*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.codec import ROUND_ID, SIZE, TupleOf, wire
from repro.core.signing import SignedContribution
from repro.crypto.fixedpoint import WHOLE_WORD, FixedPointCodec
from repro.crypto.schnorr import SchnorrPublicKey
from repro.errors import ConfigurationError, ProtocolError
from repro.perf import kernels
from repro.scale.streaming import StreamingSubgroupAccumulator
from repro.scale.subgroup import plan_subgroups


@dataclass
class RoundState:
    """Accounting for one aggregation round.

    A round folds each admitted ring payload into ``accumulator``
    on arrival — one group on the flat route, the round's
    :class:`~repro.scale.subgroup.SubgroupPlan` on the streamed route —
    so finalize sums O(groups · k) partials, never the n admitted rows.
    ``counted`` maps the nonce of every contribution in the aggregate to
    its claimed slot, in admission order; it is what the engine reads on
    either route.  ``accepted`` is the signed trail the engine's finalize
    audit replays: kept on a flat round, and empty on a
    streamed round (``retain=False``), which releases each payload at
    admission and therefore cannot evict one.
    """

    round_id: int
    accumulator: StreamingSubgroupAccumulator
    retain: bool = True
    accepted: list[SignedContribution] = field(default_factory=list)
    counted: dict[bytes, int | None] = field(default_factory=dict)
    seen_nonces: set = field(default_factory=set)
    rejected: dict[str, int] = field(default_factory=dict)
    result: RoundResult | None = None

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1


@wire(
    0x810B, round_id=ROUND_ID, aggregate=np.ndarray, num_contributions=SIZE,
    num_dropouts_repaired=SIZE, rejected=dict, accepted=TupleOf(SignedContribution),
)
@dataclass(frozen=True)
class RoundResult:
    """The service's output for a round.

    ``accepted`` carries the signed contributions that entered the
    aggregate, so the engine can audit the service's arithmetic: recompute
    the ring sum, re-verify every signature, and cross-check nonces
    against its own collection record.  A tampering aggregator that
    corrupts, omits, or duplicates contributions cannot produce a result
    that passes that audit.
    """

    round_id: int
    aggregate: np.ndarray
    num_contributions: int
    num_dropouts_repaired: int
    rejected: dict
    accepted: tuple = ()


def repair_complaint(repair, repaired: int) -> str | None:
    """What is wrong with a §3 repair and its count, if anything: a
    repair vector comes with a count above 0, and only then."""
    if (repair is None) == (repaired == 0):
        return None
    if repair is None:
        return f"{repaired} mask(s) repaired but no repair vector"
    return "a repair vector that repairs no mask"


class CloudService:
    """Verifies signed contributions and aggregates per round."""

    def __init__(
        self,
        signing_public: SchnorrPublicKey,
        codec: FixedPointCodec | None = None,
    ) -> None:
        self._signing_public = signing_public
        self._codec = codec or FixedPointCodec()
        self._rounds: dict[int, RoundState] = {}
        self._closed: set[int] = set()
        self.aggregation_reducer = None
        """Optional ``callable(matrix) -> row`` that merges a
        round's group partials at finalize in place of the flat
        :func:`repro.perf.kernels.ring_sum_rows`.  The scale layer installs
        a sharded reducer here; any replacement must be bit-exact against
        the flat sum (ring addition is associative, so any
        partition-and-merge strategy is)."""

    @property
    def codec(self) -> FixedPointCodec:
        return self._codec

    def open_round(
        self,
        round_id: int,
        expected_parties: int,
        subgroup_size: int = 0,
        vector_length: int | None = None,
        width: int = WHOLE_WORD,
    ) -> None:
        """Open a round; ``subgroup_size > 0`` selects the streamed route.

        A round plans its groups up front (the plan is a pure
        function of the round id, so blinder and engine compute the
        identical grouping): ``subgroup_size`` slots a group when
        streamed, all of them — one group — when flat.  Only a flat round
        retains its signed trail; see :class:`RoundState`.
        ``vector_length`` fixes the words every contribution holds, so a
        payload of any other count is refused whatever arrived first; an
        in-process caller that trusts its rows may leave it to the first.
        ``width`` is the bits each word crosses at; a caller that opens a
        round without an engine, and names none, reads whole 64-bit words.
        """
        if round_id in self._closed:
            raise ProtocolError(f"round {round_id} is closed")
        if round_id in self._rounds:
            raise ProtocolError(f"round {round_id} already open")
        if expected_parties < 1:
            raise ProtocolError("expected_parties must be >= 1")
        plan = plan_subgroups(
            round_id, expected_parties, subgroup_size or expected_parties
        )
        self._rounds[round_id] = RoundState(
            round_id=round_id,
            accumulator=StreamingSubgroupAccumulator(plan, vector_length, width),
            retain=subgroup_size <= 0,
        )

    def round_state(self, round_id: int) -> RoundState:
        state = self._rounds.get(round_id)
        if state is None:
            if round_id in self._closed:
                raise ProtocolError(f"round {round_id} is closed")
            raise ProtocolError(f"round {round_id} not open")
        return state

    def close_round(self, round_id: int) -> None:
        """The round is over: drop its accounting state (idempotent).

        The signed trail, group partials, nonces and the rejection ledger
        all go; what the caller needs afterwards is in the
        :class:`RoundResult` it already holds.  The round id stays behind
        as a tombstone, so the round cannot be re-opened and a late
        :meth:`submit` is refused rather than admitted into a fresh, empty
        round.
        """
        self._rounds.pop(round_id, None)
        self._closed.add(round_id)

    # ------------------------------------------------------------ admission

    def submit(
        self,
        round_id: int,
        contribution: SignedContribution,
        slot: int | None,
    ) -> bool:
        """Admit one contribution; returns True if accepted.

        Rejections are counted by reason in the round state — the paper's
        Input Integrity property shows up as "everything unsigned, forged,
        replayed, or tampered lands in ``rejected``".  ``slot`` is the
        sender-claimed mask slot (``None`` when the sender claimed none); a
        streamed round uses it to attribute the fold to a subgroup (the
        total is exact either way — fold order and attribution never
        change an associative ring sum).
        """
        return self._admit(round_id, contribution, check_signature=True, slot=slot)

    def submit_verified(
        self,
        round_id: int,
        contribution: SignedContribution,
        slot: int | None,
    ) -> bool:
        """Admit a contribution whose signature the caller already verified.

        The scale layer's worker pool checks each Glimmer signature in the
        worker process; re-checking it here would serialize the exact
        exponentiations the pool just parallelized.  Every other admission
        rule — round consistency, payload kind, nonce freshness, payload
        well-formedness — is enforced identically to :meth:`submit`, and
        rejections land in the same ledger.  Callers must have run
        ``signing_public.is_valid(contribution.signed_bytes(), ...)``
        themselves; handing this method an unverified contribution forfeits
        Input Integrity.
        """
        return self._admit(
            round_id, contribution, check_signature=False, slot=slot
        )

    def _admit(
        self,
        round_id: int,
        contribution: SignedContribution,
        check_signature: bool,
        slot: int | None,
    ) -> bool:
        state = self.round_state(round_id)
        if not isinstance(contribution, SignedContribution):
            state.reject("not-a-signed-contribution")
            return False
        if contribution.round_id != round_id:
            state.reject("wrong-round")
            return False
        if not contribution.blinded:
            state.reject("wrong-payload-kind")
            return False
        if contribution.nonce in state.seen_nonces:
            state.reject("replayed-nonce")
            return False
        try:
            digest = contribution.signed_bytes()
        except Exception:
            state.reject("malformed-payload")
            return False
        if check_signature and not self._signing_public.is_valid(
            digest, contribution.signature
        ):
            state.reject("invalid-signature")
            return False
        # The payload enters its group's partial sum now; a streamed round
        # keeps no other reference to the raw vector.  One that cannot fold
        # (no ring payload, wrong length) never counts.
        try:
            state.accumulator.fold(contribution.ring_payload, slot)
        except (ConfigurationError, TypeError):
            state.reject("malformed-payload")
            return False
        state.seen_nonces.add(contribution.nonce)
        state.counted[contribution.nonce] = slot
        if state.retain:
            state.accepted.append(contribution)
        return True

    def evict_nonce(self, round_id: int, nonce: bytes) -> bool:
        """Remove an already-accepted contribution (quarantine eviction).

        The row comes back out of its group's partial (ring subtraction
        undoes the fold exactly).  The nonce stays in ``seen_nonces`` so
        the evicted contribution cannot be resubmitted; the rejection
        ledger records the eviction.  Returns True if a contribution was
        actually removed — never on a streamed round, whose released
        payloads cannot be found again; the engine then lets the accept
        stand, and rounds that can need eviction never route there.
        """
        state = self.round_state(round_id)
        for index, contribution in enumerate(state.accepted):
            if contribution.nonce == nonce:
                del state.accepted[index]
                slot = state.counted.pop(nonce)
                state.accumulator.unfold(contribution.ring_payload, slot)
                state.reject("evicted-by-quarantine")
                return True
        return False

    # ---------------------------------------------------------- aggregation

    def finalize_blinded_round(
        self,
        round_id: int,
        repair=None,
        repaired: int = 0,
    ) -> RoundResult:
        """Repair dropouts into the folded partials, merge them, decode.

        ``repair`` is the ring sum of the masks of the ``repaired``
        parties that were provisioned a mask but never submitted, as the
        blinding service disclosed them and the engine verified them:
        residues at the round's width as
        :class:`~repro.runtime.messages.FinalizeRound` carries them, or
        (from an in-process caller) any word sequence; ``None`` when no
        party dropped.  Since Σp = 0, folding that sum in once restores an
        exact sum of the submitted contributions, which the folded total
        widens back to.  A repair whose count or length disagrees with the
        round is refused.  A round
        finalizes once: a retransmitted finalize gets the same result back
        rather than folding its repair a second time.
        """
        complaint = repair_complaint(repair, repaired)
        if complaint:
            raise ConfigurationError(complaint)
        state = self.round_state(round_id)
        if state.result is not None:
            return state.result
        if not state.counted:
            raise ProtocolError("no accepted contributions to aggregate")
        accumulator = state.accumulator
        if repair is not None:
            accumulator.fold_repair(repair)
        total = kernels.widen(accumulator.total(self.aggregation_reducer), accumulator.width)
        count = len(state.counted)
        state.result = RoundResult(
            round_id=round_id,
            aggregate=self._codec.decode(total) / count,
            num_contributions=count,
            num_dropouts_repaired=repaired,
            rejected=dict(state.rejected),
            accepted=tuple(state.accepted),
        )
        return state.result
