"""The cloud service: verifies Glimmer endorsements and aggregates.

The service trusts nothing a client relays except what the Glimmer's
signature covers.  Per contribution it checks:

* signature validity under the contribution-signing public key (whose
  secret half only attested Glimmers hold);
* round consistency (the signed round id must match the open round);
* nonce freshness (a replayed signed contribution is dropped);
* payload kind (a round is either blinded or plaintext, fixed at opening).

For blinded rounds the service computes only the ring sum — it never sees
an individual contribution — and repairs dropouts with masks disclosed by
the blinding service (§3).  The aggregate divides by the number of
*contributions actually included*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.signing import SignedContribution
from repro.crypto.fixedpoint import FixedPointCodec
from repro.crypto.schnorr import SchnorrPublicKey
from repro.errors import ConfigurationError, ProtocolError
from repro.perf import kernels


@dataclass(frozen=True)
class _StreamedAccept:
    """The nonce-bearing stub a streaming round keeps per acceptance.

    The engine's abort accounting and finalize-time reconciliation only
    need ``len(state.accepted)`` and each entry's ``nonce``; retaining
    whole :class:`SignedContribution` objects would defeat the point of
    releasing payloads at admission.
    """

    nonce: bytes


@dataclass
class RoundState:
    """Accounting for one aggregation round.

    ``ring_rows`` mirrors ``accepted`` index-for-index on blinded rounds:
    each admitted ring payload is converted to a ``np.uint64`` vector once
    at submission, so finalize is a single column-wise sum over a
    contiguous matrix instead of per-element Python arithmetic.
    """

    round_id: int
    blinded: bool
    expected_parties: int
    accepted: list[SignedContribution] = field(default_factory=list)
    ring_rows: list[np.ndarray] = field(default_factory=list)
    seen_nonces: set = field(default_factory=set)
    rejected: dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1


class StreamingRoundState:
    """A blinded round that folds submissions instead of retaining them.

    Opened when the round carries a :class:`~repro.scale.subgroup.
    SubgroupPlan`: each admitted ring payload is folded into its
    subgroup's running partial (:class:`~repro.scale.streaming.
    StreamingSubgroupAccumulator`) the moment it passes admission, and
    the raw vector is released — parent memory is O(n/g · k + nonces),
    not O(n·k).  The price is auditability of individual rows: the
    service cannot replay what it no longer holds, so finalize returns
    an empty ``accepted`` audit trail (the engine, having chosen this
    route itself, audits the counts only) and quarantine eviction
    reports failure rather than un-folding — which is why the engine
    only routes adversary-free rounds here (see :func:`repro.scale.
    rounds.plan_route`).
    """

    blinded = True

    def __init__(
        self, round_id: int, expected_parties: int, plan, modulus_bits: int
    ) -> None:
        from repro.scale.streaming import StreamingSubgroupAccumulator

        self.round_id = round_id
        self.expected_parties = expected_parties
        self.plan = plan
        self.accumulator = StreamingSubgroupAccumulator(plan, modulus_bits)
        self.seen_nonces: set = set()
        self.rejected: dict[str, int] = {}
        self._accepted_nonces: list[bytes] = []

    @property
    def accepted(self) -> tuple:
        """Nonce stubs for engine accounting (see :class:`_StreamedAccept`)."""
        return tuple(_StreamedAccept(n) for n in self._accepted_nonces)

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def accept(self, contribution: SignedContribution, slot: int | None) -> None:
        self._accepted_nonces.append(contribution.nonce)
        self.accumulator.fold(contribution.ring_payload, slot)


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
        """Optional ``callable(matrix, modulus_bits) -> row`` replacing the
        flat :func:`repro.perf.kernels.ring_sum_rows` at finalize.  The
        scale layer installs a sharded reducer here; any replacement must
        be bit-exact against the flat sum (ring addition is associative,
        so any partition-and-merge strategy is)."""

    @property
    def codec(self) -> FixedPointCodec:
        return self._codec

    def open_round(
        self,
        round_id: int,
        expected_parties: int,
        blinded: bool = True,
        subgroup_size: int = 0,
    ) -> None:
        """Open a round; ``subgroup_size > 0`` selects the streaming path.

        A streaming round plans its subgroups up front (the plan is a
        pure function of the round id, so blinder and engine compute the
        identical grouping) and folds each admitted payload immediately
        instead of retaining it — see :class:`StreamingRoundState` for
        the trade.  ``subgroup_size == 0`` keeps today's flat round.
        """
        if round_id in self._closed:
            raise ProtocolError(f"round {round_id} is closed")
        if round_id in self._rounds:
            raise ProtocolError(f"round {round_id} already open")
        if expected_parties < 1:
            raise ProtocolError("expected_parties must be >= 1")
        if subgroup_size > 0 and blinded:
            from repro.scale.subgroup import plan_subgroups

            plan = plan_subgroups(round_id, expected_parties, subgroup_size)
            self._rounds[round_id] = StreamingRoundState(
                round_id, expected_parties, plan, self._codec.modulus_bits
            )
            return
        self._rounds[round_id] = RoundState(
            round_id=round_id, blinded=blinded, expected_parties=expected_parties
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

        Accepted contributions, ring rows (or subgroup partials), nonces
        and the rejection ledger all go; what the caller needs afterwards
        is in the :class:`RoundResult` it already holds.  The round id
        stays behind as a tombstone, so the round cannot be re-opened and
        a late :meth:`submit` is refused rather than admitted into a
        fresh, empty round.
        """
        self._rounds.pop(round_id, None)
        self._closed.add(round_id)

    # ------------------------------------------------------------ admission

    def submit(
        self,
        round_id: int,
        contribution: SignedContribution,
        slot: int | None = None,
    ) -> bool:
        """Admit one contribution; returns True if accepted.

        Rejections are counted by reason in the round state — the paper's
        Input Integrity property shows up as "everything unsigned, forged,
        replayed, or tampered lands in ``rejected``".  ``slot`` is the
        sender-claimed mask slot; streaming rounds use it to attribute
        the fold to a subgroup (the total is exact either way — fold
        order and attribution never change an associative ring sum).
        """
        return self._admit(round_id, contribution, check_signature=True, slot=slot)

    def submit_verified(
        self,
        round_id: int,
        contribution: SignedContribution,
        slot: int | None = None,
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
        slot: int | None = None,
    ) -> bool:
        state = self.round_state(round_id)
        if not isinstance(contribution, SignedContribution):
            state.reject("not-a-signed-contribution")
            return False
        if contribution.round_id != round_id:
            state.reject("wrong-round")
            return False
        if contribution.blinded != state.blinded:
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
        state.seen_nonces.add(contribution.nonce)
        if isinstance(state, StreamingRoundState):
            # Fold-and-release: the payload enters its subgroup's partial
            # sum now; no reference to the raw vector survives this call.
            state.accept(contribution, slot)
            return True
        state.accepted.append(contribution)
        if state.blinded and contribution.ring_payload is not None:
            state.ring_rows.append(
                kernels.as_ring(contribution.ring_payload, self._codec.modulus_bits)
            )
        return True

    def evict_nonce(self, round_id: int, nonce: bytes) -> bool:
        """Remove an already-accepted contribution (quarantine eviction).

        The nonce stays in ``seen_nonces`` so the evicted contribution
        cannot be resubmitted; the rejection ledger records the eviction.
        Returns True if a contribution was actually removed.
        """
        state = self.round_state(round_id)
        if isinstance(state, StreamingRoundState):
            # A folded payload cannot be un-summed.  Reporting failure is
            # the fail-safe contract the engine already honors ("if the
            # service cannot evict, the accept stands"); rounds that can
            # need eviction never route to the streaming path.
            return False
        for index, contribution in enumerate(state.accepted):
            if contribution.nonce == nonce:
                del state.accepted[index]
                if index < len(state.ring_rows):
                    del state.ring_rows[index]
                state.reject("evicted-by-quarantine")
                return True
        return False

    # ---------------------------------------------------------- aggregation

    def finalize_blinded_round(
        self,
        round_id: int,
        dropout_masks: Sequence[Sequence[int]] = (),
    ) -> RoundResult:
        """Ring-sum the blinded payloads, repair dropouts, decode.

        ``dropout_masks`` are the masks of parties that were provisioned a
        mask but never submitted, disclosed by the blinding service.  Since
        Σp = 0, adding the missing masks restores an exact sum of the
        submitted contributions.
        """
        state = self.round_state(round_id)
        if not state.blinded:
            raise ProtocolError("round is not blinded; use finalize_plain_round")
        if isinstance(state, StreamingRoundState):
            if not state._accepted_nonces:
                raise ProtocolError("no accepted contributions to aggregate")
            return self._finalize_streaming(state, dropout_masks)
        if not state.accepted:
            raise ProtocolError("no accepted contributions to aggregate")
        modulus_bits = self._codec.modulus_bits
        length = len(state.ring_rows[0])
        for row in state.ring_rows:
            if len(row) != length:
                raise ConfigurationError("vector length mismatch")
        reducer = self.aggregation_reducer
        if reducer is not None:
            total = reducer(np.stack(state.ring_rows), modulus_bits)
        else:
            # Chunked accumulate: the rows are only ever needed for their
            # sum, so never stack the full row-major matrix (bit-exact by
            # associativity; see kernels.ring_accumulate).
            total = kernels.ring_accumulate(state.ring_rows, modulus_bits)
        if dropout_masks:
            # Commitment-aware blinders reveal MaskOpening objects; the
            # bare mask words are what repairs the ring sum.  Ring addition
            # commutes, so all repairs collapse into one summed vector and
            # a single apply — bit-identical to applying them one by one.
            repair_rows = []
            for mask in dropout_masks:
                words = getattr(mask, "mask", mask)
                if len(words) != length:
                    raise ConfigurationError(
                        "mask length does not match vector length"
                    )
                repair_rows.append(kernels.as_ring(list(words), modulus_bits))
            if reducer is not None:
                repair = reducer(np.stack(repair_rows), modulus_bits)
            else:
                repair = kernels.ring_accumulate(repair_rows, modulus_bits)
            total = kernels.ring_add(total, repair, modulus_bits)
        decoded = self._codec.decode(total)
        count = len(state.accepted)
        return RoundResult(
            round_id=round_id,
            aggregate=decoded / count,
            num_contributions=count,
            num_dropouts_repaired=len(dropout_masks),
            rejected=dict(state.rejected),
            accepted=tuple(state.accepted),
        )

    def _finalize_streaming(
        self, state: StreamingRoundState, dropout_masks: Sequence[Sequence[int]]
    ) -> RoundResult:
        """Merge the subgroup partials into the round total and decode.

        Repair masks fold like submissions do (ring addition commutes);
        the merge runs through ``aggregation_reducer`` when the scale
        layer installed one, so the subgroup leaves feed the same parent
        tree the flat path's rows would.  ``accepted`` stays empty: the
        folded rows no longer exist to re-audit, so the engine checks a
        round it streamed by its counts (exactness is proven by the
        subgroup parity suite instead).
        """
        modulus_bits = self._codec.modulus_bits
        length = state.accumulator.length
        for mask in dropout_masks:
            words = getattr(mask, "mask", mask)
            if length is not None and len(words) != length:
                raise ConfigurationError(
                    "mask length does not match vector length"
                )
            state.accumulator.fold_repair(
                list(words), getattr(mask, "slot", None)
            )
        total = state.accumulator.total(self.aggregation_reducer)
        decoded = self._codec.decode(total)
        count = len(state._accepted_nonces)
        return RoundResult(
            round_id=state.round_id,
            aggregate=decoded / count,
            num_contributions=count,
            num_dropouts_repaired=len(dropout_masks),
            rejected=dict(state.rejected),
            accepted=(),
        )

    def finalize_plain_round(self, round_id: int) -> RoundResult:
        """Average plaintext payloads (the Figure 1b path, via a Glimmer)."""
        state = self.round_state(round_id)
        if state.blinded:
            raise ProtocolError("round is blinded; use finalize_blinded_round")
        if not state.accepted:
            raise ProtocolError("no accepted contributions to aggregate")
        stacked = np.stack(
            [np.asarray(c.plain_payload, dtype=float) for c in state.accepted]
        )
        return RoundResult(
            round_id=round_id,
            aggregate=stacked.mean(axis=0),
            num_contributions=len(state.accepted),
            num_dropouts_repaired=0,
            rejected=dict(state.rejected),
            accepted=tuple(state.accepted),
        )
