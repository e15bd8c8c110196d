"""Typed messages exchanged by the RoundEngine over the transport.

Each round phase has its own message kind so drop models and adversaries
can target individual flows (``DropAdversary(drop_kinds={KIND_SUBMIT})``
models a service-side brownout without touching provisioning, for
example).  Payloads are frozen dataclasses registered with
:func:`repro.codec.wire`: the wire carries their frames, never live
object references, so :func:`payload_size` prices the bytes that cross
and adversaries capture or tamper with them meaningfully.

Every numeric vector travels packed, as ``bytes`` of 8-byte big-endian
values with no count prefix: ring words as u64
(:func:`repro.perf.kernels.be_words_to_bytes`) and floats as IEEE-754
doubles (:func:`repro.perf.kernels.be_doubles_to_bytes`).  A vector's size
on the wire is then 8·k whatever it holds, and the signed contribution
carries the exact bytes its signature covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec import (
    LENGTH, PARTIES, ROUND_ID, SIZE, SLOT, Bytes, Int, Optional, Packed, Pair, Str, TupleOf,
    wire,
)
from repro.core.signing import SignedContribution
from repro.crypto.commitments import MaskCommitmentRecord
from repro.sgx.attestation import Quote

# Well-known endpoint names on the round bus --------------------------------
ENGINE = "engine"
SERVICE = "service"
BLINDER = "blinder"


def client_endpoint(client_id: str) -> str:
    """The transport endpoint name for a client device."""
    return f"client:{client_id}"


# Engine → provisioners / service ------------------------------------------
KIND_OPEN_BLINDER = "round/open-blinder"
KIND_OPEN_SERVICE = "round/open-service"
KIND_FINALIZE = "round/finalize"
KIND_REVEAL_MASK = "mask/reveal-dropout"

# Engine → clients ----------------------------------------------------------
KIND_PROVISION_MASK = "client/provision-mask"
KIND_CONTRIBUTE = "client/contribute"
KIND_CLOSE_ROUND = "client/close-round"

# Clients → provisioners / service ------------------------------------------
KIND_MASK_REQUEST = "mask/request"
KIND_SUBMIT = "contribution/submit"
KIND_QUERY_SUBMISSION = "contribution/status"


@wire(0x8001, round_id=ROUND_ID, num_parties=PARTIES, vector_length=LENGTH, subgroup_size=SIZE)
@dataclass(frozen=True)
class OpenBlinderRound:
    """Ask the blinding service to sample sum-zero masks for a round.

    ``subgroup_size > 0`` requests the hierarchical construction: an
    independent sum-zero family per DRBG-keyed subgroup of at most that
    many slots (the plan is a pure function of the round id, so every
    party recomputes it).  ``0`` keeps the flat §3 family.
    """

    round_id: int
    num_parties: int
    vector_length: int
    subgroup_size: int = 0


@wire(0x8002, round_id=ROUND_ID, expected_parties=PARTIES, subgroup_size=SIZE)
@dataclass(frozen=True)
class OpenServiceRound:
    """Ask the cloud service to start accepting blinded contributions.

    ``subgroup_size > 0`` opens a streaming round: submissions fold into
    per-subgroup accumulators on arrival and raw vectors are released.
    """

    round_id: int
    expected_parties: int
    subgroup_size: int = 0


@wire(0x8003, round_id=ROUND_ID, party_index=SLOT, commitment=Optional(MaskCommitmentRecord))
@dataclass(frozen=True)
class ProvisionMask:
    """Command a client to fetch its round mask from the blinding service.

    ``commitment`` is the slot's engine-vouched
    :class:`~repro.crypto.commitments.MaskCommitmentRecord`: the engine
    validated the published commitment set when the round opened, so
    shipping the per-slot record here stops the blinding service from
    equivocating — delivering the engine one mask family and the clients
    another.
    """

    round_id: int
    party_index: int
    commitment: MaskCommitmentRecord | None = None


@wire(
    0x8004, session_id=Bytes(), dh_public=Optional(Int(1)), quote=Optional(Quote),
    round_id=ROUND_ID, party_index=SLOT,
)
@dataclass(frozen=True)
class MaskRequest:
    """A client's request for its slot's mask, to the blinding service.

    Two shapes.  A full request is the Glimmer's attested handshake: its
    ``session_id``, its DH value and the quote binding it.  An in-session
    request names the live session the last full delivery opened —
    ``session_id`` is that session's 16-byte handle — and carries no
    quote and no DH value.
    """

    session_id: bytes
    dh_public: int | None
    quote: Quote | None
    round_id: int
    party_index: int


@wire(
    0x8005, round_id=ROUND_ID, values=Packed(finite=True), features=TupleOf(Pair(Str, Str)),
    features_digest=Bytes(32),
)
@dataclass(frozen=True)
class ContributeCommand:
    """Command a client to train-endorse-submit for a round.

    ``features_digest`` names the service-published feature list
    (:func:`repro.core.glimmer.features_digest`, the value vetted into
    every Glimmer's measured config).  ``features`` carries the list
    itself only on its first trip to a device host: once a device's last
    contribution under this digest was accepted, the engine sends ``()``
    and the host's :class:`~repro.runtime.endpoints.ClientEndpoint` puts
    back the list it kept.  A device whose round ended any other way gets
    the full list again, so a list stripped or swapped in transit costs
    that device one round, never more.  ``values`` is the device's vector
    as packed big-endian doubles.  There is no knob for how the device
    contributes: its Glimmer always blinds, so nothing a rewrite in
    transit can set makes a plaintext contribution leave the host.
    """

    round_id: int
    values: tuple
    features: tuple
    features_digest: bytes


@wire(0x8006, round_id=ROUND_ID, contribution=SignedContribution, slot=Optional(SLOT))
@dataclass(frozen=True)
class SubmitContribution:
    """A signed contribution on its way to the cloud service.

    ``round_id`` names the round the *sender* targets; the service checks
    it against the signed ``contribution.round_id``, which is how
    cross-round replay is caught.  ``slot`` names the mask slot the sender
    claims to consume — the protocol monitor uses it to catch
    equivocation (two different signed values for one slot).
    """

    round_id: int
    contribution: SignedContribution
    slot: int | None = None


@wire(0x8007, round_id=ROUND_ID, nonce=Bytes(16))
@dataclass(frozen=True)
class SubmissionStatusQuery:
    """Did a submission with this nonce land?  (Reconciliation, not replay.)

    Sent when every attempt of a submit call failed on the *response* leg:
    the contribution may or may not have been accepted, and the sender
    must find out before the round can finalize exactly.  Nonces are
    unforgeable 128-bit values minted inside the Glimmer, so answering
    this query leaks nothing an attacker could not already observe.
    """

    round_id: int
    nonce: bytes


@wire(0x8008, round_id=ROUND_ID, party_index=SLOT)
@dataclass(frozen=True)
class RevealMask:
    """§3 dropout repair: ask the blinding service for a missing mask."""

    round_id: int
    party_index: int


@wire(0x8009, round_id=ROUND_ID, dropout_masks=TupleOf(Packed()))
@dataclass(frozen=True)
class FinalizeRound:
    """Close a round at the service, handing over any repair masks.

    Each ``dropout_masks`` entry is one dropped slot's verified mask as
    the packed big-endian u64 words its opening carried.
    """

    round_id: int
    dropout_masks: tuple = field(default=())


@wire(0x800A, round_id=ROUND_ID)
@dataclass(frozen=True)
class CloseRound:
    """Tell a client the round is over: purge Glimmer mask state."""

    round_id: int

