"""Typed messages exchanged by the RoundEngine over the transport.

Each round phase has its own message kind so drop models and adversaries
can target individual flows (``DropAdversary(drop_kinds={KIND_SUBMIT})``
models a service-side brownout without touching provisioning, for
example).  Payloads are frozen dataclasses registered with
:func:`repro.codec.wire`: the wire carries their frames, never live
object references, so the bus prices the length of each frame that
crosses and adversaries capture or tamper with them meaningfully.

Every numeric vector travels packed, as ``bytes`` of 8-byte big-endian
values with no count prefix: ring words as u64
(:func:`repro.perf.kernels.be_words_to_bytes`) and floats as IEEE-754
doubles (:func:`repro.perf.kernels.be_doubles_to_bytes`).  A vector's size
on the wire is then 8·k whatever it holds, and the signed contribution
carries the exact bytes its signature covers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import (
    LENGTH, PARTIES, ROUND_ID, SIZE, SLOT, Bytes, Element, Named, Optional, Packed, wire,
)
from repro.core.signing import SignedContribution
from repro.crypto.commitments import MaskCommitmentRecord
from repro.crypto.dh import GROUPS, DHGroup
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


@wire(0x8003, commitment=MaskCommitmentRecord)
@dataclass(frozen=True)
class ProvisionMask:
    """Command a client to fetch its round mask from the blinding service.

    ``commitment`` is the slot's engine-vouched
    :class:`~repro.crypto.commitments.MaskCommitmentRecord`: the engine
    validated the published commitment set when the round opened, so
    shipping the per-slot record here stops the blinding service from
    equivocating — delivering the engine one mask family and the clients
    another.  It is required: a command without one is refused at decode.
    The record names the round and the slot, so the command carries
    neither beside it.
    """

    commitment: MaskCommitmentRecord

    @property
    def round_id(self) -> int:
        return self.commitment.round_id

    @property
    def party_index(self) -> int:
        return self.commitment.slot


@wire(
    0x8004, session_id=Bytes(), dh_public=Element(), quote=Optional(Quote),
    round_id=ROUND_ID, party_index=SLOT, group=Optional(Named(GROUPS)),
)
@dataclass(frozen=True)
class MaskRequest:
    """A client's request for its slot's mask, to the blinding service.

    Two shapes.  A full request is the Glimmer's attested handshake: its
    ``session_id``, its DH value in ``group`` and the quote binding it.
    An in-session request names the live session the last full delivery
    opened — ``session_id`` is that session's 16-byte handle — and carries
    no quote, no DH value and no group.
    """

    session_id: bytes
    dh_public: int | None
    quote: Quote | None
    round_id: int
    party_index: int
    group: DHGroup | None = None


@wire(
    0x8005, round_id=ROUND_ID, features=Optional(Bytes()), features_digest=Optional(Bytes(32)),
)
@dataclass(frozen=True)
class ContributeCommand:
    """Command a client to train-endorse-submit for a round.

    ``features`` is the service-published feature list in its bus form —
    packed (its words joined by NUL), then deflated
    (:func:`repro.core.glimmer.deflate_features`), so a k = 77 keyboard
    list is ~316 bytes, not 784 — and ``features_digest`` names it
    (:func:`repro.core.glimmer.features_digest`, the value vetted into
    every Glimmer's measured config).  The two travel together, and only
    on a list's first trip to a device host, which inflates it within a
    fixed cap and holds it to the digest.  Once a device's last
    contribution under this digest was accepted, the engine sends neither
    and the host's :class:`~repro.runtime.endpoints.ClientEndpoint` uses
    the list it kept; the Glimmer holds whatever list it is handed to its
    own measured digest.  A device whose round ended any other way gets
    the full list again, so a list stripped or swapped in transit costs
    that device one round, never more.  The command carries no values:
    the device's vector is its own local data
    (:class:`~repro.core.client.LocalDataStore`), written on the
    host and never on the bus.  There is no knob for how the device
    contributes: its Glimmer always blinds, so nothing a rewrite in
    transit can set makes a plaintext contribution leave the host.
    """

    round_id: int
    features: bytes | None = None
    features_digest: bytes | None = None


@wire(0x8006, contribution=SignedContribution, slot=Optional(SLOT))
@dataclass(frozen=True)
class SubmitContribution:
    """A signed contribution on its way to the cloud service.

    The round it enters is the one ``contribution.round_id`` names, under
    the signature, so no sender can aim a contribution at another round.
    ``slot`` names the mask slot the sender claims to consume — the
    protocol monitor uses it to catch equivocation (two different signed
    values for one slot).
    """

    contribution: SignedContribution
    slot: int | None = None

    @property
    def round_id(self) -> int:
        return self.contribution.round_id


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


@wire(0x8009, round_id=ROUND_ID, repair=Optional(Packed()), repaired=SIZE)
@dataclass(frozen=True)
class FinalizeRound:
    """Close a round at the service, handing over its §3 repair.

    ``repair`` is the ring sum of the ``repaired`` dropped slots' verified
    masks as packed big-endian u64 words, or ``None`` when no slot
    dropped.  Under sum-zero blinding the sum is all the service needs to
    cancel the missing masks, so it never sees one on its own.
    """

    round_id: int
    repair: bytes | None = None
    repaired: int = 0


@wire(0x800A, round_id=ROUND_ID)
@dataclass(frozen=True)
class CloseRound:
    """Tell a client the round is over: purge Glimmer mask state."""

    round_id: int

