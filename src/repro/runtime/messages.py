"""Typed messages exchanged by the RoundEngine over the transport.

Each round phase has its own message kind so drop models and adversaries
can target individual flows (``DropAdversary(drop_kinds={KIND_SUBMIT})``
models a service-side brownout without touching provisioning, for
example).  Payloads are frozen dataclasses: the wire carries data, never
live object references, which is what lets :func:`payload_size` price them
and adversaries capture or tamper with them meaningfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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


@dataclass(frozen=True)
class OpenServiceRound:
    """Ask the cloud service to start accepting contributions.

    ``subgroup_size > 0`` opens a streaming round: submissions fold into
    per-subgroup accumulators on arrival and raw vectors are released.
    """

    round_id: int
    expected_parties: int
    blinded: bool = True
    subgroup_size: int = 0


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
    commitment: Any = None


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
    quote: Any
    round_id: int
    party_index: int


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
    that device one round, never more.
    """

    round_id: int
    values: tuple
    features: tuple
    features_digest: bytes
    blind: bool = True
    claims: tuple = ()  # (key, value) pairs, immutable like the rest
    context_fields: tuple = ()


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
    contribution: Any
    slot: int | None = None


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


@dataclass(frozen=True)
class RevealMask:
    """§3 dropout repair: ask the blinding service for a missing mask."""

    round_id: int
    party_index: int


@dataclass(frozen=True)
class FinalizeRound:
    """Close a round at the service, handing over any repair masks."""

    round_id: int
    dropout_masks: tuple = field(default=())


@dataclass(frozen=True)
class CloseRound:
    """Tell a client the round is over: purge Glimmer mask state."""

    round_id: int

