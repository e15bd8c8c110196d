"""Bus-facing adapters for the round participants.

Each adapter turns one protocol party into a named transport endpoint:
handler keys are the message kinds in :mod:`repro.runtime.messages`, and
handler bodies call the party's existing methods — the parties themselves
do not know about the bus.  The client adapter is the interesting one: a
``client/provision-mask`` or ``client/contribute`` command makes the
*client* originate further messages (mask request to the blinding
service, signed submission to the cloud service), so the full §3 message
flow goes over the wire, adversaries included.

Since the response leg of a call can now drop (see
:mod:`repro.network.transport`), delivery is at-least-once and every
handler with side effects is idempotent **for retransmissions**: when
``message.attempt > 1`` the handler may answer from its result cache.  A
*fresh* message carrying old content (``attempt == 1``) never takes that
shortcut — replay attacks still face the strict protocol checks, which is
exactly the distinction E2's replay arm relies on.

This is also where the client-lifecycle fault sites live: a faulted run
can kill the client process while it handles a command — before signing,
or in the gap after the Glimmer signed but before the submission went out
— which is the adversarial timing the sealed-checkpoint recovery design
exists to survive.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.core.client import mask_delivery
from repro.core.glimmer import received_features
from repro.errors import (
    CryptoError,
    EnclaveError,
    NetworkError,
    ProtocolError,
    ValidationError,
)
from repro.faults import (
    ACTION_CRASH,
    SITE_CLIENT_POST_SIGN,
    SITE_CLIENT_PRE_SIGN,
    SITE_CLIENT_PROVISION,
)
from repro.network.message import Message
from repro.runtime import messages as m
from repro.runtime.wire import check_rules
from repro.runtime.telemetry import (
    OUTCOME_ACCEPTED,
    OUTCOME_CRASHED,
    OUTCOME_SERVICE_REJECTED,
    OUTCOME_SUBMIT_FAILED,
    OUTCOME_VALIDATION_REJECTED,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine import RoundEngine


class _Endpoint:
    """A party on the bus.  Every inbound message is held to its kind's
    class and rule (:func:`~repro.runtime.wire.check_rules`) before the
    method ``ROUTES`` names for its kind runs."""

    ROUTES: dict[str, str] = {}  # kind -> handler method name

    def handlers(self) -> dict:
        return dict.fromkeys(self.ROUTES, self.handle)

    def handle(self, message: Message):
        check_rules(message.kind, message.sender, message.payload)
        return getattr(self, self.ROUTES[message.kind])(message)


class ServiceEndpoint(_Endpoint):
    """The cloud service as a transport endpoint."""

    ROUTES = {
        m.KIND_OPEN_SERVICE: "_handle_open",
        m.KIND_SUBMIT: "_handle_submit",
        m.KIND_QUERY_SUBMISSION: "_handle_query_submission",
        m.KIND_FINALIZE: "_handle_finalize",
    }

    def __init__(self, service, monitor) -> None:
        self.service = service
        self.monitor = monitor
        #: round -> nonce -> verdict, for answering retransmissions.
        self._submit_results: dict[int, dict[bytes, bool]] = {}

    def _handle_open(self, message: Message):
        request: m.OpenServiceRound = message.payload
        if message.attempt > 1:
            try:
                self.service.round_state(request.round_id)
            except ProtocolError:
                pass
            else:
                return True  # the earlier attempt's open landed; ack again
        self.service.open_round(
            request.round_id,
            request.expected_parties,
            subgroup_size=request.subgroup_size,
        )
        return True

    def _handle_submit(self, message: Message) -> bool:
        request: m.SubmitContribution = message.payload
        nonce = request.contribution.nonce
        verdicts = self._submit_results.get(request.round_id)
        if message.attempt > 1 and verdicts and nonce in verdicts:
            # Retransmission of a submission whose verdict we already
            # issued but whose response leg was lost.  Answering from
            # cache keeps at-least-once delivery from double-counting.
            # Fresh replays (attempt == 1) skip this and hit the
            # replayed-nonce check in admit(), as they must.
            return verdicts[nonce]
        return self.admit(
            request.round_id,
            message.sender,
            request.slot,
            request.contribution,
            retransmit=message.attempt > 1,
        )

    def admit(
        self,
        round_id: int,
        sender: str,
        slot: int | None,
        contribution,
        *,
        retransmit: bool = False,
        verified: bool = False,
    ) -> bool:
        """The one admission sequence: monitor gate, service, monitor ledger.

        Every contribution that can count passes through here exactly
        once — off the wire (:meth:`_handle_submit`) or from the pool
        merge, which sets ``verified`` when a worker already checked the
        Glimmer signature (``CloudService.submit_verified``).  Raises
        :class:`ProtocolViolation` when the monitor refuses the sender.
        """
        nonce = contribution.nonce
        self.monitor.check_submit(round_id, sender, slot, nonce, retransmit=retransmit)
        submit = self.service.submit_verified if verified else self.service.submit
        accepted = submit(round_id, contribution, slot=slot)
        self._submit_results.setdefault(round_id, {})[nonce] = accepted
        if accepted:
            self.monitor.note_accepted(round_id, sender, slot, nonce)
        else:
            self.monitor.note_rejected(round_id, sender, "service-rejected")
        return accepted

    def _handle_query_submission(self, message: Message) -> bool:
        """Reconciliation: was this nonce accepted into its round?"""
        request: m.SubmissionStatusQuery = message.payload
        try:
            state = self.service.round_state(request.round_id)
        except ProtocolError:
            return False
        return request.nonce in state.seen_nonces

    def _handle_finalize(self, message: Message):
        request: m.FinalizeRound = message.payload
        return self.service.finalize_blinded_round(
            request.round_id, request.repair, request.repaired
        )

    def close_round(self, round_id: int) -> None:
        """Drop the round's retransmission verdicts (engine lifecycle call)."""
        self._submit_results.pop(round_id, None)


class BlinderEndpoint(_Endpoint):
    """The blinding service as a transport endpoint."""

    ROUTES = {
        m.KIND_OPEN_BLINDER: "_handle_open",
        m.KIND_MASK_REQUEST: "_handle_mask_request",
        m.KIND_REVEAL_MASK: "_handle_reveal",
    }

    def __init__(self, provisioner, monitor) -> None:
        self.provisioner = provisioner
        self.monitor = monitor

    def _handle_open(self, message: Message):
        request: m.OpenBlinderRound = message.payload
        if message.attempt > 1 and self.provisioner.has_round(request.round_id):
            # The earlier attempt's open landed and only its reply was
            # lost: re-answer with the same published commitment set.
            return self.provisioner.round_commitments(request.round_id)
        return self.provisioner.open_round(
            request.round_id,
            request.num_parties,
            request.vector_length,
            subgroup_size=request.subgroup_size,
        )

    def _handle_mask_request(self, message: Message):
        request: m.MaskRequest = message.payload
        self.monitor.check_active(request.round_id, message.sender, "mask request")
        # Stateless per request: a repeated full request is answered with
        # a fresh delivery, and its quote from the session table's cache.
        return self.provisioner.provision_mask(
            request.session_id,
            request.dh_public,
            request.quote,
            request.round_id,
            request.party_index,
        )

    def _handle_reveal(self, message: Message):
        request: m.RevealMask = message.payload
        return self.provisioner.reveal_dropout_mask(
            request.round_id, request.party_index
        )


# ------------------------------------------------------------ the device step
#
# What a device does with a provision or a contribute command, written once
# and free of transport: the bus handler below, the pool worker
# (:mod:`repro.scale.pool`) and the parent's slot-order merge
# (:mod:`repro.scale.rounds`) all run these, each plugging in its own I/O.
# ``ledger`` is whatever books the paper's protocol ecalls for the caller
# (the engine's round record, a worker's result): anything with ``ecalls``.


def provision_step(client, command: m.ProvisionMask, request_delivery, ledger) -> None:
    """Mask request (in session, or attested handshake) → install the
    delivered mask → sealed checkpoint.

    ``request_delivery(session_id, dh_public, quote)`` is the leg to the
    blinding service: a bus call with retries, or a worker's local
    :func:`~repro.core.provisioning.seal_delivery`; the host's side is
    :func:`~repro.core.client.mask_delivery`.  Whatever the Glimmer
    raises — above all :class:`~repro.errors.MaskVerificationError`, which
    is evidence against the blinder — propagates to the caller.
    """

    def handshake():
        ledger.ecalls += 1  # begin_handshake
        return client.handshake_request()

    mask_delivery(
        client,
        handshake,
        request_delivery,
        lambda delivery: client.install_mask(
            command.round_id, command.party_index, delivery, command.commitment
        ),
    )
    ledger.ecalls += 1  # install_blinding_mask
    # Seal the freshly installed mask so a later crash in this round is
    # recoverable.  Not charged to the ledger, which tracks the paper's
    # three-ecall protocol path per client.
    client.checkpoint_round(command.round_id)


def sign_step(client, command: m.ContributeCommand, features: bytes, ledger):
    """Validate, blind and sign: ``(signed, None)``, or ``(None, (outcome,
    detail))`` when the Glimmer refused the values or is down.

    The values are the device's own, read from its local store
    (:meth:`~repro.core.client.LocalDataStore.vector_for`); the command
    only names the round, and ``features`` is the published list the host
    holds, packed as it crossed the bus; the Glimmer unpacks it.  Once
    the Glimmer has answered, the device lets go of its input.  An error
    that escapes (a §4.2 device's link to its host is down) leaves the
    input for the command's retransmission.
    """
    try:
        values = client.data.vector_for(command.round_id)
        ledger.ecalls += 1  # process_contribution (charged even on rejection)
        result = client.contribute(command.round_id, values, features), None
    except ValidationError as exc:
        result = None, (OUTCOME_VALIDATION_REJECTED, str(exc))
    except (EnclaveError, CryptoError, ProtocolError) as exc:
        # Enclave killed mid-ecall, mask unavailable after an
        # unrecoverable checkpoint, or key state missing: the client
        # is effectively down for this round until restarted.
        result = None, (OUTCOME_CRASHED, str(exc))
    client.data.drop_vector(command.round_id)
    return result


def submit_step(client, round_id: int, submit) -> tuple[str, str | None]:
    """Hand the signed contribution over; the device's outcome for the round.

    ``submit()`` says whether the service accepted it — over the bus
    (:meth:`RoundEngine.submit_signed`) or by the pool merge's direct
    :meth:`ServiceEndpoint.admit`.  Only an accepted contribution lets go
    of the round's sealed checkpoint.
    """
    try:
        accepted = submit()
    except NetworkError as exc:
        return OUTCOME_SUBMIT_FAILED, str(exc)
    if accepted:
        client.discard_checkpoint(round_id)
        return OUTCOME_ACCEPTED, None
    return OUTCOME_SERVICE_REJECTED, None


class ClientEndpoint(_Endpoint):
    """One client device as a transport endpoint.

    Engine commands arrive here; the resulting client-originated traffic
    (attested mask requests, signed submissions) goes back out over the
    same network under this endpoint's name, so eavesdroppers see exactly
    what a real on-path attacker would.

    The host keeps the last feature list it received (public data, held
    to its carried digest at the wire), inflated from its bus form into
    the one packed blob every host shares, and uses it for a command that
    carries none, so the Glimmer always gets — and checks against its
    measured digest — the whole list.
    """

    ROUTES = {
        m.KIND_PROVISION_MASK: "_handle_provision",
        m.KIND_CONTRIBUTE: "_handle_contribute",
        m.KIND_CLOSE_ROUND: "_handle_close",
    }

    def __init__(self, engine: "RoundEngine", client, name: str) -> None:
        self.engine = engine
        self.client = client
        self.name = name
        self._contribute_outcomes: dict[int, tuple[str, str | None]] = {}
        self._features = b""

    def _fire(self, site: str, round_id: int) -> bool:
        injector = self.engine.fault_injector
        if injector is None:
            return False
        return (
            injector.fire(
                site, client_id=self.client.client_id, round_id=round_id
            )
            == ACTION_CRASH
        )

    def _handle_provision(self, message: Message) -> bool:
        request: m.ProvisionMask = message.payload
        record = self.engine.round_record(request.round_id)
        self.engine.note_client_join(record, self.client)
        if (
            message.attempt > 1
            and self.client.party_index_for(request.round_id) == request.party_index
        ):
            return True  # mask already installed; only the ack was lost
        if self._fire(SITE_CLIENT_PROVISION, request.round_id):
            self.client.crash()
            raise EnclaveError(
                f"client {self.client.client_id!r} crashed while provisioning "
                f"round {request.round_id} (injected fault)"
            )

        def request_mask(session_id: bytes, dh_public, quote):
            return self.engine.call_with_retry(
                record,
                self.name,
                m.BLINDER,
                m.KIND_MASK_REQUEST,
                m.MaskRequest(
                    session_id=session_id,
                    dh_public=dh_public,
                    quote=quote,
                    round_id=request.round_id,
                    party_index=request.party_index,
                    group=None if dh_public is None else self.engine.group,
                ),
            )

        provision_step(self.client, request, request_mask, record)
        return True

    def _handle_contribute(self, message: Message) -> tuple[str, str | None]:
        command: m.ContributeCommand = message.payload
        record = self.engine.round_record(command.round_id)
        self.engine.note_client_join(record, self.client)
        if message.attempt > 1 and command.round_id in self._contribute_outcomes:
            # Retransmitted command: the earlier attempt ran to completion
            # and only its response was lost.  Re-running it would re-sign
            # (or double-submit); answer from the cache instead.
            return self._contribute_outcomes[command.round_id]
        if command.features is not None:
            self._features = received_features(command.features, command.features_digest)
        outcome = self._contribute(command, record)
        self._contribute_outcomes[command.round_id] = outcome
        return outcome

    def _contribute(
        self, command: m.ContributeCommand, record
    ) -> tuple[str, str | None]:
        """The device steps for a contribute command, between the fault sites."""
        if self._fire(SITE_CLIENT_PRE_SIGN, command.round_id):
            self.client.crash()
            return OUTCOME_CRASHED, "killed before the Glimmer signed"
        signed, failure = sign_step(self.client, command, self._features, record)
        if failure is not None:
            return failure
        if self._fire(SITE_CLIENT_POST_SIGN, command.round_id):
            # The nastiest timing: the mask is consumed and the signing
            # counter advanced, but nothing was submitted.  Recovery must
            # NOT resurrect the mask (rollback check) — the slot gets
            # repaired by reveal instead.
            self.client.crash()
            return OUTCOME_CRASHED, "killed after signing, before submission"
        return submit_step(
            self.client, command.round_id, partial(self._submit, command, signed)
        )

    def _submit(self, command: m.ContributeCommand, signed) -> bool:
        """Put one signed contribution on the wire, under this device's name."""
        return self.engine.submit_signed(
            self.client.client_id, command.round_id, signed
        )

    def _handle_close(self, message: Message) -> bool:
        """Round teardown: purge the Glimmer's per-round mask state."""
        command: m.CloseRound = message.payload
        self.client.close_round(command.round_id)
        self._contribute_outcomes.pop(command.round_id, None)
        return True
