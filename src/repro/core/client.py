"""Client devices: honest, and the rogues' gallery of Figure 1d.

A :class:`ClientDevice` owns an SGX platform, loads the vetted Glimmer
image, serves the Glimmer's ocalls for private data from its local stores,
and drives the attested provisioning handshakes.  Its
:meth:`contribute` method is the end-to-end client path of Figure 3:
train → hand to Glimmer → relay whatever the Glimmer endorsed.

:class:`MaliciousClient` extends it with every cheat the paper discusses:

* ``poison_*`` — feed manipulated values to the Glimmer (caught or not by
  the predicate, per the E6 ladder);
* ``forge_evidence`` — answer the Glimmer's private-data ocall with
  fabricated context (robotic keystroke traces, fake sentences);
* ``bypass_glimmer`` — submit a self-signed contribution without any
  enclave (fails the service's signature check);
* ``tamper_after_signing`` — alter a genuinely signed payload in transit
  (breaks the signature).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.glimmer import (
    BLINDING_MASK_CONTEXT,
    ProcessRequest,
    session_handle,
)
from repro.core.provisioning import BlinderProvisioner, ServiceProvisioner
from repro.core.signing import SignedContribution
from repro.core.validation import PrivateContext
from repro.crypto.drbg import HmacDrbg
from repro.crypto.schnorr import SchnorrKeyPair
from repro.errors import (
    AttestationError,
    AuthenticationError,
    EnclaveError,
    ReproError,
)
from repro.faults import ACTION_LOSE, SITE_SEAL_LOSS
from repro.sgx.attestation import AttestationService, report_data_for
from repro.sgx.enclave import Enclave
from repro.sgx.measurement import EnclaveImage
from repro.sgx.platform import SgxPlatform


@dataclass
class LocalDataStore:
    """Everything private on the device the Glimmer may request via ocall."""

    sentences: list = field(default_factory=list)
    keystroke_trace: object | None = None
    geo_context: object | None = None
    shopping_context: object | None = None
    session_signals: object | None = None
    video_stream: object | None = None
    extra: dict = field(default_factory=dict)

    def context_for(self, fields: Sequence[str]) -> PrivateContext:
        context = PrivateContext(extra=dict(self.extra))
        for name in fields:
            if hasattr(context, name):
                setattr(context, name, getattr(self, name))
        return context


def attested_handshake(platform, enclave, session_id: bytes):
    """``begin_handshake``, and the quote that binds its DH value."""
    dh_public = enclave.ecall("begin_handshake", session_id)
    quote = platform.quote_enclave(
        enclave, report_data_for(dh_public.to_bytes(256, "big"))
    )
    return session_id, dh_public, quote


def mask_delivery(host, handshake, request_delivery, install):
    """The host half of §3's attested mask delivery; returns what
    ``install`` did.

    ``request_delivery(session_id, dh_public, quote)`` is the transport to
    the blinding service (direct call, bus call, a worker's local seal),
    ``install(delivery)`` the ecall.  ``host.mask_session`` is the handle
    of the host's live session with the blinder, if any.  Holding one, the
    host asks in it — ``request_delivery(handle, None, None)``: no quote,
    no DH value.  Otherwise ``handshake()`` yields the enclave's
    ``(session_id, dh_public, quote)`` for a full attested delivery, and
    the host keeps the :func:`~repro.core.glimmer.session_handle` of the
    session it opens.  A handshake whose request got no answer is kept in
    ``host.unanswered_handshake`` and sent again, rather than a new one
    begun: the blinder answers a repeat without a second session, and the
    enclave holds no keypair for a handshake nobody will answer.

    The one retry rule: an in-session request the blinder refuses
    (:class:`AttestationError`: revoked, new epoch, lapsed, unknown) or
    whose delivery the enclave cannot open (:class:`AuthenticationError`:
    it restarted) ends the session, and one full delivery runs.  Anything
    else — above all a :class:`~repro.errors.MaskVerificationError`,
    which is evidence against the blinder — propagates, and the session
    stands.
    """
    if host.mask_session is not None:
        try:
            return install(request_delivery(host.mask_session, None, None))
        except (AttestationError, AuthenticationError):
            host.mask_session = None
    if host.unanswered_handshake is None:
        host.unanswered_handshake = handshake()
    offer = host.unanswered_handshake
    delivery = request_delivery(*offer)
    host.unanswered_handshake = None
    installed = install(delivery)
    session_id, dh_public, _quote = offer
    host.mask_session = session_handle(
        BLINDING_MASK_CONTEXT, session_id, dh_public, delivery.peer_dh_public
    )
    return installed


class ClientDevice:
    """An honest client: device, platform, Glimmer, and local data."""

    def __init__(
        self,
        client_id: str,
        glimmer_image: EnclaveImage,
        attestation_service: AttestationService,
        seed: bytes,
        data: LocalDataStore | None = None,
    ) -> None:
        self.client_id = client_id
        self.rng = HmacDrbg(seed, personalization=f"client:{client_id}")
        self.data = data or LocalDataStore()
        self.image = glimmer_image
        self.platform = SgxPlatform(
            seed + b":platform", attestation_service=attestation_service
        )
        self.glimmer: Enclave = self.platform.load_enclave(
            glimmer_image,
            ocall_handlers={"collect_private_data": self._serve_private_data},
        )
        self._session_counter = 0
        #: Handle of this host's live session with the blinding service,
        #: and a full mask request still waiting for its answer.
        self.mask_session: bytes | None = None
        self.unanswered_handshake: tuple | None = None
        self._party_index_for_round: dict[int, int] = {}
        self._sealed_signing_key: bytes | None = None
        self._checkpoints: dict[int, bytes] = {}

    # ----------------------------------------------------------- ocall side

    def _serve_private_data(self, fields: Sequence[str]) -> PrivateContext:
        """The host's answer to the Glimmer's private-data request."""
        return self.data.context_for(fields)

    # --------------------------------------------------------- provisioning

    def handshake_request(self) -> tuple[bytes, int, object]:
        """Start an attested handshake; the tuple is what goes on the wire
        to a provisioner, whose :class:`KeyDelivery` answer is fed to
        :meth:`install_mask` (or ``install_signing_key``)."""
        self._session_counter += 1
        session_id = (
            self.client_id.encode("utf-8")
            + self._session_counter.to_bytes(4, "big")
        )
        return attested_handshake(self.platform, self.glimmer, session_id)

    def install_mask(
        self, round_id: int, party_index: int, delivery, commitment=None
    ) -> None:
        """Install a delivered blinding mask for ``round_id``.

        When ``commitment`` (the slot's engine-vouched
        :class:`~repro.crypto.commitments.MaskCommitmentRecord`) is given,
        the Glimmer verifies the delivered mask opens it before
        installing — see ``install_blinding_mask``.
        """
        self.glimmer.ecall(
            "install_blinding_mask", round_id, party_index, delivery, commitment
        )
        self._party_index_for_round[round_id] = party_index

    def party_index_for(self, round_id: int) -> int | None:
        """The slot this client holds a mask for in ``round_id``, if any."""
        return self._party_index_for_round.get(round_id)

    def provision_signing_key(self, provisioner: ServiceProvisioner) -> bytes:
        """Obtain the service signing key; returns the sealed backup blob.

        The blob is also kept on the (untrusted) device so a restarted
        Glimmer can reload its key via ``restore_signing_key`` — sealing
        means keeping it here leaks nothing.
        """
        self._sealed_signing_key = self.glimmer.ecall(
            "install_signing_key",
            provisioner.provision_signing_key(*self.handshake_request()),
        )
        return self._sealed_signing_key

    def provision_mask(
        self, provisioner: BlinderProvisioner, round_id: int, party_index: int
    ) -> None:
        """Obtain this round's blinding mask from the blinding service."""
        commitment = provisioner.round_commitments(round_id).record_for(party_index)
        mask_delivery(
            self,
            self.handshake_request,
            lambda *request: provisioner.provision_mask(
                *request, round_id, party_index
            ),
            lambda delivery: self.install_mask(
                round_id, party_index, delivery, commitment
            ),
        )

    # --------------------------------------------------------- contribution

    def contribute(
        self,
        round_id: int,
        values: Sequence[float],
        features: Sequence[tuple[str, str]],
        blind: bool = True,
        claims: dict | None = None,
        context_fields: Sequence[str] = (),
    ) -> SignedContribution:
        """The honest path: hand values to the Glimmer, relay its endorsement.

        Raises :class:`ValidationError` if the Glimmer rejects — an honest
        client simply does not submit in that case.
        """
        request = ProcessRequest(
            round_id=round_id,
            values=tuple(float(v) for v in values),
            features=tuple(features),
            blind=blind,
            party_index=self._party_index_for_round.get(round_id, 0),
            claims=dict(claims or {}),
            context_fields=tuple(context_fields),
        )
        return self.glimmer.ecall("process_contribution", request)

    # ------------------------------------------------------- crash / recovery

    @property
    def crashed(self) -> bool:
        return not self.glimmer.alive

    def attach_checkpoint_store(self, store) -> None:
        """Swap the sealed-checkpoint holder for a persistent mapping.

        Same seam as the blinder's ``attach_sealed_store``: ``store`` is
        any ``MutableMapping[int, bytes]``, existing blobs migrate in,
        and :meth:`restart` recovers from whatever the store holds —
        including checkpoints a previous process sealed.
        """
        for round_id, blob in self._checkpoints.items():
            store[round_id] = blob
        self._checkpoints = store

    def checkpoint_round(self, round_id: int) -> bytes:
        """Seal the round's enclave state and keep the blob device-side."""
        blob = self.glimmer.ecall("checkpoint_round", round_id)
        self._checkpoints[round_id] = blob
        return blob

    def discard_checkpoint(self, round_id: int) -> None:
        """Drop a checkpoint once its round no longer needs recovery."""
        self._checkpoints.pop(round_id, None)

    def close_round(self, round_id: int) -> None:
        """The round is over: purge Glimmer mask state, checkpoint, slot.

        Best-effort — a crashed client simply has nothing to purge, and
        a purge failure must never fail the round that already closed.
        Enclave mask state, the sealed checkpoint and the host-side slot
        number all go; the device keeps nothing for a closed round.
        """
        if self.glimmer.alive:
            try:
                self.glimmer.ecall("close_round", round_id)
            except ReproError:
                pass
        self.discard_checkpoint(round_id)
        self._party_index_for_round.pop(round_id, None)

    def crash(self) -> None:
        """The untrusted OS kills the client process: enclave memory is gone.

        Everything platform-held (sealing root, monotonic counters) and
        everything host-held (sealed blobs, session counter) survives —
        exactly the SGX failure model the sealed-checkpoint design targets.
        """
        if self.glimmer.alive:
            self.glimmer.destroy()

    def restart(self) -> list[int]:
        """Reload the Glimmer and recover sealed state; returns restored rounds.

        The signing key reloads from its sealed backup; each round
        checkpoint is offered to ``restore_round``, which refuses stale
        (rolled-back) blobs — those rounds stay unrecovered, their slots
        get repaired by mask reveal instead of risking a double-submit.
        A faulted host may also have lost checkpoint blobs entirely
        (``SITE_SEAL_LOSS``); that degrades to the same repair path.
        """
        if self.glimmer.alive:
            self.glimmer.destroy()
        self.unanswered_handshake = None  # its keypair died with the enclave
        self.glimmer = self.platform.load_enclave(
            self.image,
            ocall_handlers={"collect_private_data": self._serve_private_data},
        )
        if self._sealed_signing_key is not None:
            self.glimmer.ecall("restore_signing_key", self._sealed_signing_key)
        injector = getattr(self.platform, "fault_injector", None)
        restored: list[int] = []
        for round_id in sorted(self._checkpoints):
            if injector is not None and (
                injector.fire(
                    SITE_SEAL_LOSS, client_id=self.client_id, round_id=round_id
                )
                == ACTION_LOSE
            ):
                del self._checkpoints[round_id]
                continue
            try:
                self.glimmer.ecall("restore_round", self._checkpoints[round_id])
            except EnclaveError:
                # Stale checkpoint (rollback refused) or unsealable blob;
                # recovery for this round is repair-by-reveal, not restore.
                continue
            restored.append(round_id)
        return restored


class MaliciousClient(ClientDevice):
    """A client that cheats at every layer it controls."""

    def poison_values(
        self,
        round_id: int,
        poisoned: Sequence[float],
        features: Sequence[tuple[str, str]],
        blind: bool = True,
        claims: dict | None = None,
    ) -> SignedContribution:
        """Feed manipulated values through the Glimmer (Figure 1d's attempt).

        Whether this raises :class:`ValidationError` is the whole game:
        the predicate decides.
        """
        return self.contribute(
            round_id, poisoned, features, blind=blind, claims=claims
        )

    def forge_evidence(self, **overrides) -> None:
        """Replace the private data the device serves to the Glimmer."""
        for name, value in overrides.items():
            if name == "extra":
                self.data.extra.update(value)
            else:
                setattr(self.data, name, value)

    def bypass_glimmer(
        self,
        round_id: int,
        values: Sequence[float],
        blinded_shape: bool = True,
    ) -> SignedContribution:
        """Fabricate a contribution signed with a key the attacker made up.

        Without genuine attestation the attacker cannot obtain the real
        signing key, so a self-generated key is the best available forgery.
        """
        forged_key = SchnorrKeyPair.generate(self.rng.fork("forged-key"))
        nonce = self.rng.generate(16)
        if blinded_shape:
            ring = tuple(
                int(round(float(v) * (1 << 16))) % (1 << 64) for v in values
            )
            plain = None
        else:
            ring = None
            plain = tuple(float(v) for v in values)
        from repro.core.signing import contribution_digest

        digest = contribution_digest(round_id, nonce, blinded_shape, ring, plain, 1.0)
        return SignedContribution(
            round_id=round_id,
            nonce=nonce,
            blinded=blinded_shape,
            ring_payload=ring,
            plain_payload=plain,
            confidence=1.0,
            signature=forged_key.sign(digest),
        )

    def tamper_after_signing(
        self, genuine: SignedContribution, boost: float = 538.0
    ) -> SignedContribution:
        """Rewrite a genuinely signed payload without re-signing."""
        if genuine.ring_payload is not None:
            mutated = list(genuine.ring_payload)
            mutated[0] = (mutated[0] + int(boost) * (1 << 16)) % (1 << 64)
            return SignedContribution(
                round_id=genuine.round_id,
                nonce=genuine.nonce,
                blinded=genuine.blinded,
                ring_payload=tuple(mutated),
                plain_payload=None,
                confidence=genuine.confidence,
                signature=genuine.signature,
            )
        mutated_plain = list(genuine.plain_payload or ())
        if mutated_plain:
            mutated_plain[0] = boost
        return SignedContribution(
            round_id=genuine.round_id,
            nonce=genuine.nonce,
            blinded=genuine.blinded,
            ring_payload=None,
            plain_payload=tuple(mutated_plain),
            confidence=genuine.confidence,
            signature=genuine.signature,
        )

    def replay(self, genuine: SignedContribution) -> SignedContribution:
        """Submit a copy of an already-submitted contribution."""
        return genuine
