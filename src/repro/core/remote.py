"""§4.2 Glimmer-as-a-service: Glimmers for clients without trusted hardware.

"Given the increasing trend towards Internet of things (IoT) devices, there
are likely to be some devices that will make user contributions that must
be trustworthy, but do not have a processor with trusted computing
capabilities.  In this case, we envision that a neutral third party may
supply the capability to run a Glimmer."

The cast:

* :class:`RemoteGlimmerHost` — the third party (a set-top box, the user's
  university, the EFF) owning an SGX platform that hosts a vetted Glimmer
  and relays opaque ciphertexts for clients;
* :class:`IoTClient` — a device with no TEE.  "The main criterion is that
  the client device needs to establish that it is sending its private data
  to a genuine Glimmer" — it verifies the host's quote (verification needs
  no TEE), binds the Glimmer's DH value via the quote's report data, then
  ships its contribution *and* private validation data encrypted end to end
  into the enclave.  The host sees only ciphertext.

Latency accounting runs over :mod:`repro.network`, so experiment E10 can
price the three host placements the paper lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.client import attested_handshake, mask_delivery
from repro.core.glimmer import (
    ProcessRequest,
    _encode_remote_payload,
    decode_remote_response,
)
from repro.core.provisioning import VettingRegistry, _verify_bound_quote
from repro.core.signing import SignedContribution
from repro.core.validation import PrivateContext
from repro.crypto.cipher import AuthenticatedCipher, SealedBox
from repro.crypto.dh import DHGroup, DHKeyPair, OAKLEY_GROUP_1
from repro.crypto.drbg import HmacDrbg
from repro.network.transport import Network
from repro.sgx.attestation import AttestationService
from repro.sgx.measurement import EnclaveImage
from repro.sgx.platform import SgxPlatform


@dataclass(frozen=True)
class AttestedOffer:
    """The host's answer to an attestation request: DH value + binding quote."""

    session_id: bytes
    dh_public: int
    quote: object


class RemoteGlimmerHost:
    """A TEE-equipped third party hosting a Glimmer for others.

    The host is *not* trusted with data: every client payload it relays is
    encrypted to a key only the enclave holds.  Its honesty matters only
    for availability.
    """

    def __init__(
        self,
        host_name: str,
        glimmer_image: EnclaveImage,
        attestation_service: AttestationService,
        network: Network,
        seed: bytes,
    ) -> None:
        self.host_name = host_name
        self.platform = SgxPlatform(seed, attestation_service=attestation_service)
        self.glimmer = self.platform.load_enclave(glimmer_image)
        self.network = network
        network.register(
            host_name,
            {
                "attest-glimmer": self._handle_attest,
                "remote-contribution": self._handle_contribution,
            },
        )
        self._session_counter = 0
        #: Handle of the hosted Glimmer's live session with the blinder,
        #: and a full mask request still waiting for its answer.
        self.mask_session: bytes | None = None
        self.unanswered_handshake: tuple | None = None

    # ------------------------------------------------------ request handlers

    def _attested_offer(self, prefix: str) -> AttestedOffer:
        self._session_counter += 1
        session_id = f"{self.host_name}:{prefix}:{self._session_counter}".encode()
        return AttestedOffer(
            *attested_handshake(self.platform, self.glimmer, session_id)
        )

    def _handle_attest(self, message) -> AttestedOffer:
        return self._attested_offer("client")

    def _handle_contribution(self, message) -> bytes:
        session_id, client_dh_public, ciphertext = message.payload
        return self.glimmer.ecall(
            "process_remote", session_id, client_dh_public, ciphertext
        )

    # ----------------------------------------------- operator-side plumbing

    def _operator_handshake(self) -> tuple[bytes, int, object]:
        offer = self._attested_offer("operator")
        return offer.session_id, offer.dh_public, offer.quote

    def provision_signing_key(self, provisioner) -> bytes:
        """The host operator provisions the service signing key once."""
        return self.glimmer.ecall(
            "install_signing_key",
            provisioner.provision_signing_key(*self._operator_handshake()),
        )

    def provision_mask(self, provisioner, round_id: int, party_index: int) -> None:
        """Every slot the hosted Glimmer serves rides the host's one session."""
        commitment = provisioner.round_commitments(round_id).record_for(party_index)
        mask_delivery(
            self,
            self._operator_handshake,
            lambda *request: provisioner.provision_mask(
                *request, round_id, party_index
            ),
            lambda delivery: self.glimmer.ecall(
                "install_blinding_mask", round_id, party_index, delivery, commitment
            ),
        )


class IoTClient:
    """A TEE-less device contributing through a remote Glimmer."""

    def __init__(
        self,
        client_id: str,
        network: Network,
        attestation_service: AttestationService,
        registry: VettingRegistry,
        glimmer_name: str,
        seed: bytes,
        group: DHGroup = OAKLEY_GROUP_1,
    ) -> None:
        self.client_id = client_id
        self.network = network
        self.attestation = attestation_service
        self.registry = registry
        self.glimmer_name = glimmer_name
        self.group = group
        """Must match the Glimmer's handshake group (its service-identity group)."""
        self.rng = HmacDrbg(seed, personalization=f"iot:{client_id}")
        network.register(client_id, {})

    def contribute_via(
        self,
        host_name: str,
        round_id: int,
        values: Sequence[float],
        features: Sequence[tuple[str, str]],
        context: PrivateContext,
        blind: bool = True,
        party_index: int = 0,
        claims: dict | None = None,
    ) -> SignedContribution:
        """Attest the remote Glimmer, then contribute through it.

        Raises :class:`AttestationError` if the host cannot present a quote
        for the vetted measurement binding its handshake value — the check
        that stops a malicious host from substituting its own software for
        the Glimmer.
        """
        offer: AttestedOffer = self.network.call(
            self.client_id, host_name, "attest-glimmer", None
        )
        expected = self.registry.approved_measurement(self.glimmer_name)
        _verify_bound_quote(
            self.attestation.verify, offer.quote, expected, offer.dh_public
        )
        keypair = DHKeyPair.generate(self.group, self.rng)
        key = keypair.derive_key(offer.dh_public, "glimmer-as-a-service")
        cipher = AuthenticatedCipher(key)
        request = ProcessRequest(
            round_id=round_id,
            values=tuple(float(v) for v in values),
            features=tuple(features),
            blind=blind,
            party_index=party_index,
            claims=dict(claims or {}),
        )
        payload = _encode_remote_payload(request, context)
        nonce = self.rng.generate(16)
        box = cipher.encrypt(nonce, payload, associated_data=offer.session_id)
        encrypted_response = self.network.call(
            self.client_id,
            host_name,
            "remote-contribution",
            (offer.session_id, keypair.public, box.to_bytes()),
        )
        response = cipher.decrypt(
            SealedBox.from_bytes(encrypted_response),
            associated_data=offer.session_id + b":response",
        )
        return decode_remote_response(response)
