"""§4.2 Glimmer-as-a-service: Glimmers for clients without trusted hardware.

"Given the increasing trend towards Internet of things (IoT) devices, there
are likely to be some devices that will make user contributions that must
be trustworthy, but do not have a processor with trusted computing
capabilities.  In this case, we envision that a neutral third party may
supply the capability to run a Glimmer."

The cast:

* :class:`RemoteGlimmerHost` — the third party (a set-top box, the user's
  university, the EFF): a :class:`~repro.core.client.ClientDevice` whose
  vetted Glimmer also answers two network calls for clients, and relays
  opaque ciphertexts;
* :class:`IoTClient` — a device with no TEE.  "The main criterion is that
  the client device needs to establish that it is sending its private data
  to a genuine Glimmer" — it verifies the host's quote (verification needs
  no TEE), binds the Glimmer's DH value via the quote's report data, then
  ships its contribution *and* private validation data encrypted end to end
  into the enclave.  The host sees only ciphertext.

To the round engine an :class:`IoTClient` is one more device; its
device↔host legs cross the bus, where E10 prices the host placements
the paper lists as link latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.codec import Bytes, Int, wire
from repro.core.client import ClientDevice, LocalDataStore
from repro.core.glimmer import ProcessRequest, _encode_remote_payload, decode_remote_response
from repro.core.provisioning import VettingRegistry, _verify_bound_quote
from repro.core.signing import SignedContribution
from repro.crypto.cipher import AuthenticatedCipher, SealedBox
from repro.crypto.dh import DHGroup, DHKeyPair, OAKLEY_GROUP_1
from repro.crypto.drbg import HmacDrbg
from repro.network.transport import Network
from repro.perf import kernels
from repro.runtime.messages import client_endpoint
from repro.sgx.attestation import AttestationService, Quote
from repro.sgx.measurement import EnclaveImage


@wire(0x810C, session_id=Bytes(), dh_public=Int(1), quote=Quote)
@dataclass(frozen=True)
class AttestedOffer:
    """The host's answer to an attestation request: DH value + binding quote."""

    session_id: bytes
    dh_public: int
    quote: Quote


class RemoteGlimmerHost(ClientDevice):
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
        super().__init__(host_name, glimmer_image, attestation_service, seed)
        self.network = network
        network.register(
            host_name,
            {
                "attest-glimmer": self._handle_attest,
                "remote-contribution": self._handle_contribution,
            },
        )

    def _handle_attest(self, message) -> AttestedOffer:
        return AttestedOffer(*self.handshake_request())

    def _handle_contribution(self, message) -> bytes:
        session_id, client_dh_public, ciphertext = message.payload
        return self.glimmer.ecall(
            "process_remote", session_id, client_dh_public, ciphertext
        )


def _on_host(name: str) -> property:
    """The host's attribute or method ``name``, read and set through a device."""
    return property(
        lambda device: getattr(device.host, name),
        lambda device, value: setattr(device.host, name, value),
    )


class IoTClient:
    """A TEE-less device contributing through a remote Glimmer.

    It has the device surface the round engine drives, but the Glimmer it
    names and every call that acts on one are its host's: devices behind
    one host share its Glimmer and its one mask session with the blinder.
    The device keeps only its own slot per round.
    """

    glimmer = _on_host("glimmer")
    platform = _on_host("platform")
    crashed = _on_host("crashed")
    mask_session = _on_host("mask_session")
    unanswered_handshake = _on_host("unanswered_handshake")
    handshake_request = _on_host("handshake_request")
    checkpoint_round = _on_host("checkpoint_round")
    discard_checkpoint = _on_host("discard_checkpoint")
    crash = _on_host("crash")
    restart = _on_host("restart")
    # Direct-call provisioning, as a ClientDevice does it: the host's
    # handshake and Glimmer, this device's slot.
    provision_mask = ClientDevice.provision_mask

    def __init__(
        self,
        client_id: str,
        host: RemoteGlimmerHost,
        attestation_service: AttestationService,
        registry: VettingRegistry,
        glimmer_name: str,
        seed: bytes,
        group: DHGroup = OAKLEY_GROUP_1,
        data: LocalDataStore | None = None,
    ) -> None:
        self.client_id = client_id
        self.host = host
        self.attestation = attestation_service
        self.registry = registry
        self.glimmer_name = glimmer_name
        self.group = group
        """Must match the Glimmer's handshake group (its service-identity group)."""
        self.data = data or LocalDataStore()
        """The device's private data; its ``extra`` fields travel to the
        Glimmer inside the ciphertext."""
        self.rng = HmacDrbg(seed, personalization=f"iot:{client_id}")
        self._party_index_for_round: dict[int, int] = {}

    def install_mask(
        self, round_id: int, party_index: int, delivery, commitment=None
    ) -> None:
        self.host.install_mask(round_id, party_index, delivery, commitment)
        self._party_index_for_round[round_id] = party_index

    def party_index_for(self, round_id: int) -> int | None:
        return self._party_index_for_round.get(round_id)

    def close_round(self, round_id: int) -> None:
        self.host.close_round(round_id)
        self._party_index_for_round.pop(round_id, None)

    # --------------------------------------------------------- contribution

    def contribute(
        self,
        round_id: int,
        values: Sequence[float] | bytes,
        features: Sequence[tuple[str, str]],
    ) -> SignedContribution:
        """Attest the remote Glimmer, then contribute through it, blinded.

        Raises :class:`AttestationError` if the host cannot present a quote
        for the vetted measurement binding its handshake value — the check
        that stops a malicious host from substituting its own software for
        the Glimmer.
        """
        name, host_name = client_endpoint(self.client_id), self.host.client_id
        network = self.host.network
        offer: AttestedOffer = network.call(name, host_name, "attest-glimmer", None)
        expected = self.registry.approved_measurement(self.glimmer_name)
        _verify_bound_quote(self.attestation.verify, offer.quote, expected, offer.dh_public)
        keypair = DHKeyPair.generate(self.group, self.rng)
        cipher = AuthenticatedCipher(
            keypair.derive_key(offer.dh_public, "glimmer-as-a-service")
        )
        request = ProcessRequest(
            round_id=round_id,
            values=values if isinstance(values, bytes) else kernels.be_doubles_to_bytes(values),
            features=tuple(features),
            party_index=self._party_index_for_round.get(round_id, 0),
        )
        payload = _encode_remote_payload(request, self.data.context_for(()))
        box = cipher.encrypt(self.rng.generate(16), payload, associated_data=offer.session_id)
        encrypted_response = network.call(
            name, host_name, "remote-contribution",
            (offer.session_id, keypair.public, box.to_bytes()),
        )
        response = cipher.decrypt(
            SealedBox.from_bytes(encrypted_response),
            associated_data=offer.session_id + b":response",
        )
        return decode_remote_response(response)
