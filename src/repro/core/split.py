"""The decomposed Glimmer: one enclave per component (E7 ablation).

§3 closes: "to increase ease of verification, the Glimmer can be decomposed
so that each component runs in its own enclave.  Naturally, communication
between components must now also be secured."  This module implements that
variant so experiment E7 can price it:

* :class:`ValidationEnclaveProgram`, :class:`BlindingEnclaveProgram`, and
  :class:`SigningEnclaveProgram` each hold one of the single Glimmer's
  steps (:mod:`repro.core.glimmer`) — the same code, so the same checks:
  the blinding enclave verifies every mask's commitment opening, adds the
  measured DP noise and advances the blind-signing counter;
* components pair up using **local attestation**: each end binds an
  ephemeral DH value into an EREPORT, the peer verifies the report on-
  platform and checks the expected measurement, and both derive a shared
  transport key;
* intermediate results cross the untrusted host as authenticated
  ciphertexts with per-link sequence numbers, so the host can neither read,
  modify, reorder, nor replay them;
* :class:`SplitGlimmer` is the host-side coordinator gluing the three
  enclaves into the same external interface as the single-enclave
  :class:`~repro.core.glimmer.GlimmerProgram`.

The price: three ecall round trips (plus the validation ocall) instead of
one, plus two AE encrypt/decrypt legs per contribution — precisely the
efficiency the paper says the single-enclave layout buys.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import codec
from repro.codec import ROUND_ID, SLOT, Bool, Element, Named, Unit, wire
from repro.core.glimmer import (
    BlindStep,
    GlimmerConfig,
    GlimmerStep,
    ProcessRequest,
    SignStep,
    ValidateStep,
)
from repro.core.signing import SignedContribution
from repro.crypto.cipher import AuthenticatedCipher, SealedBox
from repro.crypto.dh import GROUPS, DHGroup, DHKeyPair
from repro.errors import AttestationError, ProtocolError
from repro.perf import kernels
from repro.sgx.attestation import Report, report_data_for
from repro.sgx.enclave import ecall
from repro.sgx.measurement import EnclaveImage, VendorKey
from repro.sgx.platform import SgxPlatform


@wire(0x810D, dh_public=Element(), report=Report, group=Named(GROUPS))
@dataclass(frozen=True)
class PairingOffer:
    """One end's local-attestation material: DH value in ``group`` +
    binding report."""

    dh_public: int
    report: Report
    group: DHGroup


@wire(0x8113, round_id=ROUND_ID, party_index=SLOT, payload=bytes, blind=Bool, confidence=Unit)
@dataclass(frozen=True)
class LinkedContribution:
    """A contribution crossing a split link: the request's packed values and
    whether to blind them (validation → blinding), then the blinded words,
    or an unblinded request's values (blinding → signing)."""

    round_id: int
    party_index: int
    payload: bytes
    blind: bool
    confidence: float


class _ComponentProgram(GlimmerStep):
    """Shared pairing + secured-link machinery for split components."""

    def on_load(self) -> None:
        super().on_load()
        self._link_keys: dict[str, bytes] = {}
        self._link_send_seq: dict[str, int] = {}
        self._link_recv_seq: dict[str, int] = {}
        self._pending_pairings: dict[str, DHKeyPair] = {}

    def _fresh_offer(self) -> tuple[DHKeyPair, PairingOffer]:
        """A fresh DH value bound into a local report."""
        self.api.charge_dh()
        keypair = DHKeyPair.generate(self._config.service_identity.group, self.api.rng)
        report = self.api.create_report(
            report_data_for(keypair.public.to_bytes(256, "big"))
        )
        return keypair, PairingOffer(keypair.public, report, keypair.group)

    @ecall
    def offer_pairing(self, link: str) -> PairingOffer:
        """First pairing flight."""
        self._pending_pairings[link], offer = self._fresh_offer()
        return offer

    def _check_peer_offer(self, offer: PairingOffer, expected_mrenclave: bytes) -> int:
        if not self.api.verify_local_report(offer.report):
            raise AttestationError("peer report does not verify on this platform")
        if offer.report.mrenclave != expected_mrenclave:
            raise AttestationError("peer enclave has an unexpected measurement")
        binding = report_data_for(offer.dh_public.to_bytes(256, "big"))
        if offer.report.report_data != binding:
            raise AttestationError("peer report does not bind the DH value")
        return offer.dh_public

    @ecall(str, PairingOffer, bytes)
    def accept_pairing(
        self, link: str, peer_offer: PairingOffer, expected_mrenclave: bytes
    ) -> PairingOffer:
        """Responder: verify the initiator's offer, reply with our own."""
        peer_public = self._check_peer_offer(peer_offer, expected_mrenclave)
        keypair, offer = self._fresh_offer()
        self._install_link(link, keypair, peer_public)
        return offer

    @ecall(str, PairingOffer, bytes)
    def finish_pairing(
        self, link: str, peer_offer: PairingOffer, expected_mrenclave: bytes
    ) -> None:
        """Initiator: verify the responder's offer and derive the link key."""
        keypair = self._pending_pairings.pop(link, None)
        if keypair is None:
            raise ProtocolError(f"no pairing in progress on link {link!r}")
        peer_public = self._check_peer_offer(peer_offer, expected_mrenclave)
        self._install_link(link, keypair, peer_public)

    def _install_link(self, link: str, keypair: DHKeyPair, peer_public: int) -> None:
        self.api.charge_dh()
        self._link_keys[link] = keypair.derive_key(peer_public, "split-link:" + link)
        self._link_send_seq[link] = 0
        self._link_recv_seq[link] = 0

    def _link_cipher(self, link: str, seq: int) -> tuple[AuthenticatedCipher, bytes]:
        """The link's cipher and the associated data of its ``seq``-th blob."""
        key = self._link_keys.get(link)
        if key is None:
            raise ProtocolError(f"link {link!r} not paired")
        return AuthenticatedCipher(key), link.encode("utf-8") + seq.to_bytes(8, "big")

    def _link_encrypt(self, link: str, payload: LinkedContribution) -> bytes:
        cipher, associated = self._link_cipher(link, self._link_send_seq.get(link, 0))
        self._link_send_seq[link] += 1
        blob = codec.encode(payload)
        self.api.charge_aead(len(blob))
        nonce = self.api.rng.generate(16)
        return cipher.encrypt(nonce, blob, associated_data=associated).to_bytes()

    def _link_decrypt(self, link: str, wire: bytes) -> LinkedContribution:
        """What the sibling sent on ``link``; an ``AuthenticationError`` for
        a blob it did not seal."""
        seq = self._link_recv_seq.get(link, 0)
        cipher, associated = self._link_cipher(link, seq)
        self.api.charge_aead(len(wire))
        blob = cipher.decrypt(SealedBox.from_bytes(wire), associated_data=associated)
        self._link_recv_seq[link] = seq + 1
        return codec.decode(blob, LinkedContribution)


class ValidationEnclaveProgram(ValidateStep, _ComponentProgram):
    """Component 1: the validate step; its verdict goes on to blinding."""

    @ecall(ProcessRequest)
    def validate(self, request: ProcessRequest) -> bytes:
        """Validate and forward (values, confidence) to the blinding enclave."""
        __, confidence = self._validate(request)
        return self._link_encrypt(
            "validation-blinding",
            LinkedContribution(
                request.round_id, request.party_index, request.values, request.blind, confidence
            ),
        )


class BlindingEnclaveProgram(BlindStep, _ComponentProgram):
    """Component 2: the blind step, over what validation forwarded."""

    @ecall(bytes)
    def blind(self, wire: bytes) -> bytes:
        """Decrypt the validated payload, blind it, forward to signing."""
        passed = self._link_decrypt("validation-blinding", wire)
        payload = passed.payload
        if passed.blind:
            payload = self._blind(
                passed.round_id, passed.party_index, kernels.be_doubles(payload).tolist()
            )
        return self._link_encrypt("blinding-signing", replace(passed, payload=payload))


class SigningEnclaveProgram(SignStep, _ComponentProgram):
    """Component 3: the sign step, over what blinding forwarded."""

    @ecall(bytes)
    def sign(self, wire: bytes) -> SignedContribution:
        """Decrypt the blinded payload and endorse it."""
        self._signer()
        linked = self._link_decrypt("blinding-signing", wire)
        return self._endorse(
            linked.round_id,
            self.api.rng.generate(16),
            linked.payload if linked.blind else None,
            None if linked.blind else linked.payload,
            linked.confidence,
        )


@dataclass(frozen=True)
class SplitImages:
    """The three vendor-signed component images."""

    validation: EnclaveImage
    blinding: EnclaveImage
    signing: EnclaveImage


def build_split_images(vendor: VendorKey, config: GlimmerConfig) -> SplitImages:
    """Measure and sign the three component images (shared config)."""
    blob = codec.encode(config)
    return SplitImages(
        validation=EnclaveImage.build(
            ValidationEnclaveProgram, vendor, name="glimmer-validation", config=blob
        ),
        blinding=EnclaveImage.build(
            BlindingEnclaveProgram, vendor, name="glimmer-blinding", config=blob
        ),
        signing=EnclaveImage.build(
            SigningEnclaveProgram, vendor, name="glimmer-signing", config=blob
        ),
    )


class SplitGlimmer:
    """Host-side coordinator for the three-component Glimmer."""

    def __init__(
        self,
        platform: SgxPlatform,
        images: SplitImages,
        ocall_handlers: dict | None = None,
    ) -> None:
        self.platform = platform
        self.validation = platform.load_enclave(
            images.validation, ocall_handlers=ocall_handlers or {}
        )
        self.blinding = platform.load_enclave(images.blinding)
        self.signing = platform.load_enclave(images.signing)
        self._pair(self.validation, self.blinding, "validation-blinding")
        self._pair(self.blinding, self.signing, "blinding-signing")

    @staticmethod
    def _pair(initiator, responder, link: str) -> None:
        offer = initiator.ecall("offer_pairing", link)
        reply = responder.ecall("accept_pairing", link, offer, initiator.mrenclave)
        initiator.ecall("finish_pairing", link, reply, responder.mrenclave)

    def process_contribution(self, request: ProcessRequest) -> SignedContribution:
        """The same external contract as the single-enclave Glimmer."""
        wire1 = self.validation.ecall("validate", request)
        wire2 = self.blinding.ecall("blind", wire1)
        return self.signing.ecall("sign", wire2)

    def total_cycles(self) -> int:
        return (
            self.validation.meter.total
            + self.blinding.meter.total
            + self.signing.meter.total
        )

    def transition_cycles(self) -> int:
        return sum(
            enclave.meter.buckets.get("transitions", 0)
            for enclave in (self.validation, self.blinding, self.signing)
        )
