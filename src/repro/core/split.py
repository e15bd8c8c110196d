"""The decomposed Glimmer: one enclave per component (E7 ablation).

§3 closes: "to increase ease of verification, the Glimmer can be decomposed
so that each component runs in its own enclave.  Naturally, communication
between components must now also be secured."  This module implements that
variant so experiment E7 can price it:

* :class:`ValidationEnclaveProgram`, :class:`BlindingEnclaveProgram`, and
  :class:`SigningEnclaveProgram` each hold one component;
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

import pickle
from dataclasses import dataclass

from repro.core.blinding import BlindingComponent
from repro.core.glimmer import (
    BLINDING_MASK_CONTEXT,
    SIGNING_KEY_CONTEXT,
    GlimmerConfig,
    HandshakeSessions,
    KeyDelivery,
    ProcessRequest,
    features_digest,
)
from repro.core.signing import SignedContribution, SigningComponent
from repro.core.validation import PrivateContext, default_registry
from repro.crypto.cipher import AuthenticatedCipher, SealedBox
from repro.crypto.commitments import decode_mask_payload
from repro.crypto.dh import DHKeyPair
from repro.crypto.schnorr import SchnorrKeyPair
from repro.errors import AttestationError, ProtocolError, ValidationError
from repro.sgx.attestation import report_data_for
from repro.sgx.enclave import EnclaveProgram, ecall
from repro.sgx.measurement import EnclaveImage, VendorKey
from repro.sgx.platform import SgxPlatform


@dataclass(frozen=True)
class PairingOffer:
    """One end's local-attestation material: DH value + binding report."""

    dh_public: int
    report: object


class _ComponentProgram(EnclaveProgram):
    """Shared pairing + secured-link machinery for split components."""

    def on_load(self) -> None:
        self._link_keys: dict[str, bytes] = {}
        self._link_send_seq: dict[str, int] = {}
        self._link_recv_seq: dict[str, int] = {}
        self._pending_pairings: dict[str, DHKeyPair] = {}

    def _group(self):
        raise NotImplementedError

    @ecall
    def offer_pairing(self, link: str) -> PairingOffer:
        """First pairing flight: fresh DH value bound into a local report."""
        self.api.charge_dh()
        keypair = DHKeyPair.generate(self._group(), self.api.rng)
        self._pending_pairings[link] = keypair
        report = self.api.create_report(
            report_data_for(keypair.public.to_bytes(256, "big"))
        )
        return PairingOffer(dh_public=keypair.public, report=report)

    def _check_peer_offer(self, offer: PairingOffer, expected_mrenclave: bytes) -> int:
        if not self.api.verify_local_report(offer.report):
            raise AttestationError("peer report does not verify on this platform")
        if offer.report.mrenclave != expected_mrenclave:
            raise AttestationError("peer enclave has an unexpected measurement")
        binding = report_data_for(offer.dh_public.to_bytes(256, "big"))
        if offer.report.report_data != binding:
            raise AttestationError("peer report does not bind the DH value")
        return offer.dh_public

    @ecall
    def accept_pairing(
        self, link: str, peer_offer: PairingOffer, expected_mrenclave: bytes
    ) -> PairingOffer:
        """Responder: verify the initiator's offer, reply with our own."""
        peer_public = self._check_peer_offer(peer_offer, expected_mrenclave)
        self.api.charge_dh()
        keypair = DHKeyPair.generate(self._group(), self.api.rng)
        self._install_link(link, keypair, peer_public)
        report = self.api.create_report(
            report_data_for(keypair.public.to_bytes(256, "big"))
        )
        return PairingOffer(dh_public=keypair.public, report=report)

    @ecall
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

    def _link_encrypt(self, link: str, payload: object) -> bytes:
        key = self._link_keys.get(link)
        if key is None:
            raise ProtocolError(f"link {link!r} not paired")
        seq = self._link_send_seq[link]
        self._link_send_seq[link] = seq + 1
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self.api.charge_aead(len(blob))
        cipher = AuthenticatedCipher(key)
        nonce = self.api.rng.generate(16)
        associated = link.encode("utf-8") + seq.to_bytes(8, "big")
        return cipher.encrypt(nonce, blob, associated_data=associated).to_bytes()

    def _link_decrypt(self, link: str, wire: bytes) -> object:
        key = self._link_keys.get(link)
        if key is None:
            raise ProtocolError(f"link {link!r} not paired")
        seq = self._link_recv_seq[link]
        cipher = AuthenticatedCipher(key)
        associated = link.encode("utf-8") + seq.to_bytes(8, "big")
        self.api.charge_aead(len(wire))
        blob = cipher.decrypt(SealedBox.from_bytes(wire), associated_data=associated)
        self._link_recv_seq[link] = seq + 1
        return pickle.loads(blob)


class ValidationEnclaveProgram(_ComponentProgram):
    """Component 1: runs the measured predicate, emits a sealed verdict."""

    def on_load(self) -> None:
        super().on_load()
        self._config = GlimmerConfig.decode(self.api.config)
        self._predicate = default_registry().build(self._config.predicate_spec)

    def _group(self):
        return self._config.service_identity.group

    @ecall
    def validate(self, request: ProcessRequest) -> bytes:
        """Validate and forward (values, confidence) to the blinding enclave."""
        if features_digest(request.features) != self._config.features_digest:
            raise ValidationError("feature list does not match the published digest")
        needed = tuple(
            dict.fromkeys(tuple(self._predicate.required_context()) + request.context_fields)
        )
        raw = (
            self.api.ocall("collect_private_data", needed) if needed else PrivateContext()
        )
        if not isinstance(raw, PrivateContext):
            raise ValidationError("host returned malformed private context")
        context = PrivateContext(
            sentences=raw.sentences,
            keystroke_trace=raw.keystroke_trace,
            geo_context=raw.geo_context,
            shopping_context=raw.shopping_context,
            session_signals=raw.session_signals,
            video_stream=raw.video_stream,
            extra=dict(raw.extra),
        )
        context.extra.setdefault("features", request.features)
        context.extra["round_id"] = request.round_id
        # Same rollback-proof counter wiring as the single-enclave Glimmer,
        # so rate-limit predicates survive validation-enclave restarts.
        context.extra["counter"] = self.api.monotonic_counter(
            f"contributions-round-{request.round_id}"
        )
        context.extra.update(request.claims)
        outcome = self._predicate.evaluate(request.values, context)
        self.api.charge(outcome.cycles, "validation")
        if not outcome.passed:
            raise ValidationError(
                f"{outcome.predicate_name} rejected contribution: {outcome.reason}"
            )
        return self._link_encrypt(
            "validation-blinding",
            {
                "round_id": request.round_id,
                "party_index": request.party_index,
                "values": request.values,
                "blind": request.blind,
                "confidence": outcome.confidence,
            },
        )


class BlindingEnclaveProgram(_ComponentProgram):
    """Component 2: holds round masks, blinds validated values."""

    def on_load(self) -> None:
        super().on_load()
        self._config = GlimmerConfig.decode(self.api.config)
        self._blinding = BlindingComponent()
        self._handshakes = HandshakeSessions(self.api, self._group())

    def _group(self):
        return self._config.blinder_identity.group

    @ecall
    def begin_handshake(self, session_id: bytes) -> int:
        return self._handshakes.begin(session_id)

    @ecall
    def install_blinding_mask(
        self, round_id: int, party_index: int, delivery: KeyDelivery
    ) -> None:
        plaintext = self._handshakes.open(
            delivery,
            self._config.blinder_identity,
            BLINDING_MASK_CONTEXT,
            (round_id, party_index),
        )
        opening = decode_mask_payload(plaintext)
        self._blinding.install_mask(round_id, party_index, opening.mask)

    @ecall
    def blind(self, wire: bytes) -> bytes:
        """Decrypt the validated payload, blind it, forward to signing."""
        payload = self._link_decrypt("validation-blinding", wire)
        if payload["blind"]:
            ring = self._blinding.blind(
                payload["round_id"], payload["party_index"], payload["values"]
            )
            forward = {
                "round_id": payload["round_id"],
                "blinded": True,
                "ring_payload": ring,
                "plain_payload": None,
                "confidence": payload["confidence"],
            }
        else:
            forward = {
                "round_id": payload["round_id"],
                "blinded": False,
                "ring_payload": None,
                "plain_payload": payload["values"],
                "confidence": payload["confidence"],
            }
        return self._link_encrypt("blinding-signing", forward)


class SigningEnclaveProgram(_ComponentProgram):
    """Component 3: holds the service signing key, endorses blinded payloads."""

    def on_load(self) -> None:
        super().on_load()
        self._config = GlimmerConfig.decode(self.api.config)
        self._signing: SigningComponent | None = None
        self._handshakes = HandshakeSessions(self.api, self._group())

    def _group(self):
        return self._config.service_identity.group

    @ecall
    def begin_handshake(self, session_id: bytes) -> int:
        return self._handshakes.begin(session_id)

    @ecall
    def install_signing_key(self, delivery: KeyDelivery) -> bytes:
        plaintext = self._handshakes.open(
            delivery, self._config.service_identity, SIGNING_KEY_CONTEXT
        )
        secret = int.from_bytes(plaintext, "big")
        self._signing = SigningComponent(
            SchnorrKeyPair.from_secret(secret, self._config.service_identity.group)
        )
        return self.api.seal(plaintext, policy="mrenclave")

    @ecall
    def sign(self, wire: bytes) -> SignedContribution:
        """Decrypt the blinded payload and endorse it."""
        if self._signing is None:
            raise ProtocolError("signing key not provisioned")
        payload = self._link_decrypt("blinding-signing", wire)
        self.api.charge_signature()
        return self._signing.endorse(
            round_id=payload["round_id"],
            nonce=self.api.rng.generate(16),
            blinded=payload["blinded"],
            ring_payload=payload["ring_payload"],
            plain_payload=payload["plain_payload"],
            confidence=payload["confidence"],
        )


@dataclass(frozen=True)
class SplitImages:
    """The three vendor-signed component images."""

    validation: EnclaveImage
    blinding: EnclaveImage
    signing: EnclaveImage


def build_split_images(vendor: VendorKey, config: GlimmerConfig) -> SplitImages:
    """Measure and sign the three component images (shared config)."""
    blob = config.encode()
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
