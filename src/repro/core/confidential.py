"""§4.1 Validation Confidentiality: encrypted predicates + 1-bit output.

The bot-detection scenario inverts the usual secrecy: now the *service*
wants its validation predicate (proprietary detector weights) hidden from
the client, while the *user* wants a bound on what the opaque predicate can
exfiltrate.  The resolution:

* the detector ships **encrypted** to the Glimmer over an attested DH
  handshake ("Glimmers can provide validation confidentiality by accepting
  encrypted code and data from the web service and decrypting and running
  that code inside the enclave");
* the Glimmer emits only a :class:`~repro.core.auditor.VerdictMessage` —
  one bit, signature, challenge response — and the host-side
  :class:`~repro.core.auditor.RuntimeAuditor` enforces that format.

:class:`ExfiltratingGlimmerProgram` is the in-repo adversary: a malicious
encrypted predicate that tries to leak the user's private browsing profile
through its outputs.  The auditor clamps it to one bit per message
(experiment E9) and rejects outright any attempt to stuff data into the
response or signature fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import codec
from repro.codec import Int, wire
from repro.core.auditor import VerdictMessage, expected_response
from repro.core.glimmer import DETECTOR_CONTEXT, HandshakeSessions, KeyDelivery
from repro.core.provisioning import VettingRegistry, _ProvisionerBase
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import hash_bytes, hash_items
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrPublicKey, SchnorrSignature
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    CryptoError,
    ProtocolError,
    ProtocolViolation,
)
from repro.sgx.enclave import EnclaveProgram, ecall
from repro.sgx.measurement import EnclaveImage, VendorKey
from repro.workloads.botnet import DetectorWeights, SessionSignals


@wire(0x8115, detector=DetectorWeights, reporting_secret=Int(1))
@dataclass(frozen=True)
class DetectorDelivery:
    """What the service ships a confidential Glimmer, encrypted: its secret
    detector and the secret of the key the Glimmer reports verdicts under."""

    detector: DetectorWeights
    reporting_secret: int


def verdict_digest(session_id: str, challenge: bytes, verdict_bit: int) -> bytes:
    """What the reporting key signs."""
    return hash_items(
        "bot-verdict", [session_id.encode("utf-8"), challenge, bytes([verdict_bit])]
    )


# -------------------------------------------------------- the Glimmer side

class ConfidentialGlimmerProgram(EnclaveProgram):
    """A Glimmer whose validation predicate arrives encrypted at runtime.

    The measured config holds only the service's handshake-verification
    key; the detector itself is dynamic — which is exactly why the runtime
    auditor, not code vetting, bounds this Glimmer's output.
    """

    def on_load(self) -> None:
        try:
            self._service_identity = codec.decode(self.api.config, SchnorrPublicKey)
        except ProtocolViolation as exc:
            raise ConfigurationError(f"malformed service key: {exc.detail}") from None
        self._handshakes = HandshakeSessions(
            self.api, self._service_identity.group
        )
        self._detector: DetectorWeights | None = None
        self._reporting: SchnorrKeyPair | None = None

    @ecall
    def begin_handshake(self, session_id: bytes) -> int:
        return self._handshakes.begin(session_id)

    @ecall
    def install_detector(self, delivery: KeyDelivery) -> None:
        """Decrypt and install the service's secret detector."""
        plaintext = self._handshakes.open(
            delivery, self._service_identity, DETECTOR_CONTEXT
        )
        try:
            delivery = codec.decode(plaintext, DetectorDelivery)
        except ProtocolViolation as exc:
            raise CryptoError(f"malformed detector delivery: {exc.detail}") from None
        self._detector = delivery.detector
        self._reporting = SchnorrKeyPair.from_secret(
            delivery.reporting_secret, self._service_identity.group
        )

    def _verdict_for(self, signals: SessionSignals) -> int:
        """Hook subclassed by the exfiltration adversary."""
        assert self._detector is not None
        return 1 if self._detector.is_human(signals) else 0

    @ecall
    def evaluate_session(self, session_id: str, challenge: bytes) -> VerdictMessage:
        """Score the session's signals; emit the public 1-bit message.

        The raw signals (browsing history, cookies, interests) are fetched
        via ocall, used, and dropped — only the bit leaves.
        """
        if self._detector is None or self._reporting is None:
            raise ProtocolError("detector not provisioned")
        signals = self.api.ocall("collect_session_signals", session_id, expect=SessionSignals)
        self.api.charge(600, "validation")
        verdict = self._verdict_for(signals)
        self.api.charge_signature()
        signature = self._reporting.sign(verdict_digest(session_id, challenge, verdict))
        return VerdictMessage(
            session_id=session_id,
            challenge=challenge,
            verdict_bit=verdict,
            challenge_response=expected_response(challenge, verdict),
            signature_bytes=signature.to_bytes(),
        )


class ExfiltratingGlimmerProgram(ConfidentialGlimmerProgram):
    """A malicious encrypted predicate that leaks private data bit by bit.

    Instead of the detector verdict, each evaluated session emits one bit
    of ``H(interest_profile)`` — the strongest attack the 1-bit format
    permits.  The auditor cannot tell the bits apart (that is the residual
    covert channel the paper concedes) but it *counts* them, so total
    leakage is capped at one bit per audited message.
    """

    def on_load(self) -> None:
        super().on_load()
        self._exfil_position = 0

    def _verdict_for(self, signals: SessionSignals) -> int:
        secret = hash_bytes("exfil-target", signals.interest_profile.encode("utf-8"))
        bit = (secret[self._exfil_position // 8] >> (self._exfil_position % 8)) & 1
        self._exfil_position += 1
        return bit


class MalformedOutputGlimmerProgram(ConfidentialGlimmerProgram):
    """Tries to widen the channel by stuffing secrets into the response field.

    The auditor must reject every message this program emits.
    """

    def _verdict_for(self, signals: SessionSignals) -> int:
        return 1

    @ecall
    def evaluate_session(self, session_id: str, challenge: bytes) -> VerdictMessage:
        if self._detector is None or self._reporting is None:
            raise ProtocolError("detector not provisioned")
        signals = self.api.ocall("collect_session_signals", session_id)
        secret = hash_bytes("stuffed", repr(signals.browsing_history).encode())
        signature = self._reporting.sign(verdict_digest(session_id, challenge, 1))
        return VerdictMessage(
            session_id=session_id,
            challenge=challenge,
            verdict_bit=1,
            challenge_response=secret,  # 256 smuggled bits — must be caught
            signature_bytes=signature.to_bytes(),
        )


# --------------------------------------------------------- the service side

class BotDetectionService(_ProvisionerBase):
    """The web service: ships the secret detector, challenges, verifies verdicts."""

    def __init__(
        self,
        identity: SchnorrKeyPair,
        detector: DetectorWeights,
        attestation,
        registry: VettingRegistry,
        glimmer_name: str,
        rng: HmacDrbg,
    ) -> None:
        super().__init__(identity, attestation, registry, glimmer_name, rng)
        self.detector = detector
        self.reporting_keypair = SchnorrKeyPair.generate(
            rng.fork("reporting-key"), identity.group
        )
        self._outstanding: dict[str, bytes] = {}

    def provision_detector(
        self, session_id: bytes, glimmer_dh_public: int, quote
    ) -> KeyDelivery:
        """Attest the Glimmer, then ship detector + reporting key encrypted."""
        return self._deliver(
            session_id,
            glimmer_dh_public,
            quote,
            codec.encode(DetectorDelivery(self.detector, self.reporting_keypair.secret)),
            DETECTOR_CONTEXT,
        )

    def new_challenge(self, session_id: str) -> bytes:
        challenge = self.rng.generate(32)
        self._outstanding[session_id] = challenge
        return challenge

    def verify_verdict(self, message: VerdictMessage) -> bool:
        """Check signature + challenge; returns the verdict (True = human).

        Raises on forgery or stale challenge; consumes the challenge so a
        verdict cannot be replayed.
        """
        challenge = self._outstanding.pop(message.session_id, None)
        if challenge is None or challenge != message.challenge:
            raise ProtocolError("verdict does not answer an outstanding challenge")
        if message.challenge_response != expected_response(
            message.challenge, message.verdict_bit
        ):
            raise AuthenticationError("challenge response invalid")
        signature = SchnorrSignature.from_bytes(message.signature_bytes)
        self.reporting_keypair.public_key.verify(
            verdict_digest(message.session_id, message.challenge, message.verdict_bit),
            signature,
        )
        return message.verdict_bit == 1


def build_confidential_image(
    vendor: VendorKey,
    service_identity: SchnorrPublicKey,
    program_class: type = ConfidentialGlimmerProgram,
    name: str = "bot-glimmer",
    version: int = 1,
) -> EnclaveImage:
    """Measure and sign a confidential-validation Glimmer image."""
    return EnclaveImage.build(
        program_class,
        vendor,
        name=name,
        version=version,
        config=codec.encode(service_identity),
    )


def raw_signal_leakage_bits(signals: SessionSignals) -> int:
    """How many sensitive bits the no-Glimmer baseline uploads.

    Counts the private context a raw-signal detector would ship to the
    service: browsing history entries, cookie identifiers, and the interest
    profile — the fields §4.1 names as the privacy problem.
    """
    history_bits = sum(8 * len(site) for site in signals.browsing_history)
    cookie_bits = sum(4 * len(cookie) for cookie in signals.cookie_ids)  # hex chars
    interest_bits = 8 * len(signals.interest_profile)
    return history_bits + cookie_bits + interest_bits
