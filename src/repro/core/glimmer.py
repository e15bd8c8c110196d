"""The Glimmer enclave program — Figure 3 realized on the SGX simulator.

One enclave hosts the three components ("We have shown all components ...
within a single SGX enclave, which is more efficient as there is only one
transition in and out of the enclave"; the decomposed variant lives in
:mod:`repro.core.split`):

* **Validation** runs the predicate named in the *measured* config, over
  private data the Glimmer must request from the untrusted host via ocall
  ("the Glimmer cannot directly obtain such information; it must request
  this information from the host system");
* **Blinding** applies a sum-zero mask provisioned by the blinding service
  for the round;
* **Signing** endorses the (blinded or plain) payload with the
  service-provided key, which arrives over an attested DH handshake and is
  sealed to the Glimmer's measurement between sessions.

Input Integrity: ``process_contribution`` signs only when validation
passes.  Input Confidentiality: raw values and private context live only in
locals of that method; nothing is retained after it returns, and the
blinded payload is the only value-derived output.
"""

from __future__ import annotations

import pickle
import struct

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from repro.core.blinding import BlindingComponent
from repro.core.encoding import decode_public_key, encode_public_key
from repro.core.signing import SignedContribution, SigningComponent
from repro.core.validation import PrivateContext, default_registry
from repro.crypto.cipher import AuthenticatedCipher, SealedBox
from repro.crypto.commitments import (
    MaskCommitmentRecord,
    decode_mask_payload,
    verify_opening,
)
from repro.crypto.dh import DHKeyPair
from repro.crypto.hashing import hash_items
from repro.crypto.kdf import hkdf
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrPublicKey, SchnorrSignature
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    EnclaveError,
    MaskVerificationError,
    ProtocolError,
    ValidationError,
)
from repro.sgx.enclave import EnclaveProgram, ecall
from repro.sgx.measurement import EnclaveImage, VendorKey


@dataclass(frozen=True)
class GlimmerConfig:
    """The measured configuration baked into a Glimmer image.

    Everything here is part of MRENCLAVE: the predicate spec (so the
    service knows what validation an attested Glimmer performs), the
    service's handshake-verification key (§4.1: "embedding the signature
    verification key in the Glimmer code"), the blinding service's key, and
    a digest of the feature space the service published.
    """

    predicate_spec: str
    service_identity: SchnorrPublicKey
    blinder_identity: SchnorrPublicKey
    features_digest: bytes
    dp_sigma: float = 0.0
    """Per-contribution Gaussian noise std the Glimmer adds before blinding
    (0 disables).  Measured, so the cohort's differential-privacy level is
    part of the vetted identity — a user can check what noise the Glimmer
    promises before trusting it."""

    def encode(self) -> bytes:
        spec = self.predicate_spec.encode("utf-8")
        service_blob = encode_public_key(self.service_identity)
        blinder_blob = encode_public_key(self.blinder_identity)
        dp_blob = struct.pack(">d", self.dp_sigma)
        return b"".join(
            len(part).to_bytes(4, "big") + part
            for part in (spec, service_blob, blinder_blob, self.features_digest, dp_blob)
        )

    @classmethod
    def decode(cls, blob: bytes) -> "GlimmerConfig":
        parts = []
        offset = 0
        for __ in range(5):
            if offset + 4 > len(blob):
                raise ConfigurationError("truncated Glimmer config")
            size = int.from_bytes(blob[offset : offset + 4], "big")
            offset += 4
            if offset + size > len(blob):
                raise ConfigurationError("truncated Glimmer config")
            parts.append(blob[offset : offset + size])
            offset += size
        if offset != len(blob):
            raise ConfigurationError("trailing bytes in Glimmer config")
        if len(parts[4]) != 8:
            raise ConfigurationError("malformed dp_sigma field")
        return cls(
            predicate_spec=parts[0].decode("utf-8"),
            service_identity=decode_public_key(parts[1]),
            blinder_identity=decode_public_key(parts[2]),
            features_digest=parts[3],
            dp_sigma=struct.unpack(">d", parts[4])[0],
        )


def features_digest(bigrams: Sequence[tuple[str, str]]) -> bytes:
    """Digest of the service-published feature space (memoised on the
    tuple: a Glimmer re-checks the same list on every contribution)."""
    return _features_digest(tuple(map(tuple, bigrams)))


@lru_cache(maxsize=8)
def _features_digest(bigrams: tuple[tuple[str, str], ...]) -> bytes:
    return hash_items(
        "feature-space",
        [f"{left}\x00{right}".encode("utf-8") for left, right in bigrams],
    )


@dataclass(frozen=True)
class ProcessRequest:
    """What the client hands the Glimmer for one contribution."""

    round_id: int
    values: tuple[float, ...]
    features: tuple[tuple[str, str], ...]
    blind: bool = True
    party_index: int = 0
    """Which blinding-mask slot this contribution consumes (see §3's p_i)."""
    context_fields: tuple[str, ...] = ()
    claims: dict = field(default_factory=dict)
    """Adversary-supplied claims such as the execution-trace commitment."""


@dataclass(frozen=True)
class KeyDelivery:
    """Provisioner → Glimmer: a secret, over the attested handshake.

    A full delivery carries the provisioner's DH half and its signature
    over :func:`handshake_digest`.  An in-session one names its session
    by ``session_id`` (the :func:`session_handle`) and carries neither:
    ``peer_dh_public`` is 0 and ``handshake_signature`` ``None``.
    """

    session_id: bytes
    peer_dh_public: int
    handshake_signature: SchnorrSignature | None
    encrypted_payload: bytes


def handshake_digest(
    context: str, session_id: bytes, glimmer_dh_public: int, peer_dh_public: int
) -> bytes:
    """What the service/blinder signs: both handshake halves plus context."""
    return hash_items(
        "glimmer-handshake",
        [
            context.encode("utf-8"),
            session_id,
            glimmer_dh_public.to_bytes(256, "big"),
            peer_dh_public.to_bytes(256, "big"),
        ],
    )


#: §3's three deliveries.  The label is bound into the handshake digest
#: and the derived key, so a delivery sealed for one cannot open as another.
SIGNING_KEY_CONTEXT = "signing-key-provisioning"
BLINDING_MASK_CONTEXT = "blinding-mask-provisioning"
DETECTOR_CONTEXT = "detector-provisioning"

#: Length of the handle that names an attested session on the wire.
HANDLE_BYTES = 16


def session_handle(
    context: str, session_id: bytes, glimmer_dh_public: int, peer_dh_public: int
) -> bytes:
    """The public name of the session a full delivery opens.

    A function of the establishing handshake, both DH publics included,
    so the provisioner, the Glimmer and the host between them each
    compute it from what they already hold.
    """
    return hash_items(
        "glimmer-session-handle",
        [
            context.encode("utf-8"),
            session_id,
            glimmer_dh_public.to_bytes(256, "big"),
            peer_dh_public.to_bytes(256, "big"),
        ],
    )[:HANDLE_BYTES]


def session_round_key(session_key: bytes, context: str, round_id: int, slot: int) -> bytes:
    """The key one in-session delivery is sealed under: one per (round,
    slot), so a delivery captured for one opens for no other."""
    return hkdf(session_key, f"session:{context}:{round_id}:{slot}")


class HandshakeSessions:
    """The enclave half of §3's attested delivery, for every Glimmer variant.

    Owns the handshakes in progress and, for each per-round delivery
    context, the one session its last full delivery opened.  A full delivery runs
    the DH leg and checks the provisioner's signature; an in-session one
    opens under :func:`session_round_key` with no public-key work at all.
    Enclave-resident state — a restart wipes it, the next in-session
    delivery fails to open (:class:`AuthenticationError`), and the host
    re-attests with one full delivery.
    """

    def __init__(self, api, group) -> None:
        self._api = api
        self._group = group
        self._sessions: dict[bytes, DHKeyPair] = {}
        #: context -> (handle, key) of the session its last full delivery opened.
        self._session_keys: dict[str, tuple[bytes, bytes]] = {}

    def begin(self, session_id: bytes) -> int:
        """Start a session; returns the DH public the host must bind into
        a quote (``report_data_for(dh_public bytes)``), so the remote peer
        knows the handshake terminates inside this measured enclave."""
        if session_id in self._sessions:
            raise ProtocolError("session id already in use")
        self._api.charge_dh()
        keypair = DHKeyPair.generate(self._group, self._api.rng)
        self._sessions[session_id] = keypair
        return keypair.public

    def take(self, session_id: bytes) -> DHKeyPair:
        """Consume a session's keypair: each handshake opens one payload."""
        keypair = self._sessions.pop(session_id, None)
        if keypair is None:
            raise ProtocolError("no handshake in progress for this session")
        return keypair

    def open(
        self,
        delivery: KeyDelivery,
        signer: SchnorrPublicKey,
        context: str,
        binding: tuple[int, int] | None = None,
    ) -> bytes:
        """Authenticate a delivery, then open its payload.

        ``binding`` is the ``(round_id, slot)`` of a per-round delivery:
        a full one then keeps its key as the context's session, and an
        in-session one — which opens only with a binding — derives its
        key from that session.  One-shot deliveries keep nothing.
        """
        if delivery.handshake_signature is None:
            handle, session_key = self._session_keys.get(context, (None, b""))
            if binding is None or handle != delivery.session_id:
                raise AuthenticationError(
                    f"no live {context!r} session for this delivery"
                )
            key = session_round_key(session_key, context, *binding)
        else:
            keypair = self.take(delivery.session_id)
            digest = handshake_digest(
                context, delivery.session_id, keypair.public, delivery.peer_dh_public
            )
            try:
                signer.verify(digest, delivery.handshake_signature)
            except AuthenticationError as exc:
                raise AuthenticationError(
                    f"peer handshake signature invalid for {context!r}"
                ) from exc
            self._api.charge_dh()
            key = keypair.derive_key(delivery.peer_dh_public, context)
            if binding is not None:
                self._session_keys[context] = (
                    session_handle(
                        context,
                        delivery.session_id,
                        keypair.public,
                        delivery.peer_dh_public,
                    ),
                    key,
                )
        self._api.charge_aead(len(delivery.encrypted_payload))
        return AuthenticatedCipher(key).decrypt(
            SealedBox.from_bytes(delivery.encrypted_payload),
            associated_data=delivery.session_id,
        )


class GlimmerProgram(EnclaveProgram):
    """The single-enclave Glimmer (Figure 3)."""

    def on_load(self) -> None:
        self._config = GlimmerConfig.decode(self.api.config)
        self._predicate = default_registry().build(self._config.predicate_spec)
        self._blinding = BlindingComponent()
        self._signing: SigningComponent | None = None
        self._handshakes = HandshakeSessions(
            self.api, self._config.service_identity.group
        )

    # ------------------------------------------------- attested provisioning

    @ecall
    def begin_handshake(self, session_id: bytes) -> int:
        """Start a provisioning session; returns the Glimmer's DH public value."""
        return self._handshakes.begin(session_id)

    @ecall
    def install_signing_key(self, delivery: KeyDelivery) -> bytes:
        """Accept the service's signing key; returns a sealed backup blob.

        The key is sealed to this Glimmer's measurement ("the signing key
        ... sealed to the Glimmer code, so that it is only available to
        instances of Glimmer enclaves") so the host can persist it without
        being able to read it.
        """
        plaintext = self._handshakes.open(
            delivery, self._config.service_identity, SIGNING_KEY_CONTEXT
        )
        secret = int.from_bytes(plaintext, "big")
        keypair = SchnorrKeyPair.from_secret(
            secret, self._config.service_identity.group
        )
        self._signing = SigningComponent(keypair)
        return self.api.seal(plaintext, policy="mrenclave")

    @ecall
    def restore_signing_key(self, sealed_blob: bytes) -> None:
        """Reload a previously sealed signing key (after enclave restart)."""
        plaintext = self.api.unseal(sealed_blob)
        secret = int.from_bytes(plaintext, "big")
        self._signing = SigningComponent(
            SchnorrKeyPair.from_secret(secret, self._config.service_identity.group)
        )

    @ecall
    def install_blinding_mask(
        self,
        round_id: int,
        party_index: int,
        delivery: KeyDelivery,
        commitment: MaskCommitmentRecord | None = None,
    ) -> None:
        """Accept a (round, party) mask from the blinding service.

        The delivery arrives over the attested channel — a full one, or
        one in the session the last full one opened, keyed to this round
        and slot — and carries the slot's full commitment opening.  When
        the caller supplies the
        engine-vouched :class:`MaskCommitmentRecord` for the slot, the
        Glimmer verifies the opening before installing — a blinding
        service that delivers a wrong-length, tampered, or equivocated
        mask is caught *here*, inside the enclave, and the round aborts
        with the blinder blamed rather than aggregating garbage.
        """
        plaintext = self._handshakes.open(
            delivery,
            self._config.blinder_identity,
            BLINDING_MASK_CONTEXT,
            (round_id, party_index),
        )
        opening = decode_mask_payload(plaintext)
        if commitment is not None:
            if commitment.round_id != round_id:
                raise MaskVerificationError(
                    f"commitment record names round {commitment.round_id}, "
                    f"not {round_id}"
                )
            expected_group = self._config.blinder_identity.group.name
            if commitment.group_name != expected_group:
                raise MaskVerificationError(
                    "commitment record uses an unexpected group"
                )
            self.api.charge_signature()  # two group exps, priced like a verify
            verify_opening(commitment, party_index, opening)
        self._blinding.install_mask(round_id, party_index, opening.mask)

    # --------------------------------------------------------- the main path

    @ecall
    def process_contribution(self, request: ProcessRequest) -> SignedContribution:
        """Validate → blind → sign.  Raises :class:`ValidationError` on reject.

        Raw values and the private context exist only inside this call
        (Input Confidentiality); the signature is issued only on a passing
        validation (Input Integrity).
        """
        context = self._collect_context(request)
        return self._process_with_context(request, context)

    @ecall
    def process_remote(
        self, session_id: bytes, client_dh_public: int, ciphertext: bytes
    ) -> bytes:
        """§4.2 Glimmer-as-a-service entry point.

        A TEE-less IoT client, having verified this Glimmer's quote, sends
        its contribution *and its private validation data* encrypted under
        the attested channel key (on-device ocalls would reach the host's
        data, not the remote client's).  The response — a signed
        contribution — returns encrypted under the same channel.
        """
        keypair = self._handshakes.take(session_id)
        self.api.charge_dh()
        key = keypair.derive_key(client_dh_public, "glimmer-as-a-service")
        cipher = AuthenticatedCipher(key)
        self.api.charge_aead(len(ciphertext))
        plaintext = cipher.decrypt(
            SealedBox.from_bytes(ciphertext), associated_data=session_id
        )
        request, context = _decode_remote_payload(plaintext)
        self._prepare_context(request, context)
        signed = self._process_with_context(request, context)
        response = _encode_remote_response(signed)
        self.api.charge_aead(len(response))
        nonce = self.api.rng.generate(16)
        return cipher.encrypt(
            nonce, response, associated_data=session_id + b":response"
        ).to_bytes()

    def _process_with_context(
        self, request: ProcessRequest, context: PrivateContext
    ) -> SignedContribution:
        if self._signing is None:
            raise ProtocolError("signing key not provisioned")
        if features_digest(request.features) != self._config.features_digest:
            raise ValidationError(
                "feature list does not match the service-published digest"
            )
        outcome = self._predicate.evaluate(request.values, context)
        self.api.charge(outcome.cycles, "validation")
        if not outcome.passed:
            raise ValidationError(
                f"{outcome.predicate_name} rejected contribution: {outcome.reason}"
            )
        nonce = self.api.rng.generate(16)
        if request.blind:
            values = request.values
            if self._config.dp_sigma > 0.0:
                # Distributed DP (Gaussian mechanism): each Glimmer adds
                # noise before blinding, so the *aggregate* — the only thing
                # the service ever sees — carries calibrated noise even if
                # the service is curious.  The noise is enclave-private.
                values = tuple(
                    v + self.api.rng.gauss(0.0, self._config.dp_sigma)
                    for v in values
                )
                self.api.charge(40 * len(values), "dp-noise")
            ring_payload = self._blinding.blind(
                request.round_id, request.party_index, values
            )
            # Record the signing in a platform counter *before* the signed
            # contribution leaves the enclave.  The counter never blocks
            # (repeat signings with fresh masks are legitimate — E15's
            # flooding arm depends on that); it exists so restore_round can
            # refuse a checkpoint older than the last signing, which is
            # what stops a rolled-back enclave from re-signing a consumed
            # mask and double-submitting.
            self.api.monotonic_counter(
                f"blind-signings-round-{request.round_id}"
            ).increment()
            self.api.charge_aead(8 * len(ring_payload))
            self.api.charge_signature()
            return self._signing.endorse(
                round_id=request.round_id,
                nonce=nonce,
                blinded=True,
                ring_payload=ring_payload,
                plain_payload=None,
                confidence=outcome.confidence,
            )
        self.api.charge_signature()
        return self._signing.endorse(
            round_id=request.round_id,
            nonce=nonce,
            blinded=False,
            ring_payload=None,
            plain_payload=tuple(request.values),
            confidence=outcome.confidence,
        )

    def _collect_context(self, request: ProcessRequest) -> PrivateContext:
        """Ask the untrusted host for the private validation data."""
        needed = tuple(
            dict.fromkeys(
                tuple(self._predicate.required_context()) + request.context_fields
            )
        )
        if needed:
            raw = self.api.ocall("collect_private_data", needed)
        else:
            raw = PrivateContext()
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
        self._prepare_context(request, context)
        return context

    def _prepare_context(self, request: ProcessRequest, context: PrivateContext) -> None:
        """Attach the Glimmer-controlled fields predicates rely on."""
        context.extra.setdefault("features", request.features)
        context.extra["round_id"] = request.round_id
        context.extra["counter"] = self.api.monotonic_counter(
            f"contributions-round-{request.round_id}"
        )
        context.extra.update(request.claims)

    # ------------------------------------------------- crash-recoverable state

    @ecall
    def checkpoint_round(self, round_id: int) -> bytes:
        """Seal this round's unconsumed masks for crash recovery.

        The blob binds the current value of the round's blind-signing
        counter: a restarted enclave restoring it can prove the masks
        inside were not yet consumed when the checkpoint was cut.  Sealed
        to MRENCLAVE, so the untrusted host can store it but not read it.
        """
        masks = self._blinding.masks_for_round(round_id)
        counter = self.api.monotonic_counter(f"blind-signings-round-{round_id}")
        state = (int(round_id), masks, int(counter.value))
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        return self.api.seal(blob, policy="mrenclave")

    @ecall
    def restore_round(self, sealed_blob: bytes) -> int:
        """Recover round state from a sealed checkpoint; returns the round id.

        Rollback protection: if the round's blind-signing counter has
        advanced past the checkpointed value, some mask in the blob was
        already consumed by a signing — reinstalling it would let the host
        make this enclave sign (and the service accept) the same slot
        twice.  The platform counter survives enclave death, so the check
        holds across restarts; such a blob is refused outright.
        """
        state = pickle.loads(self.api.unseal(sealed_blob))
        try:
            round_id, masks, checkpoint_count = state
            round_id = int(round_id)
            checkpoint_count = int(checkpoint_count)
        except (TypeError, ValueError) as exc:
            raise EnclaveError("malformed round checkpoint") from exc
        counter = self.api.monotonic_counter(f"blind-signings-round-{round_id}")
        if counter.value > checkpoint_count:
            raise EnclaveError(
                f"round {round_id} checkpoint is stale: {counter.value} signing(s) "
                f"recorded since it was sealed (rollback refused)"
            )
        self._blinding.restore_masks(round_id, masks)
        return round_id

    @ecall
    def close_round(self, round_id: int) -> int:
        """Destroy all mask state for a finalized/aborted round.

        Called when the engine closes the round; returns how many
        unconsumed masks were purged.  Keeps a long-lived Glimmer's mask
        table bounded by its open rounds.  The round's blind-signing
        counter advances too, so every checkpoint cut before the close is
        stale: a host replaying one cannot reinstall a mask the service
        may already have received as §3 repair.
        """
        self.api.monotonic_counter(f"blind-signings-round-{round_id}").increment()
        return self._blinding.purge_round(round_id)

    # ----------------------------------------------------------- inspection

    @ecall
    def predicate_name(self) -> str:
        """The measured predicate spec (handy for logging and tests)."""
        return self._config.predicate_spec

    @ecall
    def has_signing_key(self) -> bool:
        return self._signing is not None

    @ecall
    def has_mask(self, round_id: int, party_index: int = 0) -> bool:
        return self._blinding.has_mask(round_id, party_index)


def _encode_remote_payload(request: ProcessRequest, context: PrivateContext) -> bytes:
    """Serialize a remote contribution (simulation-grade: pickle inside AE).

    In a production Glimmer this would be a fixed wire format; pickling is
    confined to the *inside* of an authenticated ciphertext, so the
    security-relevant properties (confidentiality, integrity of the wire
    blob) still hold in the simulation.
    """
    return pickle.dumps((request, context), protocol=pickle.HIGHEST_PROTOCOL)


def _decode_remote_payload(blob: bytes) -> tuple[ProcessRequest, PrivateContext]:
    request, context = pickle.loads(blob)
    if not isinstance(request, ProcessRequest) or not isinstance(context, PrivateContext):
        raise ProtocolError("malformed remote contribution payload")
    return request, context


def _encode_remote_response(signed: SignedContribution) -> bytes:
    return pickle.dumps(signed, protocol=pickle.HIGHEST_PROTOCOL)


def decode_remote_response(blob: bytes) -> SignedContribution:
    """Client-side decoding of the Glimmer's encrypted response."""
    signed = pickle.loads(blob)
    if not isinstance(signed, SignedContribution):
        raise ProtocolError("malformed remote response")
    return signed


def build_glimmer_image(
    vendor: VendorKey,
    config: GlimmerConfig,
    name: str = "glimmer",
    version: int = 1,
    memory_bytes: int = 1 << 20,
    debug: bool = False,
) -> EnclaveImage:
    """Measure and sign a Glimmer image for loading onto platforms."""
    return EnclaveImage.build(
        GlimmerProgram,
        vendor,
        name=name,
        version=version,
        config=config.encode(),
        memory_bytes=memory_bytes,
        debug=debug,
    )
