"""The Glimmer enclave program — Figure 3 realized on the SGX simulator.

One enclave hosts the three components ("We have shown all components ...
within a single SGX enclave, which is more efficient as there is only one
transition in and out of the enclave"; the decomposed variant in
:mod:`repro.core.split` runs the same step classes, one per enclave):

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

import zlib

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro import codec
from repro.codec import (
    ROUND_ID, SLOT, Bool, Bytes, Element, Int, Named, Optional, Pair, Str, TupleOf, wire,
)
from repro.core.blinding import BlindingComponent
from repro.core.signing import RING_WIDTH, SignedContribution, SigningComponent
from repro.core.validation import PrivateContext, RoundFacts, default_registry
from repro.crypto.cipher import AuthenticatedCipher, SealedBox
from repro.crypto.commitments import (
    MaskCommitmentRecord,
    decode_mask_payload,
    verify_opening,
)
from repro.crypto.dh import GROUPS, DHGroup, DHKeyPair
from repro.crypto.fixedpoint import FixedPointCodec, holds_sum
from repro.crypto.masking import MaskShare
from repro.crypto.hashing import hash_items
from repro.crypto.kdf import hkdf
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrPublicKey, SchnorrSignature
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    EnclaveError,
    ProtocolError,
    ProtocolViolation,
    ValidationError,
)
from repro.perf import kernels
from repro.sgx.enclave import EnclaveProgram, ecall
from repro.sgx.measurement import EnclaveImage, VendorKey


@wire(
    0x8110, predicate_spec=Str, service_identity=SchnorrPublicKey,
    blinder_identity=SchnorrPublicKey, features_digest=Bytes(32), dp_sigma=float,
)
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

    @property
    def magnitude(self) -> float:
        """The largest ``|value|`` a contribution this Glimmer blinds may
        encode: what a round's words are sized by
        (:func:`~repro.crypto.fixedpoint.ring_width`).  Derived from the
        measured predicate spec, never a field of its own: the bound its
        predicate proves, capped at the codec's; the codec's own
        ``bound`` when the predicate proves none, or when the Glimmer adds
        Gaussian noise, which no bound holds."""
        return _config_magnitude(self.predicate_spec, self.dp_sigma)

    @classmethod
    def decode(cls, blob: bytes) -> "GlimmerConfig":
        try:
            return codec.decode(blob, GlimmerConfig)
        except ProtocolViolation as exc:
            raise ConfigurationError(f"malformed Glimmer config: {exc.detail}") from None


@lru_cache(maxsize=8)
def _config_magnitude(predicate_spec: str, dp_sigma: float) -> float:
    """:attr:`GlimmerConfig.magnitude`, memoised: a Glimmer reads it at
    every mask install, and the spec's predicate is built to answer."""
    proven = default_registry().build(predicate_spec).magnitude
    if dp_sigma > 0.0 or proven is None:
        return FixedPointCodec.bound
    return min(proven, FixedPointCodec.bound)


def features_digest(bigrams: Sequence[tuple[str, str]]) -> bytes:
    """Digest of the service-published feature space.

    Each pair is hashed as ``left NUL right``, so a word holding NUL is a
    :class:`ValidationError`: ``("a\\0b", "c")`` and ``("a", "b\\0c")``
    would otherwise share one digest.
    """
    items = [f"{left}\x00{right}".encode("utf-8") for left, right in bigrams]
    if any(item.count(0) != 1 for item in items):
        raise ValidationError("a feature word holds NUL")
    return hash_items("feature-space", items)


def pack_features(bigrams: Sequence[tuple[str, str]]) -> bytes:
    """The feature list as it enters the Glimmer: its words, UTF-8,
    joined by NUL, and ``b""`` for no list (the bus carries its
    :func:`deflate_features` stream).  A word holding NUL is
    a :class:`ValidationError`, as in :func:`features_digest`."""
    words = [word for left, right in bigrams for word in (left, right)]
    joined = "\x00".join(words)
    if words and joined.count("\x00") != len(words) - 1:
        raise ValidationError("a feature word holds NUL")
    return joined.encode("utf-8")


#: The one compression level of the bus form, so a list has one stream.
DEFLATE_LEVEL = 9
#: The most a bus-form stream may inflate to: the bytes the codec allows
#: one packed vector (8 · MAX_VECTOR_LENGTH).
MAX_INFLATED_FEATURES = 8 * codec.MAX_VECTOR_LENGTH
#: The most a bus-form stream may inflate to per byte of its own length.
#: Published lists inflate 2.5× (k = 77) to 8× (k = 4,096); a list that
#: deflates tighter crosses in stored blocks instead.
MAX_INFLATION = 64


def deflate_features(bigrams: Sequence[tuple[str, str]]) -> bytes:
    """The feature list as it crosses the bus: its :func:`pack_features`
    blob as a raw-deflate stream (no zlib header or checksum; the digest
    names the list), in stored blocks if deflating would take it past
    :data:`MAX_INFLATION`.  Its length depends only on the public list."""
    packed = pack_features(bigrams)
    for level in (DEFLATE_LEVEL, 0):  # level 0 stores: never shorter than its bytes
        deflater = zlib.compressobj(level, zlib.DEFLATED, -15)
        stream = deflater.compress(packed) + deflater.flush()
        if len(packed) <= MAX_INFLATION * len(stream):
            break
    return stream


def inflate_features(stream: bytes) -> bytes:
    """The packed blob a :func:`deflate_features` stream carries.
    ``ValueError`` for bytes that are not raw deflate, a stream that stops
    short or has bytes after its end, or one that would inflate past
    :data:`MAX_INFLATION` times its length or :data:`MAX_INFLATED_FEATURES`
    (it is not inflated further)."""
    limit = min(MAX_INFLATED_FEATURES, MAX_INFLATION * len(stream))
    inflater = zlib.decompressobj(-15)
    try:
        packed = inflater.decompress(stream, limit + 1)
    except zlib.error:
        raise ValueError("not a raw-deflate stream") from None
    if len(packed) > limit:
        raise ValueError(f"inflates past {limit} bytes")
    if not inflater.eof:
        raise ValueError("the stream stops short")
    if inflater.unused_data:
        raise ValueError("bytes after the end of the stream")
    return packed


@lru_cache(maxsize=8)
def received_features(stream: bytes, digest: bytes) -> bytes:
    """The packed list a bus-form ``stream`` carries, once it inflates
    (:func:`inflate_features`) to a list that hashes to ``digest``;
    ``ValueError`` naming what is wrong otherwise.  Memoised
    on a stream that passes and on no other (``lru_cache`` keeps no
    exception): the wire's check and the host's keep inflate once, every
    host in a process holds one blob, and a refused list is kept nowhere."""
    try:
        packed = inflate_features(stream)
    except ValueError as exc:
        raise ValueError(f"feature list does not inflate: {exc}") from None
    _published(packed, digest)
    return packed


def unpack_features(blob: bytes) -> tuple[tuple[str, str], ...]:
    """The feature list a :func:`pack_features` blob carries (``()`` for
    ``b""``).  ``ValueError`` for an odd word count, bad UTF-8 or more than
    :data:`~repro.codec.MAX_VECTOR_LENGTH` pairs."""
    if not blob:
        return ()
    pairs, odd = divmod(blob.count(0) + 1, 2)
    if odd:
        raise ValueError("an odd number of words")
    if pairs > codec.MAX_VECTOR_LENGTH:
        raise ValueError("more pairs than the vector-length cap")
    try:
        words = blob.decode("utf-8").split("\x00")
    except UnicodeDecodeError:
        raise ValueError("words not UTF-8") from None
    return tuple(zip(words[0::2], words[1::2]))


def published_features(blob: bytes, digest: bytes) -> tuple[tuple[str, str], ...]:
    """The list a :func:`pack_features` blob carries, held to ``digest``;
    :class:`ValidationError` for a blob that does not unpack or misses
    ``digest``."""
    try:
        return _published(blob, digest)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


@lru_cache(maxsize=8)
def _published(blob: bytes, digest: bytes) -> tuple[tuple[str, str], ...]:
    """A blob's list, held to ``digest``; ``ValueError`` with the complaint
    otherwise.  Memoised only for a list that matched (``lru_cache`` keeps
    no exception): every contribution a Glimmer checks, and every first
    trip the wire checks, hands it the one list the service published,
    and a list that misses its digest is kept nowhere."""
    try:
        features = unpack_features(blob)
    except ValueError as exc:
        raise ValueError(f"feature list does not unpack: {exc}") from None
    if features_digest(features) != digest:
        raise ValueError("features do not hash to the published digest")
    return features


@wire(0x8109, round_id=ROUND_ID, values=bytes, features=bytes, blind=Bool, party_index=SLOT)
@dataclass(frozen=True)
class ProcessRequest:
    """What the client hands the Glimmer for one contribution.

    ``values`` is the contribution as packed big-endian doubles
    (:func:`~repro.perf.kernels.be_doubles_to_bytes`), so it crosses the
    ecall at 8 bytes a value whatever the values are.  ``features`` is the
    published feature list as the host received it, packed
    (:func:`pack_features`); the Glimmer unpacks it and holds it to the
    digest in its measured config (:func:`published_features`).
    """

    round_id: int
    values: bytes
    features: bytes
    blind: bool = True
    party_index: int = 0
    """Which blinding-mask slot this contribution consumes (see §3's p_i)."""


def request_values(request: ProcessRequest) -> tuple[float, ...]:
    """The request's values as floats.  The host packs them, so bytes that
    are not whole doubles, or that hold a NaN or an infinity, are a
    refusal, never a crash: no predicate ever sees a non-finite value."""
    if len(request.values) % 8:
        raise ValidationError("values are not packed doubles")
    floats = kernels.be_doubles(request.values)
    if not np.isfinite(floats).all():
        raise ValidationError("values are not all finite")
    return tuple(floats.tolist())


@wire(
    0x8108, session_id=Bytes(), peer_dh_public=Element(),
    handshake_signature=Optional(SchnorrSignature), encrypted_payload=Bytes(),
    group=Optional(Named(GROUPS)),
)
@dataclass(frozen=True)
class KeyDelivery:
    """Provisioner → Glimmer: a secret, over the attested handshake.

    A full delivery carries the provisioner's DH half in ``group`` and its
    signature over :func:`handshake_digest`.  An in-session one names its
    session by ``session_id`` (the :func:`session_handle`) and carries
    none of the three.
    """

    session_id: bytes
    peer_dh_public: int | None
    handshake_signature: SchnorrSignature | None
    encrypted_payload: bytes
    group: DHGroup | None = None


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
            if delivery.peer_dh_public is None:
                raise AuthenticationError(f"a full {context!r} delivery lacks its DH half")
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


class GlimmerStep(EnclaveProgram):
    """What every Glimmer step runs on: the measured :class:`GlimmerConfig`.

    The steps below are §3's components, each written once.
    :class:`GlimmerProgram` holds all of them in one enclave; the split
    Glimmer (:mod:`repro.core.split`) holds one per enclave.  Each
    ``on_load`` chains through ``super()``, so an enclave holding several
    steps decodes its config and opens its handshake table once, and
    every step is part of the measurement of each enclave that holds it
    (:func:`~repro.sgx.measurement.code_identity_of`).
    """

    def on_load(self) -> None:
        super().on_load()
        self._config = GlimmerConfig.decode(self.api.config)


class DeliveryStep(GlimmerStep):
    """§3's attested deliveries into this enclave: one handshake table."""

    def on_load(self) -> None:
        super().on_load()
        self._handshakes = HandshakeSessions(
            self.api, self._config.service_identity.group
        )

    @ecall
    def begin_handshake(self, session_id: bytes) -> int:
        """Start a provisioning session; returns the Glimmer's DH public value."""
        return self._handshakes.begin(session_id)


class ValidateStep(GlimmerStep):
    """§3's Validation: the measured predicate over the values and the
    private context."""

    def on_load(self) -> None:
        super().on_load()
        self._predicate = default_registry().build(self._config.predicate_spec)

    def _validate(
        self, request: ProcessRequest, context: PrivateContext | None = None
    ) -> tuple[tuple[float, ...], float]:
        """The request's values and the predicate's confidence, or a refusal.

        The request and the private context passed their classes' declared
        checks as they crossed into the enclave: the ecall and the host's
        answer to the ocall, or a §4.2 decode (whose device sends its own
        context).  Beside them the predicate reads the Glimmer's own
        :class:`RoundFacts`, which no host-fed record can name: the round,
        the published feature list, unpacked and held to the measured
        digest, and the round's rollback-proof counter.
        """
        if context is None:
            needed = tuple(self._predicate.required_context())
            context = (
                self.api.ocall("collect_private_data", needed, expect=PrivateContext)
                if needed else PrivateContext()
            )
        facts = RoundFacts(
            request.round_id,
            published_features(request.features, self._config.features_digest),
            self.api.monotonic_counter(f"contributions-round-{request.round_id}"),
        )
        values = request_values(request)
        outcome = self._predicate.evaluate(values, context, facts)
        self.api.charge(outcome.cycles, "validation")
        if not outcome.passed:
            raise ValidationError(
                f"{outcome.predicate_name} rejected contribution: {outcome.reason}"
            )
        return values, outcome.confidence


class BlindStep(DeliveryStep):
    """§3's Blinding: the round masks, delivered, checked and consumed."""

    def on_load(self) -> None:
        super().on_load()
        self._blinding = BlindingComponent()

    @ecall
    def install_blinding_mask(
        self,
        round_id: int,
        party_index: int,
        delivery: KeyDelivery,
        commitment: MaskCommitmentRecord,
        width: int,
    ) -> None:
        """Accept a (round, party) mask from the blinding service, to blind
        at ``width`` bits a word.

        The delivery arrives over the attested channel — a full one, or
        one in the session the last full one opened, keyed to this round
        and slot — and carries the slot's full commitment opening.  The
        Glimmer always verifies that opening against ``commitment``, the
        slot's engine-vouched :class:`MaskCommitmentRecord`, before
        installing — a blinding service that delivers a wrong-length,
        tampered, or equivocated mask is caught *here*, inside the
        enclave, and the round aborts with the blinder blamed rather than
        aggregating garbage.  The record reaches the enclave through the
        host, never the blinder: a call with no record, or with one for
        another round, slot or group, is the host's doing and is refused
        (:class:`EnclaveError`) before the delivery is opened.  So is a
        ``width`` too narrow for the record's ``num_slots`` values each at
        this Glimmer's own :attr:`~GlimmerConfig.magnitude`
        (:func:`~repro.crypto.fixedpoint.holds_sum`): an honest cohort's
        sum could wrap at it.  The opening's share — a seed, or a last
        slot's words — is expanded once and checked in ``Z/2^64``; the
        reuse check reads that row, only the share is kept, and
        :meth:`_blind` expands it again.
        """
        if not isinstance(commitment, MaskCommitmentRecord) or (
            commitment.round_id,
            commitment.slot,
            commitment.group_name,
        ) != (round_id, party_index, self._config.blinder_identity.group.name):
            raise EnclaveError(
                f"install refused: no commitment record for round {round_id}, "
                f"slot {party_index}"
            )
        if not holds_sum(width, commitment.num_slots, self._config.magnitude):
            raise EnclaveError(
                f"install refused: {width}-bit words do not hold round {round_id}'s "
                f"sum of {commitment.num_slots} values"
            )
        plaintext = self._handshakes.open(
            delivery,
            self._config.blinder_identity,
            BLINDING_MASK_CONTEXT,
            (round_id, party_index),
        )
        opening = decode_mask_payload(plaintext)
        self.api.charge_signature()  # two group exps, priced like a verify
        row = verify_opening(commitment, party_index, opening)
        self._blinding.install_mask(round_id, party_index, opening.share, row, width)

    def _blind(
        self, round_id: int, party_index: int, values: Sequence[float]
    ) -> bytes:
        """Noise, then mask, one validated contribution; returns the
        blinded words the signature will cover."""
        if self._config.dp_sigma > 0.0:
            # Distributed DP (Gaussian mechanism): each Glimmer adds
            # noise before blinding, so the *aggregate* — the only thing
            # the service ever sees — carries calibrated noise even if
            # the service is curious.  The noise is enclave-private.
            values = tuple(
                v + self.api.rng.gauss(0.0, self._config.dp_sigma) for v in values
            )
            self.api.charge(40 * len(values), "dp-noise")
        ring_payload = self._blinding.blind(round_id, party_index, values)
        # Record the signing in a platform counter *before* the signed
        # contribution leaves the enclave.  The counter never blocks
        # (repeat signings with fresh masks are legitimate — E15's
        # flooding arm depends on that); it exists so restore_round can
        # refuse a checkpoint older than the last signing, which is
        # what stops a rolled-back enclave from re-signing a consumed
        # mask and double-submitting.
        self.api.monotonic_counter(f"blind-signings-round-{round_id}").increment()
        self.api.charge_aead(len(ring_payload))
        return ring_payload


class SignStep(DeliveryStep):
    """§3's Signing: the service's key, delivered or restored, endorsing."""

    def on_load(self) -> None:
        super().on_load()
        self._signing: SigningComponent | None = None

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
        self._hold_signing_key(plaintext)
        return self.api.seal(plaintext, policy="mrenclave")

    @ecall
    def restore_signing_key(self, sealed_blob: bytes) -> None:
        """Reload a previously sealed signing key (after enclave restart)."""
        self._hold_signing_key(self.api.unseal(sealed_blob))

    def _hold_signing_key(self, secret: bytes) -> None:
        self._signing = SigningComponent(
            SchnorrKeyPair.from_secret(
                int.from_bytes(secret, "big"), self._config.service_identity.group
            )
        )

    def _signer(self) -> SigningComponent:
        if self._signing is None:
            raise ProtocolError("signing key not provisioned")
        return self._signing

    def _endorse(
        self,
        round_id: int,
        nonce: bytes,
        ring_payload: bytes | None,
        plain_payload: bytes | None,
        confidence: float,
    ) -> SignedContribution:
        """Sign a validated payload: the blinded words, or (for an
        unblinded request) the packed values."""
        self.api.charge_signature()
        return self._signer().endorse(
            round_id=round_id,
            nonce=nonce,
            blinded=ring_payload is not None,
            ring_payload=ring_payload,
            plain_payload=plain_payload,
            confidence=confidence,
        )


@wire(
    0x8111, round_id=ROUND_ID,
    masks=TupleOf(Pair(SLOT, Pair(RING_WIDTH, MaskShare))),
    signings=Int(0),
)
@dataclass(frozen=True)
class RoundCheckpoint:
    """A round's unconsumed masks as :meth:`GlimmerProgram.checkpoint_round`
    seals them: ``(slot, (width, share))`` pairs, each mask as the Glimmer
    holds it — a 32-byte seed, or a last slot's words — and the round's
    blind-signing counter when the checkpoint was cut."""

    round_id: int
    masks: tuple[tuple[int, tuple[int, MaskShare]], ...]
    signings: int


class GlimmerProgram(ValidateStep, BlindStep, SignStep):
    """The single-enclave Glimmer (Figure 3): every step, one enclave."""

    # --------------------------------------------------------- the main path

    @ecall(ProcessRequest)
    def process_contribution(self, request: ProcessRequest) -> SignedContribution:
        """Validate → blind → sign.  Raises :class:`ValidationError` on reject.

        Raw values and the private context exist only inside this call
        (Input Confidentiality); the signature is issued only on a passing
        validation (Input Integrity).
        """
        return self._process(request)

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
        response = codec.encode(self._process(*_decode_remote_payload(plaintext)))
        self.api.charge_aead(len(response))
        nonce = self.api.rng.generate(16)
        return cipher.encrypt(
            nonce, response, associated_data=session_id + b":response"
        ).to_bytes()

    def _process(
        self, request: ProcessRequest, context: PrivateContext | None = None
    ) -> SignedContribution:
        self._signer()  # no key, no ocall for private data
        values, confidence = self._validate(request, context)
        nonce = self.api.rng.generate(16)
        if not request.blind:
            return self._endorse(request.round_id, nonce, None, request.values, confidence)
        ring_payload = self._blind(request.round_id, request.party_index, values)
        return self._endorse(request.round_id, nonce, ring_payload, None, confidence)

    # ------------------------------------------------- crash-recoverable state

    @ecall
    def checkpoint_round(self, round_id: int) -> bytes:
        """Seal this round's unconsumed masks for crash recovery.

        The blob binds the current value of the round's blind-signing
        counter: a restarted enclave restoring it can prove the masks
        inside were not yet consumed when the checkpoint was cut.  Sealed
        to MRENCLAVE, so the untrusted host can store it but not read it.
        """
        masks = tuple(self._blinding.masks_for_round(round_id).items())
        counter = self.api.monotonic_counter(f"blind-signings-round-{round_id}")
        state = RoundCheckpoint(round_id, masks, counter.value)
        return self.api.seal(codec.encode(state), policy="mrenclave")

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
        try:
            checkpoint = codec.decode(self.api.unseal(sealed_blob), RoundCheckpoint)
        except ProtocolViolation as exc:
            raise EnclaveError("malformed round checkpoint") from exc
        round_id = checkpoint.round_id
        counter = self.api.monotonic_counter(f"blind-signings-round-{round_id}")
        if counter.value > checkpoint.signings:
            raise EnclaveError(
                f"round {round_id} checkpoint is stale: {counter.value} signing(s) "
                f"recorded since it was sealed (rollback refused)"
            )
        self._blinding.restore_masks(round_id, dict(checkpoint.masks))
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
    def has_mask(self, round_id: int, party_index: int = 0) -> bool:
        return self._blinding.has_mask(round_id, party_index)


def _encode_remote_payload(request: ProcessRequest, context: PrivateContext) -> bytes:
    """Frame a remote contribution for the attested channel (§4.2): the
    request and the client's private context, as one :mod:`repro.codec`
    frame inside the authenticated ciphertext."""
    return codec.encode((request, context))


def _decode_remote_payload(blob: bytes) -> tuple[ProcessRequest, PrivateContext]:
    try:
        return codec.decode(blob, Pair(ProcessRequest, PrivateContext))
    except ProtocolViolation as exc:
        raise ProtocolError("malformed remote contribution payload") from exc


def decode_remote_response(blob: bytes) -> SignedContribution:
    """Client-side decoding of the Glimmer's encrypted response."""
    try:
        return codec.decode(blob, SignedContribution)
    except ProtocolViolation as exc:
        raise ProtocolError("malformed remote response") from exc


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
        config=codec.encode(config),
        memory_bytes=memory_bytes,
        debug=debug,
    )
