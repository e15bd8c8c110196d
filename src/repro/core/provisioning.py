"""Trust establishment: vetting, attested key and mask provisioning.

§3's trust story has three legs, all implemented here:

1. **Vetting** — "Once it has been vetted, the hash of the Glimmer is
   published, and the user can use SGX to attest that their client is
   running the approved Glimmer."  :class:`VettingRegistry` is the
   published list of approved measurements (think: the EFF's signed list).
2. **Service-side provisioning** — the service verifies a quote that binds
   the Glimmer's DH handshake value to an approved measurement, then ships
   its signing key encrypted under the agreed key, signing its own
   handshake half so the Glimmer knows it talks to the real service
   (mutual authentication, as §4.1 spells out).
3. **Blinding-mask provisioning** — the blinding service does the same
   dance once per device, and keeps the agreed key as a *session*: each
   round's sum-zero mask then arrives sealed under a key derived from it
   for that round and slot, while the session stays live (see
   :class:`~repro.sgx.sessions.SessionBroker`).

Both provisioners refuse unattested, mis-measured, debug, or mis-bound
Glimmers — the checks experiment E12 exercises one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import codec
from repro.codec import LENGTH, PARTIES, Bytes, wire
from repro.core.glimmer import (
    BLINDING_MASK_CONTEXT,
    SIGNING_KEY_CONTEXT,
    KeyDelivery,
    handshake_digest,
    session_handle,
    session_round_key,
)
from repro.crypto.cipher import AuthenticatedCipher, SealedBox
from repro.crypto.commitments import (
    MaskCommitmentSet,
    MaskOpening,
    commit_masks,
    encode_mask_payload,
)
from repro.crypto.dh import DHKeyPair
from repro.crypto.drbg import HmacDrbg
from repro.crypto.kdf import hkdf
from repro.crypto.masking import BlindingService, GroupedSumZeroMasks, MaskShare
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrSignature
from repro.errors import AttestationError, ConfigurationError, CryptoError, ProtocolViolation
from repro.scale.subgroup import plan_subgroups
from repro.sgx.attestation import (
    AttestationResult,
    AttestationService,
    Quote,
    QuotePolicy,
    report_data_for,
)
from repro.sgx.sessions import SessionBroker

_SEED_SIZE = 32


@wire(
    0x8112, length=LENGTH, num_slots=PARTIES, group_size=PARTIES, seeds=Bytes(),
    opening_seed=Bytes(_SEED_SIZE),
)
@dataclass(frozen=True)
class SealedRound:
    """A sealed round's plaintext (DESIGN.md §3 "Sealed rounds"): the
    family's shape, one seed per subgroup of ``plan_subgroups(round_id,
    num_slots, group_size)``, in order, and the openings' seed."""

    length: int
    num_slots: int
    group_size: int
    seeds: bytes
    opening_seed: bytes


class VettingRegistry:
    """The published list of vetted Glimmer measurements."""

    def __init__(self) -> None:
        self._approved: dict[str, bytes] = {}

    def publish(self, name: str, mrenclave: bytes) -> None:
        """Publish a vetted Glimmer hash (idempotent for the same hash)."""
        existing = self._approved.get(name)
        if existing is not None and existing != mrenclave:
            raise ConfigurationError(
                f"{name!r} already published with a different measurement"
            )
        self._approved[name] = mrenclave

    def approved_measurement(self, name: str) -> bytes:
        measurement = self._approved.get(name)
        if measurement is None:
            raise ConfigurationError(f"no vetted Glimmer named {name!r}")
        return measurement


def _verify_bound_quote(
    check,
    quote: Quote,
    expected_mrenclave: bytes,
    glimmer_dh_public: int,
) -> AttestationResult:
    """Verify a quote and that it binds the given handshake value.

    ``check(quote, policy)`` is :meth:`AttestationService.verify`, or a
    :meth:`SessionBroker.verify <repro.sgx.sessions.SessionBroker.verify>`
    (which answers a quote it verified this epoch from its cache, and
    with ``screen`` skips only the platform-signature exponentiations of
    a quote minted inside the caller's own worker fork).
    """
    result = check(quote, QuotePolicy(expected_mrenclave=expected_mrenclave))
    expected_binding = report_data_for(glimmer_dh_public.to_bytes(256, "big"))
    if result.report_data != expected_binding:
        raise AttestationError(
            "quote does not bind the presented DH handshake value"
        )
    return result


@dataclass(frozen=True)
class DeliveryLeg:
    """A provisioner's half of one delivery, drawn before the Glimmer's:
    a fresh ``keypair`` (full attested delivery), or else the ``(handle,
    key)`` of the live ``session`` it rides in; and the AEAD nonce."""

    keypair: DHKeyPair | None
    session: tuple[bytes, bytes] | None
    nonce: bytes


def seal_delivery(
    identity: SchnorrKeyPair,
    leg: DeliveryLeg,
    session_id: bytes,
    glimmer_dh_public: int | None,
    payload: bytes,
    context: str,
    binding: tuple[int, int] | None = None,
) -> tuple[KeyDelivery, tuple[bytes, bytes] | None]:
    """Seal ``payload`` for the Glimmer; also returns the ``(handle, key)``
    session a full leg opens (``None`` for an in-session leg).

    A full leg signs this side's handshake half and seals under the DH
    key.  An in-session leg seals under :func:`session_round_key` for
    ``binding`` — the ``(round_id, slot)`` it serves — and signs nothing.
    Pure in its arguments — no DRBG, no session table — so a pool worker
    handed a parent-drawn leg seals the very bytes the provisioner would
    have.
    """
    if leg.keypair is None:
        session_id, session_key = leg.session  # the handle names the session
        key = session_round_key(session_key, context, *binding)
        group, own_public, signature, opened = None, None, None, None
    else:
        group, own_public = leg.keypair.group, leg.keypair.public
        key = leg.keypair.derive_key(glimmer_dh_public, context)
        signed = identity.sign(
            handshake_digest(context, session_id, glimmer_dh_public, own_public)
        )
        # Verified on its own, never batched: the nonce commitment stays home.
        signature = SchnorrSignature(signed.challenge, signed.response, group=signed.group)
        handle = session_handle(context, session_id, glimmer_dh_public, own_public)
        opened = (handle, key)
    box = AuthenticatedCipher(key).encrypt(
        leg.nonce, payload, associated_data=session_id
    )
    delivery = KeyDelivery(
        session_id=session_id,
        peer_dh_public=own_public,
        handshake_signature=signature,
        encrypted_payload=box.to_bytes(),
        group=group,
    )
    return delivery, opened


@dataclass
class _ProvisionerBase:
    """Shared quote-check + encrypted-delivery machinery."""

    identity: SchnorrKeyPair
    attestation: AttestationService
    registry: VettingRegistry
    glimmer_name: str
    rng: HmacDrbg

    def _check_quote(
        self, quote: Quote, glimmer_dh_public: int, check=None
    ) -> AttestationResult:
        """The quote against the approved measurement, bound to the DH
        value; ``check`` defaults to a full verification."""
        expected = self.registry.approved_measurement(self.glimmer_name)
        return _verify_bound_quote(
            check or self.attestation.verify, quote, expected, glimmer_dh_public
        )

    def _fresh_leg(self) -> DeliveryLeg:
        """A full leg: a fresh DH keypair, then the nonce."""
        keypair = DHKeyPair.generate(self.identity.group, self.rng)
        return DeliveryLeg(keypair, None, self.rng.generate(16))

    def _deliver(
        self,
        session_id: bytes,
        glimmer_dh_public: int,
        quote: Quote,
        payload: bytes,
        context: str,
    ) -> KeyDelivery:
        """One full attested delivery of a one-shot secret: no session."""
        self._check_quote(quote, glimmer_dh_public)
        delivery, _opened = seal_delivery(
            self.identity,
            self._fresh_leg(),
            session_id,
            glimmer_dh_public,
            payload,
            context,
        )
        return delivery


class ServiceProvisioner(_ProvisionerBase):
    """The service side of signing-key provisioning.

    ``identity`` doubles as the service's handshake-signing identity; the
    *contribution signing key* delivered to Glimmers is separate
    (``signing_keypair``), so compromising one does not compromise the
    other.
    """

    def __init__(
        self,
        identity: SchnorrKeyPair,
        signing_keypair: SchnorrKeyPair,
        attestation: AttestationService,
        registry: VettingRegistry,
        glimmer_name: str,
        rng: HmacDrbg,
    ) -> None:
        super().__init__(identity, attestation, registry, glimmer_name, rng)
        self.signing_keypair = signing_keypair

    def provision_signing_key(
        self, session_id: bytes, glimmer_dh_public: int, quote: Quote
    ) -> KeyDelivery:
        """Verify the attested handshake and ship the signing key secret."""
        secret_bytes = self.signing_keypair.secret.to_bytes(256, "big")
        return self._deliver(
            session_id,
            glimmer_dh_public,
            quote,
            secret_bytes,
            SIGNING_KEY_CONTEXT,
        )


class BlinderProvisioner(_ProvisionerBase):
    """The blinding service side of per-round mask provisioning.

    Wraps a :class:`repro.crypto.masking.BlindingService`; the paper notes
    this party "could, itself, be implemented as a separate enclave on one
    of the clients, or as a distinct trusted service".

    Either way it can crash.  Each round is sealed (here: an authenticated
    cipher under a key derived from the provisioner's identity secret —
    the moral equivalent of enclave sealing for this simulated party) the
    moment it opens, so a restarted blinder can still provision remaining
    parties and, critically, still reveal dropout masks for §3 repair.
    Without that persistence a mid-round blinder crash would force
    aborting every open round.  What is sealed is seeds, not rows: the
    mask family's subgroup seeds and the seed its commitment openings are
    drawn from, a few hundred bytes whatever the vector length.

    All of that state lives exactly as long as the round is open.
    Between open and :meth:`close_round` the masks exist once, inside the
    :class:`BlindingService`, as shares: a seed per slot and one row, the
    last slot's, per subgroup.  This class keeps per slot only the
    commitment opening's ``(salt, randomizer)`` and builds a
    :class:`MaskOpening` around the slot's share on demand; a delivery and
    a reveal carry the seed, and whoever receives it expands the row.  Closing drops masks,
    commitments, openings and the sealed blob, and leaves the round id
    as a tombstone: a finished round can be neither re-opened nor
    revealed, because §3's privacy argument needs ``p_i`` gone once
    ``y_i`` has been aggregated.

    Devices are attested once per *session*, not once per round.  The
    first mask a device receives is a full attested delivery, and the
    blinder keeps its DH key in :attr:`sessions`, the one session table;
    while that session stays live each later request names it by handle
    alone and is answered in it.  The table is process memory: a crash
    forgets it, and each device pays one full delivery after the restart.
    """

    def __init__(
        self,
        identity: SchnorrKeyPair,
        blinding: BlindingService,
        attestation: AttestationService,
        registry: VettingRegistry,
        glimmer_name: str,
        rng: HmacDrbg,
    ) -> None:
        super().__init__(identity, attestation, registry, glimmer_name, rng)
        self.sessions = SessionBroker(attestation)
        self.blinding: BlindingService | None = blinding
        self._codec = blinding.codec
        self._seal_key = hkdf(
            identity.secret.to_bytes(256, "big"), "blinder-round-sealing"
        )
        self._sealed_rounds: dict[int, bytes] = {}
        self._commitments: dict[int, MaskCommitmentSet] = {}
        #: round -> per-slot ``(salt, randomizer)``; the masks themselves
        #: stay in ``blinding`` (one resident copy per open round).
        self._openings: dict[int, tuple[tuple[bytes, int], ...]] = {}
        self._closed: set[int] = set()
        self.restarts = 0

    def _require_blinding(self) -> BlindingService:
        if self.blinding is None:
            raise CryptoError("blinding service is down (crashed, not restarted)")
        return self.blinding

    def _refuse_closed(self, round_id: int) -> None:
        if round_id in self._closed:
            raise CryptoError(f"round {round_id} is closed")

    def _blinding_for(self, round_id: int) -> BlindingService:
        """The live blinding service, for a round that may still be served."""
        self._refuse_closed(round_id)
        return self._require_blinding()

    def _seal_round(
        self, round_id: int, masks: GroupedSumZeroMasks, opening_seed: bytes
    ) -> bytes:
        shape = (masks.length, masks.plan.num_slots, masks.plan.group_size)
        blob = codec.encode(SealedRound(*shape, b"".join(masks.seeds), opening_seed))
        box = AuthenticatedCipher(self._seal_key).encrypt(
            self.rng.generate(16), blob, associated_data=round_id.to_bytes(8, "big")
        )
        return box.to_bytes()

    def _unseal_round(
        self, round_id: int, sealed: bytes
    ) -> tuple[GroupedSumZeroMasks, bytes]:
        blob = AuthenticatedCipher(self._seal_key).decrypt(
            SealedBox.from_bytes(sealed), associated_data=round_id.to_bytes(8, "big")
        )
        try:
            state = codec.decode(blob, SealedRound)
        except ProtocolViolation as exc:
            raise CryptoError(f"sealed round {round_id} is malformed: {exc.detail}") from None
        if state.group_size > state.num_slots:
            raise CryptoError(f"sealed round {round_id} has an invalid shape")
        plan = plan_subgroups(round_id, state.num_slots, state.group_size)
        if len(state.seeds) != _SEED_SIZE * plan.num_groups:
            raise CryptoError(f"sealed round {round_id} has the wrong seed count")
        seeds = tuple(
            state.seeds[at : at + _SEED_SIZE] for at in range(0, len(state.seeds), _SEED_SIZE)
        )
        return GroupedSumZeroMasks(plan, seeds, state.length), state.opening_seed

    def _commit_round(
        self, round_id: int, masks: GroupedSumZeroMasks, opening_seed: bytes
    ) -> None:
        """Commit to the round's masks with openings drawn from
        ``opening_seed``.  Open and :meth:`restart` both land here, so a
        recovered blinder republishes byte-identical commitments."""
        commitments, openings = commit_masks(
            self.identity.group,
            round_id,
            masks.shares,
            HmacDrbg(opening_seed, personalization=f"fork:mask-commitments-{round_id}"),
        )
        self._commitments[round_id] = commitments
        self._openings[round_id] = tuple(
            (opening.salt, opening.randomizer) for opening in openings
        )

    def open_round(
        self, round_id: int, num_parties: int, length: int, subgroup_size: int = 0
    ) -> MaskCommitmentSet:
        """Sample the round's masks, commit to them, seal, publish the set.

        The returned :class:`MaskCommitmentSet` is the verifiability
        contract: the engine validates it when the round opens, forwards
        per-slot records to clients during provisioning, and checks the
        homomorphic sum-zero property over it at finalize.

        The family sums to zero inside every subgroup of
        ``plan_subgroups(round_id, num_parties, subgroup_size)``; a flat
        round (``subgroup_size`` 0) is one subgroup of every slot, as at
        the cloud service.  Commitments are per slot either way, so
        everything downstream of this call — delivery, reveal
        verification, the sum-zero audit — is construction-agnostic.  The
        commit expands one row at a time; what stays is each subgroup's
        slot seeds and last row.
        """
        masks = self._blinding_for(round_id).open_round_grouped(
            round_id, num_parties, length, subgroup_size or num_parties
        )
        opening_seed = self.rng.generate(_SEED_SIZE)
        self._commit_round(round_id, masks, opening_seed)
        self._sealed_rounds[round_id] = self._seal_round(round_id, masks, opening_seed)
        return self._commitments[round_id]

    def close_round(self, round_id: int) -> None:
        """The round is over: drop everything held for it (idempotent).

        Masks, commitments, openings and the sealed blob — in the
        persistent store too, so a later :meth:`restart` no longer
        recovers the round — all go; only the round id stays, and with it
        :meth:`open_round`, :meth:`provision_mask`, :meth:`mask_opening`
        and :meth:`reveal_dropout_mask` refuse the round for good.  Safe
        while the blinding service is down: the sealed blob is what a
        restart would have recovered from.
        """
        self._closed.add(round_id)
        if self.blinding is not None:
            self.blinding.close_round(round_id)
        self._commitments.pop(round_id, None)
        self._openings.pop(round_id, None)
        try:
            # One store operation; ``pop`` on a persistent map is two.
            del self._sealed_rounds[round_id]
        except KeyError:
            pass

    def attach_sealed_store(self, store) -> None:
        """Swap the sealed-round holder for a persistent mapping.

        ``store`` is any ``MutableMapping[int, bytes]`` (in practice a
        :class:`repro.service.storage.SealedBlobMap`); blobs already
        sealed in memory are migrated into it, and blobs already in the
        store — a previous process's rounds — become recoverable by
        :meth:`restart`.  Only rounds that were never closed have a blob,
        so that is the rounds a crashed process left open.  The blobs are
        ciphertext under the identity-derived seal key either way, so
        moving them to external storage widens availability, never the
        trust boundary.
        """
        for round_id, blob in self._sealed_rounds.items():
            store[round_id] = blob
        self._sealed_rounds = store

    def has_round(self, round_id: int) -> bool:
        return self.blinding is not None and self.blinding.has_round(round_id)

    def round_commitments(self, round_id: int) -> MaskCommitmentSet:
        """The published commitment set for an open (or recovered) round."""
        commitments = self._commitments.get(round_id)
        if commitments is None:
            self._refuse_closed(round_id)
            raise CryptoError(f"no mask commitments for round {round_id}")
        return commitments

    def _opening(self, round_id: int, party_index: int, share: MaskShare) -> MaskOpening:
        """Wrap a slot's share, as it is, in its commitment opening."""
        openings = self._openings.get(round_id)
        if openings is None:
            raise CryptoError(f"no mask openings for round {round_id}")
        if not 0 <= party_index < len(openings):
            raise CryptoError(
                f"round {round_id} has no party {party_index}"
            )
        salt, randomizer = openings[party_index]
        return MaskOpening(share, salt, randomizer, self.identity.group)

    def mask_opening(self, round_id: int, party_index: int) -> MaskOpening:
        """One slot's full opening (share, salt, randomizer)."""
        share = self._blinding_for(round_id).mask_for(round_id, party_index)
        return self._opening(round_id, party_index, share)

    def crash(self) -> None:
        """The blinding service process dies; in-memory mask state and
        sessions are gone."""
        self.blinding = None
        self._commitments.clear()
        self._openings.clear()
        self.sessions.end_sessions()
        self.restarts += 1

    def restart(self) -> list[int]:
        """Stand the service back up and recover every *open* round.

        Closed rounds have no sealed blob left, so recovery costs O(open
        rounds), not O(rounds ever run).  Each round's family is rebuilt
        from its sealed seeds, and its commitments are re-derived from the
        sealed opening seed, so the recovered service republishes
        byte-identical commitment sets — the engine's copies from round
        open stay valid.
        """
        self.blinding = BlindingService(
            self.rng.fork(f"blinder-restart-{self.restarts}"), self._codec
        )
        recovered: list[int] = []
        for round_id in sorted(self._sealed_rounds):
            masks, opening_seed = self._unseal_round(
                round_id, self._sealed_rounds[round_id]
            )
            self.blinding.restore_round(round_id, masks)
            self._commit_round(round_id, masks, opening_seed)
            recovered.append(round_id)
        return recovered

    def provision_mask(
        self,
        session_id: bytes,
        glimmer_dh_public: int | None,
        quote: Quote | None,
        round_id: int,
        party_index: int,
    ) -> KeyDelivery:
        """Ship the party's mask opening — its seed, or a last slot's
        words — over an attested channel.

        With a ``quote``, a full attested delivery that opens a session;
        without one, a delivery in the live session ``session_id`` names
        (refused with :class:`AttestationError` when it is not live).
        """
        opening = self.mask_opening(round_id, party_index)
        return self.deliver_opening(
            session_id, glimmer_dh_public, quote, round_id, party_index, opening
        )

    def deliver_opening(
        self,
        session_id: bytes,
        glimmer_dh_public: int | None,
        quote: Quote | None,
        round_id: int,
        party_index: int,
        opening: MaskOpening,
    ) -> KeyDelivery:
        """:meth:`provision_mask` for a given ``opening``."""
        attested = None
        if quote is not None:
            # A repeat of a handshake whose answer was lost is answered
            # from the table's quote cache: the same attestation, not a
            # second one.
            attested = self._check_quote(quote, glimmer_dh_public, self.sessions.verify)
        leg = self._draw_leg(session_id if quote is None else None)
        delivery, opened = seal_delivery(
            self.identity,
            leg,
            session_id,
            glimmer_dh_public,
            encode_mask_payload(opening),
            BLINDING_MASK_CONTEXT,
            (round_id, party_index),
        )
        if opened is not None:
            self.sessions.open_session(*opened, attested)
        return delivery

    def _draw_leg(self, handle: bytes | None) -> DeliveryLeg:
        """The only code that touches ``rng`` or the session table for a
        delivery: the live session ``handle`` names — refused with
        :class:`AttestationError` when it is not live — or, for no
        handle, a fresh keypair; then the nonce.  The pool draws every
        slot's leg here, in slot order, before dispatch."""
        if handle is None:
            return self._fresh_leg()
        key = self.sessions.session_key(
            handle, self.registry.approved_measurement(self.glimmer_name)
        )
        return DeliveryLeg(None, (handle, key), self.rng.generate(16))

    def reveal_dropout_mask(self, round_id: int, party_index: int) -> MaskOpening:
        """§3 dropout repair: disclose a non-submitting party's full opening.

        Returns the opening, not just the share, so the engine can verify
        the revealed value against the round commitments before trusting
        it for repair — a lying blinder cannot corrupt the aggregate by
        mis-revealing.
        """
        share = self._blinding_for(round_id).mask_for_dropout(
            round_id, party_index
        )
        return self._opening(round_id, party_index, share)
