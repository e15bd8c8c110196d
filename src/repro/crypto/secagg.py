"""Pairwise-mask secure aggregation with dropout recovery (Bonawitz et al.).

§3 of the paper cites "Practical Secure Aggregation for Federated Learning
on User-Held Data" [3] as the blinding technique a Glimmer would use.  The
simple sum-zero scheme (:mod:`repro.crypto.masking`) needs a trusted
blinding service; this module implements the decentralized alternative the
citation describes, so experiment E3 can compare both:

* every pair of clients ``(i, j)`` derives a shared seed via Diffie-Hellman
  and expands it into a mask vector; client ``i`` adds it, client ``j``
  subtracts it, so pairwise masks cancel in the server's sum;
* every client also adds a private *self-mask* ``b_i`` to defend against a
  server that colludes with late-dropping clients;
* both the DH secret (via a 16-byte generating seed) and ``b_i`` are
  Shamir-shared among the cohort, so the server can repair the sum when
  clients drop: it reconstructs the *pairwise* seeds of dropped clients and
  the *self-masks* of survivors — never both for the same client, which is
  the protocol's key privacy invariant, enforced here by the client logic.

The server never sees an individual ``x_i`` in the clear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro import codec
from repro.codec import wire
from repro.crypto.cipher import AuthenticatedCipher, SealedBox
from repro.crypto.dh import DHGroup, DHKeyPair, OAKLEY_GROUP_1
from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec
from repro.crypto.kdf import hkdf
from repro.crypto.shamir import ShamirShare, recover_secret, split_secret
from repro.errors import CryptoError, ProtocolError, ProtocolViolation
from repro.perf import kernels

_SEED_SIZE = 16


def _expand_mask(seed: bytes, label: str, length: int) -> np.ndarray:
    """PRG-expand a seed into a ``np.uint64`` ring vector: one HMAC stream
    pass parsed as big-endian words."""
    rng = HmacDrbg(seed, personalization="secagg-mask:" + label)
    return rng.uint64_vector(length)


def _keypair_from_seed(seed: bytes, group: DHGroup) -> DHKeyPair:
    rng = HmacDrbg(seed, personalization="secagg-dh-keypair")
    return DHKeyPair.generate(group, rng)


@dataclass(frozen=True)
class KeyBundle:
    """Round-0 advertisement: a client's identity and DH public value."""

    client_id: int
    dh_public: int


@dataclass(frozen=True)
class EncryptedShares:
    """Round-1 payload from one client to one peer (encrypted under their pairwise key)."""

    sender: int
    receiver: int
    box: SealedBox


@wire(0x8118, seed_share=ShamirShare, selfmask_share=ShamirShare)
@dataclass(frozen=True)
class PeerShares:
    """A peer's two round-1 shares: what its payload carries and a client keeps."""

    seed_share: ShamirShare
    selfmask_share: ShamirShare


class SecureAggregationClient:
    """One protocol participant.

    Drive it through the round methods in order; each validates protocol
    state and raises :class:`ProtocolError` on misuse.  The privacy
    invariant — never reveal both a peer's key-seed share and its self-mask
    share — is enforced in :meth:`unmask_response`.
    """

    def __init__(
        self,
        client_id: int,
        rng: HmacDrbg,
        group: DHGroup = OAKLEY_GROUP_1,
    ) -> None:
        self.client_id = client_id
        self._rng = rng
        self._group = group
        self._dh_seed = rng.generate(_SEED_SIZE)
        self._keypair = _keypair_from_seed(self._dh_seed, group)
        self._selfmask_seed = rng.generate(_SEED_SIZE)
        self._roster: dict[int, KeyBundle] = {}
        self._threshold = 0
        self._held_shares: dict[int, PeerShares] = {}
        self._position: dict[int, int] = {}
        self._revealed_seed: set[int] = set()
        self._revealed_selfmask: set[int] = set()
        self._sent_masked_input = False

    # ---------------------------------------------------------------- round 0

    def advertise(self) -> KeyBundle:
        """Publish this client's DH public key."""
        return KeyBundle(client_id=self.client_id, dh_public=self._keypair.public)

    # ---------------------------------------------------------------- round 1

    def _pairwise_key(self, peer: KeyBundle, context: str) -> bytes:
        shared = self._keypair.shared_secret(peer.dh_public)
        low, high = sorted((self.client_id, peer.client_id))
        return hkdf(shared, f"secagg:{context}:{low}:{high}")

    def share_keys(
        self, roster: Sequence[KeyBundle], threshold: int
    ) -> list[EncryptedShares]:
        """Shamir-share the DH seed and self-mask seed to every peer."""
        if self._roster:
            raise ProtocolError("share_keys already called")
        if threshold < 2:
            raise ProtocolError("threshold must be at least 2")
        ids = [bundle.client_id for bundle in roster]
        if len(set(ids)) != len(ids):
            raise ProtocolError("duplicate client ids in roster")
        if self.client_id not in ids:
            raise ProtocolError("own id missing from roster")
        if threshold > len(roster):
            raise ProtocolError("threshold exceeds cohort size")
        self._roster = {bundle.client_id: bundle for bundle in roster}
        self._threshold = threshold

        peers = [bundle for bundle in roster if bundle.client_id != self.client_id]
        n = len(roster)
        seed_shares = split_secret(self._dh_seed, threshold, n, self._rng.fork("seed"))
        mask_shares = split_secret(
            self._selfmask_seed, threshold, n, self._rng.fork("selfmask")
        )
        # Share x-coordinates are 1-based roster positions; remember our own.
        position = {bundle.client_id: idx + 1 for idx, bundle in enumerate(
            sorted(roster, key=lambda b: b.client_id)
        )}
        self._position = position
        out = []
        for peer in peers:
            idx = position[peer.client_id] - 1
            payload = codec.encode(PeerShares(seed_shares[idx], mask_shares[idx]))
            key = self._pairwise_key(peer, "share-transport")
            cipher = AuthenticatedCipher(key)
            nonce = self._rng.generate(16)
            associated = self.client_id.to_bytes(4, "big") + peer.client_id.to_bytes(4, "big")
            out.append(
                EncryptedShares(
                    sender=self.client_id,
                    receiver=peer.client_id,
                    box=cipher.encrypt(nonce, payload, associated_data=associated),
                )
            )
        # Keep our own shares too (position of self).
        own_idx = position[self.client_id] - 1
        self._held_shares[self.client_id] = PeerShares(
            seed_share=seed_shares[own_idx], selfmask_share=mask_shares[own_idx]
        )
        return out

    def receive_shares(self, messages: Sequence[EncryptedShares]) -> None:
        """Decrypt and store peers' shares addressed to this client."""
        if not self._roster:
            raise ProtocolError("share_keys must run before receive_shares")
        for message in messages:
            if message.receiver != self.client_id:
                raise ProtocolError("share routed to wrong client")
            peer = self._roster.get(message.sender)
            if peer is None:
                raise ProtocolError(f"share from unknown client {message.sender}")
            key = self._pairwise_key(peer, "share-transport")
            cipher = AuthenticatedCipher(key)
            associated = message.sender.to_bytes(4, "big") + self.client_id.to_bytes(4, "big")
            payload = cipher.decrypt(message.box, associated_data=associated)
            try:
                self._held_shares[message.sender] = codec.decode(payload, PeerShares)
            except ProtocolViolation as exc:
                raise CryptoError(f"malformed share payload: {exc.detail}") from None

    # ---------------------------------------------------------------- round 2

    def masked_input(self, encoded: Sequence[int]) -> list[int]:
        """Return ``x + b_i + Σ_{j>i} s_ij - Σ_{j<i} s_ij`` in the ring."""
        if not self._roster:
            raise ProtocolError("share_keys must run before masked_input")
        if self._sent_masked_input:
            raise ProtocolError("masked_input already sent")
        length = len(encoded)
        result = kernels.as_ring(encoded)
        result = result + _expand_mask(self._selfmask_seed, "self", length)
        for peer_id, peer in self._roster.items():
            if peer_id == self.client_id:
                continue
            seed = self._pairwise_key(peer, "pairwise-mask")
            mask = _expand_mask(seed, "pair", length)
            if self.client_id < peer_id:
                result = result + mask
            else:
                result = result - mask
        self._sent_masked_input = True
        return result.tolist()

    # ---------------------------------------------------------------- round 3

    def unmask_response(
        self, survivors: set[int], dropped: set[int]
    ) -> dict[int, ShamirShare]:
        """Reveal recovery shares: key-seed shares for dropped peers, self-mask shares for survivors.

        Refuses to reveal both kinds for the same peer across calls — the
        privacy invariant of the protocol.
        """
        if survivors & dropped:
            raise ProtocolError("a client cannot be both survivor and dropout")
        if self.client_id not in survivors:
            raise ProtocolError("only survivors respond to unmask requests")
        out: dict[int, ShamirShare] = {}
        for peer_id in sorted(dropped):
            if peer_id in self._revealed_selfmask:
                raise ProtocolError(
                    f"refusing to reveal key-seed share for {peer_id}: "
                    "self-mask share already revealed"
                )
            held = self._held_shares.get(peer_id)
            if held is not None:
                out[peer_id] = held.seed_share
                self._revealed_seed.add(peer_id)
        for peer_id in sorted(survivors):
            if peer_id in self._revealed_seed:
                raise ProtocolError(
                    f"refusing to reveal self-mask share for {peer_id}: "
                    "key-seed share already revealed"
                )
            held = self._held_shares.get(peer_id)
            if held is not None:
                out[peer_id] = held.selfmask_share
                self._revealed_selfmask.add(peer_id)
        return out


class SecureAggregationServer:
    """The aggregator: routes messages, sums masked inputs, repairs dropouts.

    It learns only the final sum (plus who participated), which experiment
    E3 verifies by measuring an inversion attacker's advantage against the
    messages the server sees.
    """

    def __init__(self, group: DHGroup = OAKLEY_GROUP_1, reducer=None) -> None:
        self._codec = FixedPointCodec()
        self._group = group
        self._roster: dict[int, KeyBundle] = {}
        self._threshold = 0
        self._masked: dict[int, np.ndarray] = {}
        self._length = 0
        self._reducer = reducer
        """Optional ``callable(matrix) -> row`` summing the
        masked matrix; replaceable with a sharded reducer (any
        partition-and-merge over ring addition is bit-exact against the
        flat sum).  ``None`` — the default — folds via the chunked
        :func:`repro.perf.kernels.ring_accumulate`, which never stacks
        the full cohort matrix."""

    @property
    def codec(self) -> FixedPointCodec:
        return self._codec

    def register(self, bundles: Sequence[KeyBundle], threshold: int) -> list[KeyBundle]:
        """Round 0: fix the cohort and the recovery threshold."""
        ids = [bundle.client_id for bundle in bundles]
        if len(set(ids)) != len(ids):
            raise ProtocolError("duplicate client ids")
        if threshold < 2 or threshold > len(bundles):
            raise ProtocolError("invalid threshold")
        self._roster = {bundle.client_id: bundle for bundle in bundles}
        self._threshold = threshold
        return sorted(bundles, key=lambda b: b.client_id)

    @staticmethod
    def route_shares(
        all_messages: Sequence[EncryptedShares],
    ) -> dict[int, list[EncryptedShares]]:
        """Round 1: group encrypted shares by receiver (server is a dumb router)."""
        routed: dict[int, list[EncryptedShares]] = {}
        for message in all_messages:
            routed.setdefault(message.receiver, []).append(message)
        return routed

    def collect_masked_input(self, client_id: int, masked: Sequence[int]) -> None:
        """Round 2: accept one masked vector per registered client."""
        if client_id not in self._roster:
            raise ProtocolError(f"unknown client {client_id}")
        if client_id in self._masked:
            raise ProtocolError(f"duplicate masked input from {client_id}")
        if self._length == 0:
            self._length = len(masked)
        elif len(masked) != self._length:
            raise ProtocolError("masked input length mismatch")
        # Ingest into a ring array once, at submission time: the round-3
        # unmask is then pure column-wise numpy over a contiguous matrix.
        self._masked[client_id] = kernels.as_ring(masked)

    def survivor_sets(self) -> tuple[set[int], set[int]]:
        """Who submitted (survivors) vs. who dropped after key sharing."""
        survivors = set(self._masked)
        dropped = set(self._roster) - survivors
        return survivors, dropped

    def unmask_and_sum(
        self, responses: Mapping[int, Mapping[int, ShamirShare]]
    ) -> list[int]:
        """Round 3: reconstruct repair masks from shares and output the ring sum.

        ``responses[r][p]`` is responder ``r``'s share for peer ``p``.
        Raises :class:`ProtocolError` if fewer than ``threshold`` shares are
        available for any needed reconstruction.
        """
        survivors, dropped = self.survivor_sets()
        if len(survivors) < self._threshold:
            raise ProtocolError("too few survivors to meet the recovery threshold")
        if self._reducer is not None:
            total = self._reducer(np.stack(list(self._masked.values())))
        else:
            total = kernels.ring_accumulate(self._masked.values())

        # Remove survivors' self-masks.
        for peer_id in sorted(survivors):
            seed = self._reconstruct(responses, peer_id, minimum=self._threshold)
            total = total - _expand_mask(seed, "self", self._length)

        # Cancel dangling pairwise masks between dropped clients and survivors.
        for dropped_id in sorted(dropped):
            seed = self._reconstruct(responses, dropped_id, minimum=self._threshold)
            keypair = _keypair_from_seed(seed, self._group)
            for survivor_id in sorted(survivors):
                peer = self._roster[survivor_id]
                shared = keypair.shared_secret(peer.dh_public)
                low, high = sorted((dropped_id, survivor_id))
                pair_seed = hkdf(shared, f"secagg:pairwise-mask:{low}:{high}")
                mask = _expand_mask(pair_seed, "pair", self._length)
                # The survivor applied sign(survivor, dropped); subtract that.
                if survivor_id < dropped_id:
                    total = total - mask
                else:
                    total = total + mask
        return total.tolist()

    def aggregate(
        self, responses: Mapping[int, Mapping[int, ShamirShare]]
    ) -> "list[float]":
        """Unmask, then decode back to floats with the codec."""
        return list(self._codec.decode(self.unmask_and_sum(responses)))

    def _reconstruct(
        self,
        responses: Mapping[int, Mapping[int, ShamirShare]],
        peer_id: int,
        minimum: int,
    ) -> bytes:
        shares = [
            per_peer[peer_id]
            for per_peer in responses.values()
            if peer_id in per_peer
        ]
        if len(shares) < minimum:
            raise ProtocolError(
                f"only {len(shares)} shares available for client {peer_id}, "
                f"need {minimum}"
            )
        return recover_secret(shares[:minimum])
