"""Incremental attestation sessions: quote caching, tickets, delivery sessions.

Full remote attestation is the most expensive leg of bringing a device
online — a quote-verify (Schnorr) plus a DH handshake per join.  At IoT
fleet scale, where flaky links make disconnect-and-rejoin churn the
*common* case, paying that full price on every rejoin is absurd: nothing
about the platform or the enclave changed while the radio faded.

:class:`SessionBroker` makes re-attestation incremental:

* **Quote caching** — successful verifications are cached keyed by
  ``(platform_id, MRENCLAVE, policy_epoch)``.  Re-verifying the *same*
  quote body under the *same* policy epoch is answered from cache; any
  change to the quote digest, the measurement, or the epoch forces a
  full verify.  A stale quote replayed after a policy bump therefore
  never hits cache — the epoch in the key has moved on.
* **Resumption tickets** — :meth:`establish` mints a MACed
  :class:`SessionTicket` naming the platform, its measurement, and the
  epoch it attested under.  A rejoining client presents the ticket to
  :meth:`resume` and skips both the quote-verify and the DH leg:
  :meth:`resume_key` derives the resumed channel's traffic key from the
  broker's ticket secret, so both ends agree on keys without a fresh
  handshake.
* **Delivery sessions** — the blinding service's session table.  A full
  attested delivery (quote-bound DH, signed handshake) opens a session
  under the current epoch (:meth:`open_session`), named by a handle both
  ends derive from that handshake; each later delivery asks
  :meth:`session_key` for its key, at the cost of a few set lookups.
* **Forced re-attestation** — :meth:`bump_policy_epoch` advances the
  verifier's trust epoch (new published measurement, revocation sweep);
  every outstanding ticket, cache entry and session is instantly stale,
  because all are keyed by epoch.  Resumption also re-checks revocation
  and the current measurement policy on every call: a ticket or session
  never outlives a revocation, and a measurement-policy change rejects
  tickets minted for the old hash even within an epoch.

The broker is deliberately *count-transparent* (``counters()``): the
fleet chaos harness asserts that full re-attestations grow sublinearly
in rejoin count, which is the whole point of the layer.
"""

from __future__ import annotations

import hmac as _hmac
from dataclasses import dataclass, replace

from repro.crypto.kdf import hkdf
from repro.errors import AttestationError
from repro.sgx.attestation import (
    AttestationResult,
    AttestationService,
    Quote,
    QuotePolicy,
)

__all__ = ["SessionTicket", "SessionBroker", "SESSION_DELIVERIES"]

_TICKET_ID_BYTES = 16

#: Deliveries one session serves, the establishing one included, before
#: its device must present a fresh quote: whatever else holds, no key and
#: no piece of evidence is used without end.
SESSION_DELIVERIES = 64

#: Sessions a broker keeps; past this the oldest goes first (typically one
#: a restarted device abandoned).
_MAX_SESSIONS = 8192


@dataclass
class _Session:
    """One live delivery session: its key and what it was attested as."""

    key: bytes
    platform_id: bytes
    mrenclave: bytes
    policy_epoch: int
    deliveries: int = 1


@dataclass(frozen=True)
class SessionTicket:
    """A resumption ticket: proof of a prior full attestation.

    The MAC binds the ticket to the broker that minted it; the embedded
    ``policy_epoch`` pins the trust state it attested under.  Tickets
    are bearer tokens *within the simulation* — confidentiality of the
    ticket on the wire is the secure channel's job, exactly as with TLS
    session tickets.
    """

    ticket_id: bytes
    platform_id: bytes
    mrenclave: bytes
    policy_epoch: int
    mac: bytes

    def body(self) -> bytes:
        return b"|".join(
            (
                b"attestation-session-ticket",
                self.ticket_id,
                self.platform_id,
                self.mrenclave,
                self.policy_epoch.to_bytes(8, "big"),
            )
        )


class SessionBroker:
    """Verifier-side session state: quote cache, ticket registry, and the
    delivery session table."""

    def __init__(
        self,
        verifier: AttestationService,
        policy: QuotePolicy | None = None,
        *,
        seed: bytes = b"attestation-sessions",
    ) -> None:
        self.verifier = verifier
        self.policy = policy or QuotePolicy()
        self._mac_key = hkdf(seed, "session-ticket-mac", length=32)
        self._next_ticket = 0
        # (platform_id, mrenclave, policy_epoch) -> digest of the quote
        # last verified in full under that key
        self._cache: dict[tuple[bytes, bytes, int], bytes] = {}
        self._results: dict[bytes, AttestationResult] = {}
        #: handle -> live delivery session, oldest first.
        self._sessions: dict[bytes, _Session] = {}
        self.full_verifications = 0
        self.cache_hits = 0
        self.resumed = 0
        self.resume_rejected = 0
        self.epoch_bumps = 0

    # ------------------------------------------------------------- lifecycle

    def bump_policy_epoch(self) -> int:
        """Advance the trust epoch; all tickets, cache entries and sessions
        go stale.

        Nothing is explicitly purged: cache entries, tickets and sessions
        are keyed/pinned by epoch, so stale state is unreachable by
        construction rather than by cleanup — there is no window where a
        missed purge would honor stale trust.
        """
        self.policy = replace(
            self.policy, policy_epoch=self.policy.policy_epoch + 1
        )
        self.epoch_bumps += 1
        return self.policy.policy_epoch

    def counters(self) -> dict[str, int]:
        return {
            "full_verifications": self.full_verifications,
            "cache_hits": self.cache_hits,
            "resumed": self.resumed,
            "resume_rejected": self.resume_rejected,
            "epoch_bumps": self.epoch_bumps,
        }

    # ----------------------------------------------------------- attestation

    def verify(
        self, quote: Quote, policy: QuotePolicy | None = None, *, screen: bool = False
    ) -> AttestationResult:
        """Verify a quote, answering identical re-verifications from cache.

        Cache hits require the *same* quote digest under the *same*
        ``(platform, MRENCLAVE, policy_epoch)`` key: a different quote
        body (fresh report data, new enclave version) or a bumped epoch
        always pays the full verification.  A hit still re-checks
        everything but the signature — revocation and policy — so a
        cached verification never outlives the platform's standing.

        ``policy`` is the caller's, for one whose own registry says what
        is approved (the epoch is still this broker's); ``screen`` skips
        the platform signature of a quote the caller saw minted
        (:meth:`AttestationService.screen`).  A miss is one full
        verification either way.
        """
        policy = policy or self.policy
        key = (quote.platform_id, quote.mrenclave, self.policy.policy_epoch)
        digest = quote.signed_digest()
        cached = self._cache.get(key)
        if cached is not None and _hmac.compare_digest(cached, digest):
            result = self.verifier.screen(quote, policy)
            self.cache_hits += 1
            return result
        check = self.verifier.screen if screen else self.verifier.verify
        result = check(quote, policy)
        self.full_verifications += 1
        self._cache[key] = digest
        return result

    def establish(self, quote: Quote) -> tuple[AttestationResult, SessionTicket]:
        """Verify (cached or full) and mint a resumption ticket."""
        result = self.verify(quote)
        self._next_ticket += 1
        ticket_id = b"ticket-" + self._next_ticket.to_bytes(
            _TICKET_ID_BYTES - 7, "big"
        )
        ticket = SessionTicket(
            ticket_id=ticket_id,
            platform_id=quote.platform_id,
            mrenclave=quote.mrenclave,
            policy_epoch=self.policy.policy_epoch,
            mac=b"",
        )
        ticket = replace(
            ticket,
            mac=_hmac.new(self._mac_key, ticket.body(), "sha256").digest(),
        )
        self._results[ticket_id] = result
        return result, ticket

    def resume(self, ticket: SessionTicket) -> AttestationResult:
        """Admit a rejoining client without a full quote-verify.

        The cheap checks still run on *every* resumption: ticket MAC
        (the broker minted it), policy epoch (no bump since), current
        measurement policy (the hash the ticket names is still the
        published one), and revocation (the platform is still in good
        standing).  Any failure raises :class:`AttestationError` — the
        client falls back to a full attestation.
        """
        expected = _hmac.new(self._mac_key, ticket.body(), "sha256").digest()
        if not _hmac.compare_digest(expected, ticket.mac):
            self.resume_rejected += 1
            raise AttestationError("session ticket MAC invalid")
        if ticket.policy_epoch != self.policy.policy_epoch:
            self.resume_rejected += 1
            raise AttestationError(
                f"session ticket is from policy epoch {ticket.policy_epoch}; "
                f"current epoch is {self.policy.policy_epoch} — re-attest"
            )
        if (
            self.policy.expected_mrenclave is not None
            and ticket.mrenclave != self.policy.expected_mrenclave
        ):
            self.resume_rejected += 1
            raise AttestationError(
                "session ticket names a measurement the policy no longer "
                "trusts — re-attest"
            )
        if self.verifier.is_revoked(ticket.platform_id):
            self.resume_rejected += 1
            raise AttestationError("session ticket from a revoked platform")
        if not self.verifier.is_provisioned(ticket.platform_id):
            self.resume_rejected += 1
            raise AttestationError("session ticket from an unknown platform")
        result = self._results.get(ticket.ticket_id)
        if result is None:
            self.resume_rejected += 1
            raise AttestationError("session ticket is not registered here")
        self.resumed += 1
        return result

    def resume_key(self, ticket: SessionTicket) -> bytes:
        """Traffic key for a resumed channel — no DH leg required.

        Derived from the broker's ticket secret and the ticket identity,
        so only the broker and the ticket holder (who received the key at
        establishment) can compute it.
        """
        return hkdf(
            self._mac_key + ticket.body(), "session-resume-key", length=32
        )

    # ------------------------------------------------------ delivery sessions

    def open_session(
        self, handle: bytes, key: bytes, attested: AttestationResult
    ) -> None:
        """Keep the key a full attested delivery just established.

        ``attested`` is that delivery's quote check (:meth:`verify`); the
        session is pinned to its platform and measurement and to the
        current epoch.
        """
        if len(self._sessions) >= _MAX_SESSIONS:
            del self._sessions[next(iter(self._sessions))]
        self._sessions[handle] = _Session(
            key, attested.platform_id, attested.mrenclave, self.policy.policy_epoch
        )

    def session_key(self, handle: bytes, mrenclave: bytes) -> bytes:
        """The key of a live session, for one more delivery.

        Live means: the measurement it attested is still ``mrenclave``
        (the one approved now), its epoch is the current one, its
        platform is not revoked, and it has served fewer than
        :data:`SESSION_DELIVERIES`.  Set lookups only, no public-key
        work.  Anything else ends the session and raises
        :class:`AttestationError`: the device re-attests in full.
        """
        session = self._sessions.get(handle)
        if session is None:
            reason = "no such session (never opened, ended, or forgotten)"
        elif session.mrenclave != mrenclave:
            reason = "session names a measurement no longer approved"
        elif session.policy_epoch != self.policy.policy_epoch:
            reason = (
                f"session is from policy epoch {session.policy_epoch}; "
                f"current epoch is {self.policy.policy_epoch}"
            )
        elif self.verifier.is_revoked(session.platform_id):
            reason = "session from a revoked platform"
        elif session.deliveries >= SESSION_DELIVERIES:
            reason = f"session served its {SESSION_DELIVERIES} deliveries"
        else:
            session.deliveries += 1
            self.resumed += 1
            return session.key
        self._sessions.pop(handle, None)
        self.resume_rejected += 1
        raise AttestationError(f"{reason} — re-attest")

    def end_sessions(self) -> None:
        """Forget every delivery session (the holder's memory is gone)."""
        self._sessions.clear()
