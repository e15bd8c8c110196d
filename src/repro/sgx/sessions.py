"""Incremental attestation sessions: quote caching and delivery sessions.

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
* **Delivery sessions** — the blinding service's session table.  A full
  attested delivery (quote-bound DH, signed handshake) opens a session
  under the current epoch (:meth:`open_session`), named by a handle both
  ends derive from that handshake; each later delivery asks
  :meth:`session_key` for its key, at the cost of a few set lookups.
* **Forced re-attestation** — :meth:`bump_policy_epoch` advances the
  verifier's trust epoch (new published measurement, revocation sweep);
  every cache entry and session is instantly stale, because both are
  keyed by epoch.  Every session key lookup also re-checks revocation
  and the approved measurement: a session never outlives a revocation,
  and a measurement-policy change ends sessions attested under the old
  hash even within an epoch.

The broker is deliberately *count-transparent* (``counters()``): the
fleet chaos harness asserts that full re-attestations grow sublinearly
in rejoin count, which is the whole point of the layer.
"""

from __future__ import annotations

import hmac as _hmac
from dataclasses import dataclass, replace

from repro.errors import AttestationError
from repro.sgx.attestation import (
    AttestationResult,
    AttestationService,
    Quote,
    QuotePolicy,
)

__all__ = ["SessionBroker", "SESSION_DELIVERIES"]

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


class SessionBroker:
    """Verifier-side session state: the quote cache and the delivery
    session table."""

    def __init__(
        self, verifier: AttestationService, policy: QuotePolicy | None = None
    ) -> None:
        self.verifier = verifier
        self.policy = policy or QuotePolicy()
        # (platform_id, mrenclave, policy_epoch) -> digest of the quote
        # last verified in full under that key
        self._cache: dict[tuple[bytes, bytes, int], bytes] = {}
        #: handle -> live delivery session, oldest first.
        self._sessions: dict[bytes, _Session] = {}
        self.full_verifications = 0
        self.cache_hits = 0
        self.resumed = 0
        self.resume_rejected = 0
        self.epoch_bumps = 0

    # ------------------------------------------------------------- lifecycle

    def bump_policy_epoch(self) -> int:
        """Advance the trust epoch; all cache entries and sessions go stale.

        Nothing is explicitly purged: cache entries and sessions are
        keyed/pinned by epoch, so stale state is unreachable by
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
