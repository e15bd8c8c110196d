"""Network messages.

A :class:`Message` is what crosses the simulated wire.  Its payload is
any value :mod:`repro.codec` can frame — the transport sends the frame
and the receiver gets it decoded; *secure* payloads are
sealed by the parties themselves (an attested ``KeyDelivery``, a Glimmer
signature), so an on-path adversary holding a raw message sees only
ciphertext or cannot forge it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any


@dataclass(frozen=True)
class Message:
    """One transmission: addressing, a kind tag, and an opaque payload."""

    sender: str
    receiver: str
    kind: str
    payload: Any
    message_id: int = 0
    sent_at_ms: float = 0.0
    attempt: int = 1
    """Which delivery attempt of the same logical request this is.

    ``attempt > 1`` marks a sender-side retransmission.  Handlers with
    side effects key their idempotency caches on it: a retransmission may
    be answered from cache (the response leg can drop after the handler
    ran), while a *fresh* message replaying old content (``attempt == 1``)
    still hits the strict protocol checks — replay attacks must not ride
    the retry path.
    """

    def with_payload(self, payload: Any) -> "Message":
        """Copy with a replaced payload (tamper adversaries use this)."""
        return replace(self, payload=payload)
