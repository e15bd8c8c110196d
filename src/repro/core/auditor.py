"""The runtime auditor of §4.1: bound what an opaque Glimmer can say.

When the validation predicate itself is encrypted (validation
confidentiality), the user can no longer audit the Glimmer's code.  The
paper's answer: "making the message format between the Glimmer and the
service public, and having a runtime auditor check that each message is
well formed and contains only one bit of information (i.e., a single bit
plus a well-defined signature and challenge response).  While this does not
preclude a covert channel, it puts a hard upper bound on the capacity of
such a channel."

The public format (:class:`VerdictMessage`) has exactly three fields beyond
addressing, and the auditor checks each carries zero *attacker-controllable*
freedom beyond the verdict bit:

* ``verdict_bit`` — the one permitted bit;
* ``challenge_response`` — must equal ``H(challenge ‖ verdict_bit)``, a
  deterministic function of public values, so it cannot smuggle anything;
* ``signature_bytes`` — must be exactly the fixed signature length; the
  auditor cannot check determinism without the key, so it *counts* the
  message against the session's bit budget instead.

:class:`RuntimeAuditor` enforces the format and accounts the covert-channel
capacity: after ``n`` audited messages, at most ``n`` bits can have left
the device, whatever the encrypted predicate tried (experiment E9 measures
an actively exfiltrating predicate against this bound).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import Bytes, Int, Str, wire
from repro.crypto.hashing import hash_items
from repro.errors import AuditError

SIGNATURE_BYTES = 512  # SchnorrSignature.to_bytes() length
CHALLENGE_BYTES = 32
RESPONSE_BYTES = 32


@wire(
    0x810E, session_id=Str, challenge=Bytes(CHALLENGE_BYTES), verdict_bit=Int(0, 1),
    challenge_response=Bytes(RESPONSE_BYTES), signature_bytes=Bytes(SIGNATURE_BYTES),
)
@dataclass(frozen=True)
class VerdictMessage:
    """The public 1-bit message format between Glimmer and service."""

    session_id: str
    challenge: bytes
    verdict_bit: int
    challenge_response: bytes
    signature_bytes: bytes

    def information_bits(self) -> int:
        """The message's attacker-usable information content (by format)."""
        return 1


def expected_response(challenge: bytes, verdict_bit: int) -> bytes:
    """The only legal challenge response: H(challenge ‖ verdict)."""
    return hash_items(
        "verdict-challenge-response", [challenge, bytes([verdict_bit & 1])]
    )


@dataclass
class AuditRecord:
    """Per-session accounting."""

    messages_passed: int = 0
    messages_rejected: int = 0
    bits_released: int = 0


class RuntimeAuditor:
    """Checks every outbound verdict message against the public format.

    Sits on the host, outside the enclave — it needs no secrets, only the
    public format and the service's challenge, which is why an end user (or
    the EFF on their behalf) can run it.
    """

    def __init__(self, max_bits_per_session: int | None = None) -> None:
        self.max_bits_per_session = max_bits_per_session
        self._sessions: dict[str, AuditRecord] = {}

    def record_for(self, session_id: str) -> AuditRecord:
        record = self._sessions.get(session_id)
        if record is None:
            record = AuditRecord()
            self._sessions[session_id] = record
        return record

    def audit(self, message: VerdictMessage, expected_challenge: bytes) -> VerdictMessage:
        """Pass a well-formed message through; raise :class:`AuditError` otherwise.

        Checks, in order: field types and lengths, the verdict bit's
        domain, challenge freshness, response correctness, and (if
        configured) the session's cumulative bit budget.
        """
        record = self.record_for(message.session_id)
        try:
            self._check_format(message, expected_challenge)
            if self.max_bits_per_session is not None:
                if record.bits_released + message.information_bits() > self.max_bits_per_session:
                    raise AuditError(
                        f"session {message.session_id!r} exceeded its "
                        f"{self.max_bits_per_session}-bit release budget"
                    )
        except AuditError:
            record.messages_rejected += 1
            raise
        record.messages_passed += 1
        record.bits_released += message.information_bits()
        return message

    def _check_format(self, message: VerdictMessage, expected_challenge: bytes) -> None:
        if not isinstance(message.verdict_bit, int) or message.verdict_bit not in (0, 1):
            raise AuditError("verdict must be exactly one bit")
        if not isinstance(message.challenge, bytes) or len(message.challenge) != CHALLENGE_BYTES:
            raise AuditError("challenge field malformed")
        if message.challenge != expected_challenge:
            raise AuditError("message does not answer the service's challenge")
        if (
            not isinstance(message.challenge_response, bytes)
            or len(message.challenge_response) != RESPONSE_BYTES
        ):
            raise AuditError("challenge response malformed")
        if message.challenge_response != expected_response(
            message.challenge, message.verdict_bit
        ):
            raise AuditError(
                "challenge response is not the prescribed deterministic value"
            )
        if (
            not isinstance(message.signature_bytes, bytes)
            or len(message.signature_bytes) != SIGNATURE_BYTES
        ):
            raise AuditError(
                f"signature must be exactly {SIGNATURE_BYTES} bytes"
            )

    def capacity_bound_bits(self, session_id: str) -> int:
        """The hard upper bound on what this session can have leaked."""
        return self.record_for(session_id).bits_released
