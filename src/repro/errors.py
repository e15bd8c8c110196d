"""Exception hierarchy for the Glimmers reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can distinguish library failures from programming errors.  Security
failures (bad signatures, failed attestation, rejected contributions) get
their own branches because experiments count them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key, bad parameters)."""


class AuthenticationError(CryptoError):
    """Ciphertext, signature, or MAC verification failed."""


class MaskVerificationError(CryptoError):
    """A blinding mask does not match the provisioner's round commitments.

    Raised by the Glimmer at install time and by the engine at reveal
    time; the engine converts it into a blamed abort of the round — a
    lying blinding service is detected, never silently aggregated over.
    """


class ProtocolError(ReproError):
    """A multi-party protocol received a message violating its state machine."""


VIOLATION_MALFORMED = "malformed-message"
"""The violation kind of a message no honest sender could have spelled."""


class ProtocolViolation(ProtocolError):
    """A message that no honest party would send: malformed fields,
    out-of-phase traffic, equivocation, or a quarantined sender.

    Carries enough structure for the quarantine layer to blame someone:
    ``offender`` is the endpoint (or party name) that misbehaved, ``kind``
    is one of the ``VIOLATION_*`` constants in
    :mod:`repro.runtime.protocol`, and ``round_id`` the round it hit.
    """

    def __init__(
        self,
        detail: str,
        *,
        offender: str = "unknown",
        kind: str = "protocol-violation",
        round_id: int | None = None,
    ) -> None:
        super().__init__(detail)
        self.detail = detail
        self.offender = offender
        self.kind = kind
        self.round_id = round_id


class RefusedAtWire(ProtocolViolation):
    """A message refused before any handler logic ran: its payload has no
    frame, its frame fails a declared field check, or the payload is not
    its kind's class or breaks its kind's rule (:mod:`repro.runtime.wire`).

    A ``malformed-message`` violation blamed on whoever sent it — the
    caller on a request leg, the responder on a reply leg.
    """

    def __init__(
        self, detail: str, *, offender: str = "unknown", round_id: int | None = None
    ) -> None:
        super().__init__(
            detail, offender=offender, kind=VIOLATION_MALFORMED, round_id=round_id
        )
        self.recorded = False
        """Set once a protocol monitor has logged it, so a refusal that
        unwinds through an enclosing call is not logged twice."""


class UnencodablePayload(RefusedAtWire):
    """A value the wire codec (:mod:`repro.codec`) has no spelling for."""


class EnclaveError(ReproError):
    """The SGX simulator rejected an operation (bad enclave state, EPC, ...)."""


class AttestationError(EnclaveError):
    """A quote failed verification, or attestation preconditions do not hold."""


class SealingError(EnclaveError):
    """Sealed data could not be unsealed (wrong measurement/signer/key)."""


class ValidationError(ReproError):
    """A Glimmer validation predicate rejected a contribution."""


class AuditError(ReproError):
    """The runtime auditor rejected an outbound message (format/bit budget)."""


class NetworkError(ReproError):
    """The simulated transport could not deliver a message."""


class RoundAbortedError(ProtocolError):
    """A round lost too many participants to finalize safely."""


class ConfigurationError(ReproError):
    """An object was constructed or used with inconsistent parameters."""


class RoundIdsExhaustedError(ReproError):
    """The service has handed out every round id the wire can spell
    (:data:`repro.codec.MAX_ROUND_ID`); it opens no round whose frames a
    receiver would refuse."""


class AdmissionError(ReproError):
    """The service's submission queue refused an enqueue (backpressure).

    Raised when the durable queue is at capacity and the overflow policy
    is ``reject``, or when even the deferred buffer is full under
    ``defer``.  Carries no client data — admission control is load
    shedding, not a protocol verdict."""


class StorageError(ReproError):
    """Base class for storage-backend failures in the service layer."""


class StorageFaultError(StorageError):
    """One storage operation failed (transient: an I/O error, a torn write).

    This is the *retryable* storage failure: the resilience layer backs
    off and re-issues the operation.  The chaos harness injects it at the
    ``storage.*`` fault sites; a real deployment would map ``OSError`` /
    ``sqlite3.OperationalError`` onto it at the backend boundary."""


class StorageUnavailableError(StorageError):
    """Storage is down for real: retries exhausted or the circuit is open.

    Raised fail-fast by an open :class:`~repro.service.resilience
    .CircuitBreaker` so callers stop hammering a dead backend, and by the
    retry layer once its attempt budget is spent.  The service reacts by
    quarantining the affected tenant (bulkhead), never by blocking."""


class ServiceKilledError(ReproError):
    """The chaos schedule hard-killed the service process at this point.

    Only ever raised when a fault injector is attached to the service's
    kill points; the harness catches it, drops the in-memory service, and
    restarts from persisted state — the crash itself is the test."""
