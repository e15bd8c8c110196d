"""The long-lived Glimmer service: overlapping rounds over durable state.

The :mod:`repro.runtime` engine runs one round at a time, in memory, to
completion.  This package wraps it in a service shape:

* :mod:`repro.service.storage` — a pluggable persistence interface
  (in-memory, on-disk JSON, SQLite) behind one :class:`StorageBackend`;
* :mod:`repro.service.audit` — a hash-chained, append-only audit log of
  every trust-relevant event;
* :mod:`repro.service.journal` — the round journal that makes a crash
  mid-round recoverable without double-counting anything;
* :mod:`repro.service.queue` — the durable submission queue with
  admission control (bounded depth, reject-or-defer overflow);
* :mod:`repro.service.resilience` — the armor between the service and its
  storage: capped-jittered retries, a per-backend circuit breaker, and
  fail-fast :class:`~repro.errors.StorageUnavailableError` conversion;
* :mod:`repro.service.service` — :class:`GlimmerService`, the multi-tenant
  composition: several cloud services sharing one blinding provisioner,
  continuous intake, crash recovery, per-tenant bulkheads, a round
  watchdog, chaos kill-points, and the one round scheduler, which steps
  the tenants' :meth:`~repro.runtime.engine.RoundEngine.round_stages`
  generators round-robin so their rounds overlap, bit-exact per round;
* :mod:`repro.service.chaos` — the kill-and-restart self-healing harness
  driving all of the above under scheduled storage faults;
* :mod:`repro.service.fleet` — the flaky-fleet chaos harness: deterministic
  link weather (:mod:`repro.network.conditions`), adaptive deadlines, and
  incremental attestation sessions, proven exact-or-recovered per schedule.

The synchronous engine remains the bit-exact reference; everything here
reuses its phase logic verbatim and only changes *when* it runs.
"""

from repro.service.audit import EVENT_REPAIR, AuditLog
from repro.service.fleet import run_fleet_schedule
from repro.service.journal import RoundJournal
from repro.service.queue import (
    OVERFLOW_DEFER,
    OVERFLOW_REJECT,
    STATE_APPLIED,
    STATE_ASSIGNED,
    STATE_DEFERRED,
    STATE_PENDING,
    STATE_REJECTED,
    SubmissionQueue,
)
from repro.service.resilience import (
    CircuitBreaker,
    ResilientStorageBackend,
    RetryPolicy,
)
from repro.service.service import GlimmerService, TenantRuntime
from repro.service.storage import (
    DiskBackend,
    MemoryBackend,
    SealedBlobMap,
    SQLiteBackend,
    StorageBackend,
    build_backend,
)

__all__ = [
    "AuditLog",
    "CircuitBreaker",
    "DiskBackend",
    "EVENT_REPAIR",
    "GlimmerService",
    "MemoryBackend",
    "OVERFLOW_DEFER",
    "OVERFLOW_REJECT",
    "ResilientStorageBackend",
    "RetryPolicy",
    "RoundJournal",
    "SQLiteBackend",
    "STATE_APPLIED",
    "STATE_ASSIGNED",
    "STATE_DEFERRED",
    "STATE_PENDING",
    "STATE_REJECTED",
    "SealedBlobMap",
    "StorageBackend",
    "SubmissionQueue",
    "TenantRuntime",
    "build_backend",
    "run_fleet_schedule",
]
