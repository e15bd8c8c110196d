"""The kill-and-restart self-healing harness for :class:`GlimmerService`.

One *schedule* is a complete adversarial biography of a service process:
a sampled :func:`~repro.faults.service_plan.sample_service_plan` decides
which storage writes lie (transient I/O errors, torn records, writes
lost after their ack, corrupted audit entries) and at which lifecycle
stage the process is hard-killed.  :func:`run_service_schedule` then
plays the operator: it boots the service over faulty storage, submits a
workload, and every time the process "dies" (:class:`ServiceKilledError`)
or storage gives out (:class:`StorageUnavailableError` after retries and
breaker), it restarts the service **from persisted state only** —
``GlimmerService.recover`` + ``resume_sync`` — and keeps going until the
workload drains.

The invariant proved at the end of every schedule is *exact-or-
recovered*, stated in :mod:`repro.invariants`:

* :func:`~repro.invariants.applied_exactly_once` — every acknowledged
  submission applied, none lost, none named by two finalized rounds;
* every finalized round's recorded aggregate is bit-equal to
  :func:`~repro.invariants.exact_mean` over its journaled values — a
  recovered round is indistinguishable from one that never crashed;
* the audit chain verifies end-to-end, possibly through explicit
  ``audit-repaired`` records for the history the storage destroyed.

Everything is deterministic: the same ``(seed, index, fault_rate)``
against fresh state replays the same fault firings, the same kills, the
same restarts, and the same aggregates — :func:`run_service_schedule`
returns a ``signature`` tuple the replay test compares directly.

The fault storm is bounded: after ``storm_limit`` incidents the harness
declares the weather cleared and reboots over pristine storage (faults
off), modeling an outage that eventually ends.  Self-healing must
converge once the environment does.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro import invariants
from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ReproError,
    ServiceKilledError,
    StorageError,
    StorageUnavailableError,
)
from repro.faults.injector import FaultInjector
from repro.faults.service_plan import sample_service_plan
from repro.faults.storage import FaultyStorageBackend
from repro.service.audit import EVENT_REPAIR, AuditLog
from repro.service.journal import RoundJournal
from repro.service.queue import STATE_ASSIGNED, STATE_DEFERRED, STATE_PENDING
from repro.service.service import GlimmerService

#: Exceptions that mean "the process is dead; restart from disk".
RESTARTABLE = (ServiceKilledError, StorageError)


def run_service_schedule(
    backend_factory: Callable[[], Any],
    *,
    seed: bytes,
    index: int,
    fault_rate: float,
    tenant: str = "alpha",
    num_users: int = 3,
    sentences_per_user: int = 3,
    max_features: int | None = 8,
    queue_capacity: int = 8,
    waves: int = 1,
    storm_limit: int = 40,
    max_steps: int = 160,
) -> dict:
    """Run one full chaos schedule to convergence; returns its report.

    ``backend_factory`` must return a handle over the *same* persistent
    state on every call — it models reopening the database after the
    process died.  Raises :class:`ReproError` if the schedule fails to
    converge, :class:`AssertionError` if any invariant is violated.
    """
    plan = sample_service_plan(
        HmacDrbg(seed, personalization=f"service-plan-{index}"),
        fault_rate,
        label=f"{seed.decode('utf-8', 'replace')}#{index}",
    )
    injector = FaultInjector(plan, seed=seed + b":%d" % index)
    service_kwargs = dict(
        num_users=num_users,
        sentences_per_user=sentences_per_user,
        max_features=max_features,
        queue_capacity=queue_capacity,
    )

    calm = False  # once True, the fault storm has passed
    service: GlimmerService | None = None
    incidents: list[tuple[str, str]] = []
    acked: list[str] = []
    restarts = -1  # the first boot is not a restart
    rounds_recovered = 0
    rounds_aborted = 0
    recovery_time = 0.0  # wall seconds spent in boot+resume (telemetry)
    steps = 0

    def _backend():
        inner = backend_factory()
        return inner if calm else FaultyStorageBackend(inner, injector)

    def _boot() -> GlimmerService:
        nonlocal rounds_recovered, rounds_aborted
        try:
            svc = GlimmerService.recover(_backend(), **service_kwargs)
        except ConfigurationError:
            svc = GlimmerService(_backend(), **service_kwargs)
        if not calm:
            svc.attach_chaos(injector)
        if tenant not in svc.tenants:
            svc.add_tenant(tenant)
        try:
            rounds_recovered += len(svc.resume_sync())
        finally:
            rounds_aborted += svc.rounds_aborted
        return svc

    def _guard(op: Callable[[GlimmerService], Any]) -> Any:
        """Run one step; on a restartable incident, reboot and retry."""
        nonlocal service, restarts, calm, steps, recovery_time
        while True:
            steps += 1
            if steps > max_steps:
                raise ReproError(
                    f"schedule {plan.label} did not converge in "
                    f"{max_steps} steps ({len(incidents)} incidents)"
                )
            try:
                if service is None:
                    started = time.monotonic()
                    service = _boot()
                    recovery_time += time.monotonic() - started
                    restarts += 1
                return op(service)
            except RESTARTABLE as exc:
                incidents.append((type(exc).__name__, str(exc)))
                if len(incidents) >= storm_limit:
                    calm = True
                # A killed process never gets a graceful close; storage
                # commits per mutation, so nothing acked is waiting on a
                # flush.  Just drop the instance and reboot from state.
                service = None

    def _submit(user: str) -> Callable[[GlimmerService], str | None]:
        def op(svc: GlimmerService) -> str | None:
            try:
                return svc.submit_honest(tenant, user)
            except AdmissionError:
                svc.run_pending_sync()  # backpressure: drain, then retry
                return None
            except ConfigurationError:
                # The admission read-back found the entry missing: the
                # write was not durable and the client was *not* acked.
                return None

        return op

    def _drained(svc: GlimmerService) -> bool:
        if svc.journal.unfinished():
            return False
        queue = svc.tenant(tenant).queue
        if queue.count(STATE_PENDING, STATE_ASSIGNED, STATE_DEFERRED):
            return False
        ledger = invariants.applied_exactly_once(
            svc.journal, queue.entry_or_none, acked
        )
        return not (ledger.lost or ledger.in_flight)

    users = _guard(
        lambda svc: sorted(svc.tenant(tenant).deployment.clients)
    )
    for _ in range(waves):
        for user in users:
            sid = None
            while sid is None:
                sid = _guard(_submit(user))
            acked.append(sid)

        def _drain_step(svc: GlimmerService) -> list:
            if svc.degraded and not svc.probe_degraded():
                # The bulkhead is holding but the storage behind it has
                # not come back; a process restart (fresh breaker, clean
                # degraded registry) is the operator's next move.
                raise StorageUnavailableError(
                    f"degraded tenants not recovering: "
                    f"{sorted(svc.degraded)}"
                )
            return svc.run_pending_sync()

        while not _guard(_drained):
            if not _guard(_drain_step):
                # No pending work moved, yet the persisted state is not
                # reconciled — e.g. a finalize record was lost after its
                # ack, which only recover+resume can settle.  Bounce the
                # process; self-healing lives on the restart path.
                service = None

    # ------------------------------------------------------------ invariants
    raw = backend_factory()
    journal = RoundJournal(raw)
    ledger = invariants.applied_exactly_once(
        journal, lambda sid: raw.get(f"queue/{tenant}", sid), acked
    )
    assert not ledger.doubled, (
        f"{plan.label}: submissions double-counted across finalized "
        f"rounds: {ledger.doubled}"
    )
    assert not (ledger.lost or ledger.in_flight), (
        f"{plan.label}: acked submissions lost {ledger.lost} or never "
        f"applied {ledger.in_flight}"
    )

    finalized = invariants.finalized_rounds(journal)
    aggregates: list[tuple[int, tuple[float, ...]]] = []
    for round_id, entry, recorded in finalized:
        if entry is None or "values_by_user" not in entry or recorded is None:
            continue  # e.g. a settled round whose aggregate record was lost
        aggregates.append((round_id, tuple(float(v) for v in recorded)))
        values = entry["values_by_user"]
        truth = invariants.exact_mean(FixedPointCodec(), values, values)
        assert [float(v) for v in recorded] == [float(v) for v in truth], (
            f"{plan.label}: round {round_id} aggregate is not the "
            f"codec-exact mean over its journaled values"
        )

    audit = AuditLog(raw)
    repair = audit.verify_and_repair()
    assert repair["ok"], f"{plan.label}: audit chain unrepairable: {repair}"
    audit.verify_chain()
    repairs = sum(
        1
        for entry in audit.entries()
        if isinstance(entry, dict) and entry.get("event") == EVENT_REPAIR
    )

    rounds_settled = sum(
        1
        for entry in audit.entries()
        if isinstance(entry, dict) and entry.get("event") == "round-settled"
    )
    kills = sum(1 for kind, _ in incidents if kind == "ServiceKilledError")
    return {
        "label": plan.label,
        "fired": injector.fired_log(),
        "incidents": list(incidents),
        "kills": kills,
        "restarts": max(restarts, 0),
        "rounds_recovered": rounds_recovered,
        "rounds_settled": rounds_settled,
        "rounds_aborted": rounds_aborted,
        "rounds_finalized": len(finalized),
        "recovery_time": recovery_time,
        "acked": len(acked),
        "audit_repairs": repairs,
        "calm": calm,
        "steps": steps,
        "signature": (
            injector.fired_log(),
            tuple(aggregates),
            tuple(sorted(ledger.named.items())),
        ),
    }
