"""GlimmerService: multi-tenant, durable, continuously-accepting rounds.

The paper's deployment story is one vetted Glimmer serving *many* cloud
services: vetting amortizes across every service that adopts the same
published binary, and the blinding service is a single shared trusted
party.  :class:`GlimmerService` realizes that shape:

* **tenants** — each tenant is a full :class:`~repro.experiments.common
  .Deployment` (its own cloud service, transport, engine, client fleet)
  built from the *same* base seed, so every tenant's trust universe —
  attestation keys, vendor key, Glimmer image measurement, vetting
  registry, blinder identity — is byte-identical.  That identity is what
  lets one :class:`~repro.core.provisioning.BlinderProvisioner` (the
  first tenant's, with its sealed rounds moved to persistent storage)
  serve every tenant: a tenant client's quote verifies against the shared
  blinder's registry because both were derived from the same seed.
* **global round ids** — the service allocates round ids from a persisted
  counter, so rounds on the shared blinder never collide across tenants.
* **durable intake** — submissions enter per-tenant
  :class:`~repro.service.queue.SubmissionQueue`s with admission control;
  rounds consume queued batches, and every lifecycle step is journaled
  (:class:`~repro.service.journal.RoundJournal`) and audited
  (:class:`~repro.service.audit.AuditLog`).
* **recovery** — a service rebuilt over the same backend
  (``GlimmerService.recover``) reconstructs its tenants deterministically
  from the persisted configs, finishes the bookkeeping of any round that
  crashed after its finalize record, and re-runs — under the original
  round id, over the original submission set — any round that crashed
  mid-flight.  The replayed aggregate is bit-exact (a mean over the same
  values; the sum-zero masks cancel whichever family the fresh blinder
  samples), and the queue's state machine guarantees no submission is
  ever counted twice.
"""

from __future__ import annotations

import time
from typing import Generator, Sequence

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ReproError,
    RoundAbortedError,
    ServiceKilledError,
    StorageError,
    StorageFaultError,
    StorageUnavailableError,
)
from repro.experiments.common import Deployment
from repro.faults.plan import ACTION_KILL, SITE_SERVICE_KILL
from repro.runtime.telemetry import RoundReport
from repro.service.audit import AuditLog
from repro.service.journal import RoundJournal
from repro.service.queue import (
    OVERFLOW_REJECT,
    STATE_APPLIED,
    SubmissionQueue,
)
from repro.service.resilience import ResilientStorageBackend
from repro.service.storage import SealedBlobMap, StorageBackend

_SERVICE_SPACE = "service"
_TENANT_SPACE = "tenants"


class TenantRuntime:
    """One tenant's deployment plus its service-side plumbing."""

    def __init__(
        self,
        name: str,
        deployment: Deployment,
        queue: SubmissionQueue,
    ) -> None:
        self.name = name
        self.deployment = deployment
        self.queue = queue

    @property
    def engine(self):
        return self.deployment.engine

    def close(self) -> None:
        self.deployment.engine.close_scale_pool()


class GlimmerService:
    """The long-lived service over a storage backend; see module docstring."""

    def __init__(
        self,
        backend: StorageBackend,
        *,
        base_seed: bytes = b"glimmer-service",
        num_users: int = 6,
        sentences_per_user: int = 6,
        max_features: int | None = 12,
        queue_capacity: int = 16,
        overflow: str = OVERFLOW_REJECT,
        defer_capacity: int | None = None,
        round_deadline: float | None = None,
    ) -> None:
        # Every storage touch goes through the resilience armor: retries
        # for transient faults, a circuit breaker converting persistent
        # failure into fail-fast StorageUnavailableError.  A fresh
        # service instance gets a fresh breaker — exactly what a process
        # restart gives a real deployment.
        if not isinstance(backend, ResilientStorageBackend):
            backend = ResilientStorageBackend(backend)
        self.backend = backend
        self.raw_backend = backend.inner
        self.audit = AuditLog(backend)
        self.journal = RoundJournal(backend)
        self.tenants: dict[str, TenantRuntime] = {}
        self.round_deadline = round_deadline
        #: Rounds this instance aborted (engine abort or watchdog).
        self.rounds_aborted = 0
        #: Tenants quarantined behind their bulkhead: name -> reason.
        self.degraded: dict[str, str] = {}
        self._tenant_backends: dict[str, StorageBackend] = {}
        self._chaos = None
        self._shared_blinder = None
        config = backend.get(_SERVICE_SPACE, "config")
        if not isinstance(config, dict) or "base_seed" not in config:
            # None on first boot; a torn record (the config write died
            # mid-retry) is rewritten from the constructor arguments.
            config = {
                "base_seed": bytes(base_seed),
                "num_users": int(num_users),
                "sentences_per_user": int(sentences_per_user),
                "max_features": max_features,
                "queue_capacity": int(queue_capacity),
                "overflow": overflow,
                "defer_capacity": defer_capacity,
            }
            backend.put(_SERVICE_SPACE, "config", config)
            self.audit.record("service-created", backend=backend.kind)
        self.config = config

    # ------------------------------------------------------------- tenants

    def _build_deployment(self) -> Deployment:
        # Every tenant builds from the same seed on purpose: identical
        # trust anchors are the precondition for sharing one blinder.
        return Deployment.build(
            num_users=int(self.config["num_users"]),
            seed=bytes(self.config["base_seed"]),
            sentences_per_user=int(self.config["sentences_per_user"]),
            max_features=self.config["max_features"],
        )

    def _share_blinder(self, runtime: TenantRuntime) -> None:
        """Point a tenant's engine and bus at the shared blinder."""
        engine = runtime.deployment.engine
        if self._shared_blinder is None:
            self._shared_blinder = runtime.deployment.blinder_provisioner
            self._shared_blinder.attach_sealed_store(
                SealedBlobMap(self.backend, "sealed/blinder")
            )
            return
        engine.attach_blinder(self._shared_blinder)
        runtime.deployment.blinder_provisioner = self._shared_blinder

    def add_tenant(
        self, name: str, *, backend: StorageBackend | None = None
    ) -> TenantRuntime:
        """Stand up a tenant (persisted, so recovery rebuilds it)."""
        if name in self.tenants:
            raise ConfigurationError(f"tenant {name!r} already exists")
        if backend is not None:
            self.set_tenant_backend(name, backend)
        index = len(self.backend.keys(_TENANT_SPACE))
        self.backend.put(_TENANT_SPACE, f"{index:04d}", {"name": name})
        runtime = self._attach_tenant(name)
        self.audit.record("tenant-added", tenant=name)
        return runtime

    def set_tenant_backend(self, name: str, backend: StorageBackend) -> None:
        """Give one tenant its own queue storage (the bulkhead boundary).

        A tenant with a private backend cannot take the others down: its
        storage failing degrades *it* (fail-fast admission, rounds
        skipped) while every tenant on healthy storage proceeds.  The
        backend is armored with its own breaker, so one tenant's retry
        storm never counts against another's failure budget.
        """
        if not isinstance(backend, ResilientStorageBackend):
            backend = ResilientStorageBackend(backend)
        self._tenant_backends[name] = backend
        runtime = self.tenants.get(name)
        if runtime is not None:
            runtime.queue = self._build_queue(name)

    def _queue_backend(self, name: str) -> StorageBackend:
        return self._tenant_backends.get(name, self.backend)

    def _build_queue(self, name: str) -> SubmissionQueue:
        return SubmissionQueue(
            self._queue_backend(name),
            name,
            capacity=int(self.config["queue_capacity"]),
            overflow=self.config["overflow"],
            defer_capacity=self.config["defer_capacity"],
        )

    def _attach_tenant(self, name: str) -> TenantRuntime:
        deployment = self._build_deployment()
        runtime = TenantRuntime(name, deployment, self._build_queue(name))
        self._share_blinder(runtime)
        self.tenants[name] = runtime
        return runtime

    def tenant(self, name: str) -> TenantRuntime:
        runtime = self.tenants.get(name)
        if runtime is None:
            raise ConfigurationError(f"no tenant named {name!r}")
        return runtime

    # ---------------------------------------------------- chaos & bulkheads

    def attach_chaos(self, injector) -> None:
        """Wire a fault injector into the service's hard kill-points."""
        self._chaos = injector

    def _kill_point(self, stage: str, **context) -> None:
        """A place the process is allowed to die.  Under chaos, it does."""
        if self._chaos is None:
            return
        action = self._chaos.fire(SITE_SERVICE_KILL, phase=stage, **context)
        if action == ACTION_KILL:
            raise ServiceKilledError(f"service killed at {stage}")

    def _audit_safe(self, event: str, **fields) -> None:
        """Audit best-effort: telemetry about a failure must not mask it."""
        try:
            self.audit.record(event, **fields)
        except StorageError:
            pass

    def _degrade(self, tenant: str, reason: str) -> None:
        if tenant in self.degraded:
            return
        self.degraded[tenant] = str(reason)
        self._audit_safe("tenant-degraded", tenant=tenant, reason=str(reason))

    def restore_tenant(self, name: str) -> None:
        """Lift a tenant's quarantine (its storage came back)."""
        if self.degraded.pop(name, None) is not None:
            self._audit_safe("tenant-restored", tenant=name)

    def probe_degraded(self) -> list[str]:
        """Probe each degraded tenant's storage; restore the recovered.

        One write-then-read probe per tenant against its own queue
        backend — the half-open pattern at the bulkhead level.
        """
        restored = []
        for name in sorted(self.degraded):
            backend = self._queue_backend(name)
            # Probe the raw storage: the armor's breaker may still be
            # open, and the probe *is* the half-open experiment.
            target = (
                backend.inner
                if isinstance(backend, ResilientStorageBackend)
                else backend
            )
            try:
                probes = int(target.get("bulkhead-probe", name, 0)) + 1
                target.put("bulkhead-probe", name, probes)
                if int(target.get("bulkhead-probe", name, 0)) != probes:
                    continue
            except (StorageError, TypeError, ValueError):
                continue
            if isinstance(backend, ResilientStorageBackend):
                backend.breaker.record_success()
            self.restore_tenant(name)
            restored.append(name)
        return restored

    @property
    def shared_blinder(self):
        return self._shared_blinder

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "GlimmerService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        for runtime in self.tenants.values():
            runtime.close()
        try:
            self.backend.flush()
        except StorageError:
            pass

    # -------------------------------------------------------------- intake

    def submit(self, tenant: str, user_id: str, values: Sequence[float]) -> str:
        """Admit one client submission into a tenant's durable queue."""
        runtime = self.tenant(tenant)
        if tenant in self.degraded:
            raise StorageUnavailableError(
                f"tenant {tenant!r} is degraded "
                f"({self.degraded[tenant]}); failing fast"
            )
        if user_id not in runtime.deployment.clients:
            raise ConfigurationError(
                f"tenant {tenant!r} has no client {user_id!r}"
            )
        try:
            submission_id = runtime.queue.submit(user_id, values)
        except AdmissionError as exc:
            self.audit.record(
                "submission-rejected", tenant=tenant, user=user_id,
                reason=str(exc),
            )
            raise
        except StorageUnavailableError as exc:
            self._degrade(tenant, f"queue storage unavailable: {exc}")
            raise
        state = runtime.queue.state_of(submission_id)
        self.audit.record(
            "submission-admitted",
            tenant=tenant,
            user=user_id,
            submission=submission_id,
            state=state,
        )
        self._kill_point("post-submit", target=tenant)
        return submission_id

    def submit_honest(self, tenant: str, user_id: str) -> str:
        """Enqueue the user's honestly-trained contribution vector."""
        runtime = self.tenant(tenant)
        vector = runtime.deployment.local_vectors([user_id])[user_id]
        return self.submit(tenant, user_id, [float(v) for v in vector])

    # -------------------------------------------------------------- rounds

    def _allocate_round_id(self) -> int:
        raw = self.backend.get(_SERVICE_SPACE, "next-round", 1)
        next_id = raw if isinstance(raw, int) else 1
        # The journal is the authority: a torn or rolled-back counter
        # must never hand out a round id the journal has already seen —
        # colliding ids would tangle recovery across tenants.
        used = [
            entry["round_id"]
            for entry in self.journal.entries()
            if isinstance(entry, dict)
            and isinstance(entry.get("round_id"), int)
        ]
        if used:
            next_id = max(next_id, max(used) + 1)
        self.backend.put(_SERVICE_SPACE, "next-round", next_id + 1)
        persisted = self.backend.get(_SERVICE_SPACE, "next-round", 0)
        if persisted != next_id + 1:
            raise StorageFaultError(
                f"round-id counter write not durable "
                f"(wrote {next_id + 1}, read {persisted})"
            )
        return next_id

    def _open_round(
        self, runtime: TenantRuntime, limit: int | None
    ) -> Generator[None, None, RoundReport | None] | None:
        """Take one batch from a tenant's queue and open a round over it.

        Returns ``None`` when the queue has nothing pending, else the
        round's :meth:`_drive` generator.  The round is journaled before
        the first protocol message and closed in the journal before the
        queue marks its submissions applied, so a crash at any point is
        recoverable without double-counting.
        """
        tenant = runtime.name
        try:
            batch = runtime.queue.take(limit)
        except StorageUnavailableError as exc:
            self._degrade(tenant, f"queue storage unavailable: {exc}")
            raise
        if not batch:
            return None
        self._kill_point("post-take", target=tenant)
        round_id = self._allocate_round_id()
        participants = [entry["user_id"] for entry in batch]
        submission_ids = [entry["submission_id"] for entry in batch]
        values_by_user = {
            entry["user_id"]: list(entry["values"]) for entry in batch
        }
        self.journal.round_opened(
            round_id, tenant, participants, submission_ids, values_by_user
        )
        self._kill_point("post-journal-open", target=tenant, round_id=round_id)
        try:
            runtime.queue.mark_assigned(submission_ids, round_id)
        except StorageUnavailableError as exc:
            self._degrade(tenant, f"queue storage unavailable: {exc}")
            raise
        self.audit.record(
            "round-opened",
            tenant=tenant,
            round_id=round_id,
            participants=len(participants),
            submissions=submission_ids,
        )
        self._kill_point("post-assign", target=tenant, round_id=round_id)
        return self._drive(
            runtime, round_id, participants, values_by_user, submission_ids
        )

    def _tenant_round(
        self, runtime: TenantRuntime, limit: int | None
    ) -> Generator[None, None, RoundReport | None]:
        """Open a round on the tenant's pending batch and drive it."""
        try:
            drive = self._open_round(runtime, limit)
            return None if drive is None else (yield from drive)
        except StorageUnavailableError:
            # The tenant was degraded on the way out; its bulkhead
            # keeps the failure from touching the other tenants.
            return None

    def _drive(
        self,
        runtime: TenantRuntime,
        round_id: int,
        participants: list[str],
        values_by_user: dict[str, list[float]],
        submission_ids: list[str],
    ) -> Generator[None, None, RoundReport | None]:
        """Step one opened round's stages, yielding after each.

        Returns the report once the engine's generator stops and the
        round is finished (journal, queue, audit).  A round that aborts,
        or finds on resuming that it has outlived ``round_deadline``, is
        journaled ``aborted``, its submissions requeued, and abandoned;
        it returns ``None``.
        """
        stages = runtime.engine.round_stages(
            round_id,
            participants,
            values_by_user,
            runtime.deployment.features.bigrams,
        )
        started = time.monotonic()
        while True:
            try:
                next(stages)
            except StopIteration as done:
                report = done.value
                break
            except RoundAbortedError as exc:
                self._abort_round(
                    runtime, round_id, str(exc), self.audit.record,
                    "round-aborted", reason=str(exc),
                )
                return None
            yield
            if (
                self.round_deadline is not None
                and time.monotonic() - started > self.round_deadline
            ):
                # The watchdog path: a wedged round is aborted with full
                # telemetry instead of hanging the service forever.
                self._abort_round(
                    runtime,
                    round_id,
                    f"watchdog: round exceeded its {self.round_deadline}s "
                    f"deadline",
                    self._audit_safe,
                    "round-watchdog-abort",
                    deadline=self.round_deadline,
                )
                return None
        self._kill_point(
            "post-drive", target=runtime.name, round_id=round_id
        )
        self.journal.round_finalized(
            round_id, [float(v) for v in report.aggregate]
        )
        self._kill_point(
            "post-finalize-journal", target=runtime.name, round_id=round_id
        )
        # missing_ok: on the recovery path a submission's queue record may
        # have been lost by storage; the journal already carries its
        # values, so the replay must not die on the missing entry.
        runtime.queue.mark_applied(submission_ids, missing_ok=True)
        self._kill_point(
            "post-apply", target=runtime.name, round_id=round_id
        )
        self.audit.record(
            "round-finalized",
            tenant=runtime.name,
            round_id=round_id,
            contributions=report.num_contributions,
            repaired=report.masks_repaired,
        )
        return report

    def _abort_round(
        self,
        runtime: TenantRuntime,
        round_id: int,
        reason: str,
        record,
        event: str,
        /,
        **fields,
    ) -> None:
        """Journal ``aborted``, requeue, audit ``event`` via ``record``,
        and abandon the round at the engine."""
        self.journal.round_aborted(round_id, reason)
        requeued = runtime.queue.requeue_round(round_id)
        record(
            event,
            tenant=runtime.name,
            round_id=round_id,
            **fields,
            requeued=requeued,
        )
        runtime.engine.abandon_round(round_id)
        self.rounds_aborted += 1

    @staticmethod
    def _schedule(rounds: list[Generator]) -> list:
        """Step round generators round-robin to their ends; their results.

        Each pass steps every live round once, in order.  A round that
        raises (a kill point, a storage failure) still lets the rest of
        its pass run, so an incident in one tenant's round never changes
        what the others do in that pass; the first error propagates when
        the pass ends.
        """
        results: list = [None] * len(rounds)
        live = list(enumerate(rounds))
        while live:
            error = None
            still = []
            for index, steps in live:
                try:
                    next(steps)
                except StopIteration as done:
                    results[index] = done.value
                except ReproError as exc:
                    error = exc if error is None else error
                else:
                    still.append((index, steps))
            if error is not None:
                raise error
            live = still
        return results

    def run_pending_sync(self, *, limit: int | None = None) -> list[RoundReport]:
        """One round per tenant with pending work, all overlapping.

        Each non-degraded tenant in turn has its round opened and stepped
        to its first stage; the live rounds then step round-robin, one
        stage each, and each is finished at the step its generator stops.
        Aborted rounds surface in the audit log and journal but do not
        fail the batch.
        """
        names = [name for name in self.tenants if name not in self.degraded]
        results = self._schedule(
            [self._tenant_round(self.tenants[name], limit) for name in names]
        )
        return [report for report in results if report is not None]

    # ------------------------------------------------------------- recovery

    @classmethod
    def recover(
        cls, backend: StorageBackend, **kwargs
    ) -> "GlimmerService":
        """Rebuild a service over an existing backend's persisted state."""
        config = backend.get(_SERVICE_SPACE, "config")
        if config is None:
            raise ConfigurationError(
                "backend holds no service config; nothing to recover"
            )
        service = cls(backend, **kwargs)
        # Heal the audit chain *before* recording anything on top of it:
        # a crash may have left a torn tail, and every digest appended
        # over an unrepaired break would itself be untrustworthy.
        repair = service.audit.verify_and_repair()
        for key in backend.keys(_TENANT_SPACE):
            record = backend.get(_TENANT_SPACE, key)
            # A torn tenant record was never acknowledged; skip it.
            if not isinstance(record, dict) or "name" not in record:
                continue
            if record["name"] not in service.tenants:
                service._attach_tenant(record["name"])
        service.audit.record(
            "service-recovered",
            tenants=sorted(service.tenants),
            unfinished=[e["round_id"] for e in service.journal.unfinished()],
            audit_repaired=repair["repaired"] or None,
        )
        return service

    def resume_sync(self) -> list[RoundReport]:
        """Finish every round the previous process left open.

        Two cases, both driven by persisted state only:

        * journal says *finalized* but some of the round's submissions
          are still ``assigned`` (crash between the journal write and the
          queue update): complete the bookkeeping, no re-run;
        * journal says *opened* with no close: re-run the round under its
          original id over its journaled submission set, then close it.

        Replays run one after another, each stepped to its end.  One that
        aborts is journaled ``aborted`` with its submissions requeued, as
        in :meth:`run_pending_sync`, and the remaining replays still run.
        """
        completed: list[RoundReport] = []
        for runtime in self.tenants.values():
            for entry in runtime.queue.assigned():
                round_id = entry["round_id"]
                status = (
                    self.journal.status_of(round_id)
                    if round_id is not None
                    else None
                )
                if status == "finalized":
                    runtime.queue.mark_applied(
                        [entry["submission_id"]], missing_ok=True
                    )
                    self.audit.record(
                        "submission-settled",
                        tenant=runtime.name,
                        round_id=round_id,
                        submission=entry["submission_id"],
                    )
                elif status in (None, "aborted") and round_id is not None:
                    # Assigned to a round the journal never opened (the
                    # open record was lost) or one it aborted without
                    # managing to requeue: the round will never close, so
                    # hand the submissions back to pending.
                    requeued = runtime.queue.requeue_round(round_id)
                    if requeued:
                        self.audit.record(
                            "submission-requeued",
                            tenant=runtime.name,
                            round_id=round_id,
                            submissions=requeued,
                        )
        replay: list[dict] = []
        for entry in self.journal.unfinished():
            runtime = self.tenant(entry["tenant"])
            round_id = int(entry["round_id"])
            submission_ids = list(entry["submission_ids"])
            states = [
                runtime.queue.entry_or_none(sid) for sid in submission_ids
            ]
            if any(
                state is not None and state["state"] == STATE_APPLIED
                for state in states
            ):
                # mark_applied only ever runs after the finalize record
                # was written, so an applied submission proves the round
                # completed and storage lost the finalize ack.  Settle
                # the bookkeeping; re-running would double-count.
                self.journal.round_finalized(round_id)
                runtime.queue.mark_applied(submission_ids, missing_ok=True)
                self.audit.record(
                    "round-settled",
                    tenant=runtime.name,
                    round_id=round_id,
                    submissions=submission_ids,
                )
                continue
            # Re-pin the journaled submission set before replay: a lost
            # mark_assigned write leaves entries pending, where a
            # concurrent take() could pull them into a second round.
            runtime.queue.mark_assigned(
                submission_ids, round_id, missing_ok=True
            )
            replay.append(entry)
        for entry in replay:
            tenant = entry["tenant"]
            runtime = self.tenant(tenant)
            round_id = int(entry["round_id"])
            participants = list(entry["participants"])
            submission_ids = list(entry["submission_ids"])
            values_by_user = {
                user: list(values)
                for user, values in entry.get("values_by_user", {}).items()
            }
            self.audit.record(
                "round-replayed", tenant=tenant, round_id=round_id
            )
            (report,) = self._schedule(
                [
                    self._drive(
                        runtime,
                        round_id,
                        participants,
                        values_by_user,
                        submission_ids,
                    )
                ]
            )
            if report is not None:
                completed.append(report)
        return completed
