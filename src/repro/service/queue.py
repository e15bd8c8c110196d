"""The durable submission queue: admission control and backpressure.

Clients do not talk to rounds; they talk to this queue.  Each tenant has
one, bounded at ``capacity`` live submissions.  Past the bound the
overflow policy decides:

* ``reject`` — :class:`~repro.errors.AdmissionError` immediately; the
  client is told to back off;
* ``defer`` — the submission parks in a secondary buffer (bounded by
  ``defer_capacity``) and is promoted to pending as round assignment
  drains the main queue; only a full deferred buffer rejects.

Every submission is persisted the moment it is admitted and walks a
one-way state machine::

    pending -> assigned -> applied
       ^          |
       |          v  (round aborted)
       +------ pending            deferred -> pending (promotion)
                                  any      -> rejected (terminal)

State transitions are individually persisted, which is what makes the
queue the double-submission guard: recovery re-runs a crashed round over
exactly the submissions ``assigned`` to its round id, and an ``applied``
submission can never re-enter a round.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import AdmissionError, ConfigurationError, StorageFaultError
from repro.service.storage import StorageBackend

STATE_PENDING = "pending"
STATE_DEFERRED = "deferred"
STATE_ASSIGNED = "assigned"
STATE_APPLIED = "applied"
STATE_REJECTED = "rejected"

OVERFLOW_REJECT = "reject"
OVERFLOW_DEFER = "defer"

#: States that count against ``capacity`` (live, not yet resolved).
_LIVE_STATES = (STATE_PENDING, STATE_ASSIGNED)


class SubmissionQueue:
    """One tenant's durable, bounded intake queue."""

    def __init__(
        self,
        backend: StorageBackend,
        tenant: str,
        *,
        capacity: int = 64,
        overflow: str = OVERFLOW_REJECT,
        defer_capacity: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("queue capacity must be >= 1")
        if overflow not in (OVERFLOW_REJECT, OVERFLOW_DEFER):
            raise ConfigurationError(f"unknown overflow policy {overflow!r}")
        self._backend = backend
        self.tenant = tenant
        self.capacity = int(capacity)
        self.overflow = overflow
        self.defer_capacity = (
            int(defer_capacity) if defer_capacity is not None else self.capacity
        )
        self._space = f"queue/{tenant}"
        self._meta_space = f"queue-meta/{tenant}"
        # State index: submission id -> persisted state, plus the inverse
        # buckets.  Built by ONE storage scan on first use, then kept in
        # lockstep with storage by a read-back after every put, so hot
        # paths (submit/take/promote/depth) touch only the buckets they
        # need — cost bounded by the live population, not the applied
        # history.  Storage stays the source of truth: the read-back
        # indexes whatever the backend actually persisted, which keeps
        # the index exact under torn, lost-after-ack, and corrupting
        # writes.
        self._state_by_id: dict[str, str] | None = None
        self._ids_by_state: dict[str, set[str]] = {}

    # ------------------------------------------------------------- internals

    def _next_id(self) -> str:
        raw = self._backend.get(self._meta_space, "next", 0)
        # A torn write can leave garbage where the counter lived; restart
        # from zero but *never* reuse an id a live entry already holds.
        counter = raw if isinstance(raw, int) else 0
        while (
            self._backend.get(self._space, f"{self.tenant}-s{counter:06d}")
            is not None
        ):
            counter += 1
        self._backend.put(self._meta_space, "next", counter + 1)
        # Read-back verification: storage that *acks* the counter write but
        # never persists it would hand the same id to the next submission,
        # silently overwriting this one.  Detecting the lie here turns a
        # lost submission into a clean, retryable admission failure.
        persisted = int(self._backend.get(self._meta_space, "next", 0))
        if persisted != counter + 1:
            raise StorageFaultError(
                f"admission counter write not durable for tenant "
                f"{self.tenant!r} (wrote {counter + 1}, read {persisted})"
            )
        return f"{self.tenant}-s{counter:06d}"

    def _entry(self, submission_id: str) -> dict:
        entry = self.entry_or_none(submission_id)
        if entry is None:
            raise ConfigurationError(
                f"unknown submission {submission_id!r} for tenant {self.tenant!r}"
            )
        return entry

    def entry_or_none(self, submission_id: str) -> dict | None:
        """The persisted entry, or None when storage lost (or tore) it."""
        entry = self._backend.get(self._space, submission_id)
        if not isinstance(entry, dict) or "state" not in entry:
            return None
        return entry

    def _store(self, entry: dict) -> None:
        submission_id = entry["submission_id"]
        try:
            self._backend.put(self._space, submission_id, entry)
        finally:
            # Index what storage actually holds, even when the put tore
            # (garbage record) or raised: the index may only ever mirror
            # persisted truth, never the write we *intended*.
            self._reindex(submission_id)

    def _ensure_index(self) -> None:
        if self._state_by_id is not None:
            return
        state_by_id: dict[str, str] = {}
        buckets: dict[str, set[str]] = {}
        for key, entry in self._backend.items(self._space):
            # Torn writes leave marker records with no state machine
            # fields; they were never acknowledged, so the queue skips
            # them.
            if isinstance(entry, dict) and "state" in entry:
                state_by_id[key] = entry["state"]
                buckets.setdefault(entry["state"], set()).add(key)
        self._state_by_id = state_by_id
        self._ids_by_state = buckets

    def _reindex(self, submission_id: str) -> None:
        if self._state_by_id is None:
            return
        entry = self._backend.get(self._space, submission_id)
        state = (
            entry["state"]
            if isinstance(entry, dict) and "state" in entry
            else None
        )
        old = self._state_by_id.get(submission_id)
        if old == state:
            return
        if old is not None:
            self._ids_by_state.get(old, set()).discard(submission_id)
        if state is None:
            self._state_by_id.pop(submission_id, None)
        else:
            self._state_by_id[submission_id] = state
            self._ids_by_state.setdefault(state, set()).add(submission_id)

    def _ids_in(self, *states: str) -> list[str]:
        """Ids currently in ``states``, in admission order.

        Ids embed the admission counter, so the (length, lexicographic)
        sort reproduces the order a full storage scan would yield.
        """
        self._ensure_index()
        ids = [
            submission_id
            for state in dict.fromkeys(states)
            for submission_id in self._ids_by_state.get(state, ())
        ]
        ids.sort(key=lambda submission_id: (len(submission_id), submission_id))
        return ids

    def _entries_in(self, *states: str) -> list[dict]:
        """Persisted entries in ``states``; re-read so storage stays truth."""
        entries = []
        for submission_id in self._ids_in(*states):
            entry = self.entry_or_none(submission_id)
            if entry is not None and entry["state"] in states:
                entries.append(entry)
        return entries

    def count(self, *states: str) -> int:
        wanted = states or _LIVE_STATES
        self._ensure_index()
        return sum(
            len(self._ids_by_state.get(state, ()))
            for state in dict.fromkeys(wanted)
        )

    # -------------------------------------------------------------- admission

    def submit(self, user_id: str, values: Sequence[float]) -> str:
        """Admit one submission; returns its id or raises AdmissionError."""
        live = self.count(*_LIVE_STATES)
        state = STATE_PENDING
        if live >= self.capacity:
            if self.overflow == OVERFLOW_REJECT:
                raise AdmissionError(
                    f"tenant {self.tenant!r} queue is full "
                    f"({live}/{self.capacity}); retry later"
                )
            if self.count(STATE_DEFERRED) >= self.defer_capacity:
                raise AdmissionError(
                    f"tenant {self.tenant!r} deferred buffer is full "
                    f"({self.defer_capacity}); retry later"
                )
            state = STATE_DEFERRED
        submission_id = self._next_id()
        self._store(
            {
                "submission_id": submission_id,
                "tenant": self.tenant,
                "user_id": str(user_id),
                "values": [float(v) for v in values],
                "state": state,
                "round_id": None,
            }
        )
        return submission_id

    def promote_deferred(self) -> list[str]:
        """Move deferred submissions into pending as capacity frees up."""
        promoted: list[str] = []
        live = self.count(*_LIVE_STATES)
        for entry in self._entries_in(STATE_DEFERRED):
            if live >= self.capacity:
                break
            entry["state"] = STATE_PENDING
            self._store(entry)
            promoted.append(entry["submission_id"])
            live += 1
        return promoted

    # ------------------------------------------------------------ assignment

    def take(self, limit: int | None = None) -> list[dict]:
        """Pending submissions in admission order, at most one per user.

        A round has one mask slot per participant, so two queued
        submissions from the same user cannot share a round; the second
        stays pending for the next one.
        """
        self.promote_deferred()
        taken: list[dict] = []
        users: set[str] = set()
        for entry in self._entries_in(STATE_PENDING):
            if entry["user_id"] in users:
                continue
            taken.append(dict(entry))
            users.add(entry["user_id"])
            if limit is not None and len(taken) >= limit:
                break
        return taken

    def mark_assigned(
        self,
        submission_ids: Sequence[str],
        round_id: int,
        *,
        missing_ok: bool = False,
    ) -> None:
        """Pin submissions to a round.  Idempotent per (submission, round).

        ``missing_ok`` is the recovery-path variant: a submission whose
        queue record was lost by storage must not stop reconciliation of
        the others (the journal still carries its values).  An entry
        already **applied** is never demoted — re-assigning one would
        re-open the double-count window this state machine exists to
        close.
        """
        for submission_id in submission_ids:
            entry = (
                self.entry_or_none(submission_id)
                if missing_ok
                else self._entry(submission_id)
            )
            if entry is None:
                continue
            if entry["state"] == STATE_APPLIED:
                continue
            if (
                entry["state"] == STATE_ASSIGNED
                and entry.get("round_id") == int(round_id)
            ):
                continue
            entry["state"] = STATE_ASSIGNED
            entry["round_id"] = int(round_id)
            self._store(entry)

    def mark_applied(
        self, submission_ids: Sequence[str], *, missing_ok: bool = False
    ) -> None:
        """Resolve submissions as counted.  Idempotent: replaying a journal
        (or calling ``resume`` twice) re-marks already-applied entries as a
        no-op instead of re-writing them."""
        for submission_id in submission_ids:
            entry = (
                self.entry_or_none(submission_id)
                if missing_ok
                else self._entry(submission_id)
            )
            if entry is None or entry["state"] == STATE_APPLIED:
                continue
            entry["state"] = STATE_APPLIED
            self._store(entry)

    def assigned(self) -> list[dict]:
        """Every submission currently assigned to some round."""
        return [dict(entry) for entry in self._entries_in(STATE_ASSIGNED)]

    def assigned_to(self, round_id: int) -> list[dict]:
        """Submissions assigned to one round (crash-recovery input set)."""
        return [
            dict(entry)
            for entry in self._entries_in(STATE_ASSIGNED)
            if entry.get("round_id") == int(round_id)
        ]

    def requeue_round(self, round_id: int) -> list[str]:
        """Return an aborted round's submissions to pending."""
        requeued: list[str] = []
        for entry in self._entries_in(STATE_ASSIGNED):
            if entry.get("round_id") == int(round_id):
                entry["state"] = STATE_PENDING
                entry["round_id"] = None
                self._store(entry)
                requeued.append(entry["submission_id"])
        return requeued

    def state_of(self, submission_id: str) -> str:
        return self._entry(submission_id)["state"]

    def depth(self) -> dict[str, int]:
        """Queue depth by state (for telemetry and the CLI)."""
        self._ensure_index()
        return {
            state: len(ids)
            for state, ids in self._ids_by_state.items()
            if ids
        }
