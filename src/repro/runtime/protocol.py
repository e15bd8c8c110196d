"""Per-round protocol state machine, violation records, and quarantine.

The RoundEngine treats Byzantine behaviour as a first-class protocol
event, not an exception to be swallowed.  Three pieces live here:

* :class:`ViolationRecord` — one observed misbehaviour, attributable to a
  named offender, serializable into :class:`~repro.runtime.telemetry.RoundReport`;
* :class:`Quarantine` — the persistent blocklist.  An offender evicted in
  round *r* is excluded from round *r+1* onward until explicitly pardoned;
* :class:`ProtocolMonitor` — the per-round state machine.  It tracks the
  phase each round is in (monotonically: ``open → provision → collect →
  finalize → closed``), remembers which (slot, nonce) pairs each sender
  has submitted, and classifies inbound traffic: out-of-phase messages,
  duplicate/equivocating submissions, flooding, and traffic from
  quarantined senders.

Classification policy (calibrated so honest-but-faulty behaviour — the
at-least-once transport's retransmits, E5's deliberate replay arm, E15's
flooding study — is *recorded*, while only provably Byzantine behaviour
is *rejected*):

* **replay** (same slot, same nonce, not a transport retransmit) —
  recorded, then handed to the service, whose nonce cache rejects it
  idempotently.  Recording without raising keeps replay-study experiments
  running while the telemetry still names the replayer.
* **equivocation** (same slot, *different* nonce while the first
  submission was accepted) — raised: two different signed values for one
  mask slot can only come from a cheating sender, and accepting either
  would let it choose the aggregate.
* **flooding** (``FLOOD_THRESHOLD`` service-rejected submissions in one
  round) — recorded once per offender per round; the engine evicts and
  quarantines at finalize.
* **quarantined sender / out-of-phase / malformed** — raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro import errors
from repro.errors import ProtocolViolation

# Violation kinds ------------------------------------------------------------
VIOLATION_MALFORMED = errors.VIOLATION_MALFORMED  # the codec raises it too
VIOLATION_OUT_OF_PHASE = "out-of-phase"
VIOLATION_REPLAY = "replayed-nonce"
VIOLATION_EQUIVOCATION = "equivocation"
VIOLATION_FLOODING = "flooding"
VIOLATION_QUARANTINED = "quarantined-sender"
VIOLATION_MASK_COMMITMENT = "mask-commitment-invalid"
VIOLATION_MASK_OPENING = "mask-opening-invalid"
VIOLATION_MASK_REUSE = "mask-reuse"
VIOLATION_MASK_LENGTH = "mask-length"
VIOLATION_NON_SUM_ZERO = "non-sum-zero-masks"
VIOLATION_AGGREGATE_TAMPERING = "aggregate-tampering"
VIOLATION_OUT_OF_RANGE = "aggregate-out-of-range"

#: The offender an out-of-range aggregate is recorded against when the
#: service's arithmetic checks out: whoever signs under the deployment's
#: key outside a vetted Glimmer, since no Glimmer signs a value its
#: predicate refuses.  It names no bus endpoint, so nothing is quarantined.
SIGNING_KEY = "signing-key"

#: Rejected submissions from one sender in one round before it counts as
#: flooding.  High enough that honest retry storms (each retransmit of an
#: accepted nonce is *not* a rejection) never trip it.
FLOOD_THRESHOLD = 5

#: How many closed rounds the monitor retains violation history for.
CLOSED_ROUND_RETENTION = 64

_PHASE_ORDER = ("open", "provision", "collect", "finalize", "closed")


@dataclass(frozen=True)
class ViolationRecord:
    """One observed protocol violation, ready for telemetry."""

    offender: str
    kind: str
    round_id: int
    phase: str = ""
    detail: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {
            "offender": self.offender,
            "kind": self.kind,
            "round_id": self.round_id,
            "phase": self.phase,
            "detail": self.detail,
        }


class Quarantine:
    """The persistent offender blocklist shared across rounds."""

    def __init__(self) -> None:
        self._blocked: dict[str, ViolationRecord] = {}

    def block(self, record: ViolationRecord) -> None:
        """Quarantine an offender (first violation wins as the reason)."""
        self._blocked.setdefault(record.offender, record)

    def is_blocked(self, name: str) -> bool:
        return name in self._blocked

    def reason(self, name: str) -> ViolationRecord | None:
        return self._blocked.get(name)

    def pardon(self, name: str) -> bool:
        """Lift a quarantine (operator action); True if it was in effect."""
        return self._blocked.pop(name, None) is not None

    def blocked(self) -> tuple[str, ...]:
        return tuple(sorted(self._blocked))


@dataclass
class _RoundMonitor:
    """Mutable per-round protocol state."""

    round_id: int
    phase: str = "open"
    # slot -> the nonce the service actually accepted for it
    slot_nonces: dict[int, bytes] = field(default_factory=dict)
    rejected_counts: dict[str, int] = field(default_factory=dict)
    flood_flagged: set[str] = field(default_factory=set)
    violations: list[ViolationRecord] = field(default_factory=list)


class ProtocolMonitor:
    """Round-phase tracking plus Byzantine traffic classification.

    Phases advance *monotonically and implicitly*: observing a message
    that belongs to a later phase advances the round to it.  This keeps
    the monitor compatible with manual experiment flows that drive
    provisioning and submission directly without narrating phases, while
    still rejecting traffic that arrives after the round moved past its
    phase (a submission into a finalized round, a mask request into a
    closed one).
    """

    def __init__(self, quarantine: Quarantine | None = None) -> None:
        self.quarantine = quarantine or Quarantine()
        self._rounds: dict[int, _RoundMonitor] = {}
        self._closed: dict[int, tuple[ViolationRecord, ...]] = {}

    # ------------------------------------------------------------ round state

    def _round(self, round_id: int) -> _RoundMonitor:
        monitor = self._rounds.get(round_id)
        if monitor is None:
            monitor = _RoundMonitor(round_id=round_id)
            self._rounds[round_id] = monitor
        return monitor

    def phase(self, round_id: int) -> str:
        if round_id in self._closed:
            return "closed"
        monitor = self._rounds.get(round_id)
        return monitor.phase if monitor is not None else "open"

    def advance(self, round_id: int, phase: str) -> None:
        """Move a round forward to ``phase`` (never backward)."""
        if phase not in _PHASE_ORDER:
            raise ValueError(f"unknown phase {phase!r}")
        monitor = self._round(round_id)
        if _PHASE_ORDER.index(phase) > _PHASE_ORDER.index(monitor.phase):
            monitor.phase = phase

    def close(self, round_id: int) -> tuple[ViolationRecord, ...]:
        """Finalize bookkeeping for a round; returns its violations.

        Idempotent: closing a round that is already closed returns (and
        preserves) the violations recorded at the first close rather
        than overwriting them with an empty tuple.
        """
        monitor = self._rounds.pop(round_id, None)
        if monitor is None and round_id in self._closed:
            return self._closed[round_id]
        violations = tuple(monitor.violations) if monitor is not None else ()
        self._closed[round_id] = violations
        while len(self._closed) > CLOSED_ROUND_RETENTION:
            del self._closed[next(iter(self._closed))]
        return violations

    # ------------------------------------------------------------- violations

    def record(
        self,
        round_id: int,
        offender: str,
        kind: str,
        detail: str = "",
    ) -> ViolationRecord:
        """Log a violation without rejecting the message."""
        monitor = self._round(round_id)
        record = ViolationRecord(
            offender=offender,
            kind=kind,
            round_id=round_id,
            phase=monitor.phase,
            detail=detail,
        )
        monitor.violations.append(record)
        return record

    def reject(
        self,
        round_id: int,
        offender: str,
        kind: str,
        detail: str = "",
    ) -> ProtocolViolation:
        """Log a violation and build the exception that rejects the message."""
        self.record(round_id, offender, kind, detail)
        return ProtocolViolation(
            detail, offender=offender, kind=kind, round_id=round_id
        )

    def violations_for(self, round_id: int) -> tuple[ViolationRecord, ...]:
        closed = self._closed.get(round_id)
        if closed is not None:
            return closed
        monitor = self._rounds.get(round_id)
        return tuple(monitor.violations) if monitor is not None else ()

    def offenders_for(self, round_id: int, kinds: Iterable[str]) -> tuple[str, ...]:
        """Distinct offenders with a violation of one of ``kinds`` this round."""
        wanted = set(kinds)
        seen: dict[str, None] = {}
        for violation in self.violations_for(round_id):
            if violation.kind in wanted:
                seen.setdefault(violation.offender, None)
        return tuple(seen)

    # ----------------------------------------------------------- inbound gates

    def check_sender(self, round_id: int, sender: str) -> None:
        """Reject traffic from a quarantined sender outright."""
        if self.quarantine.is_blocked(sender):
            raise self.reject(
                round_id,
                sender,
                VIOLATION_QUARANTINED,
                f"{sender} is quarantined and may not participate",
            )

    def check_active(self, round_id: int, sender: str, desc: str) -> None:
        """Reject traffic that arrives after the round left its live phases."""
        self.check_sender(round_id, sender)
        monitor = self._rounds.get(round_id)
        phase = monitor.phase if monitor is not None else self.phase(round_id)
        if phase in ("finalize", "closed") or round_id in self._closed:
            raise self.reject(
                round_id,
                sender,
                VIOLATION_OUT_OF_PHASE,
                f"{desc} into {phase} round {round_id}",
            )

    def check_submit(
        self,
        round_id: int,
        sender: str,
        slot: int | None,
        nonce: bytes,
        retransmit: bool = False,
    ) -> None:
        """Gate one inbound submission; raises :class:`ProtocolViolation`.

        ``retransmit`` marks a delivery the transport itself re-sent
        (``Message.attempt > 1``); those are never replay/equivocation
        evidence.  The equivocation check compares against nonces the
        service *accepted* (registered via :meth:`note_accepted`), never
        against rejected attempts — a sender whose first submission was
        refused may legitimately retry with a fresh nonce.
        """
        self.check_active(round_id, sender, "submission")
        self.advance(round_id, "collect")
        if retransmit or slot is None:
            return
        monitor = self._round(round_id)
        accepted = monitor.slot_nonces.get(slot)
        if accepted is None:
            return
        if accepted == nonce:
            # Same slot, same nonce, fresh send: an application-level
            # replay.  Recorded; the service's nonce cache rejects it.
            self.record(
                round_id,
                sender,
                VIOLATION_REPLAY,
                f"replayed nonce for slot {slot}",
            )
        else:
            raise self.reject(
                round_id,
                sender,
                VIOLATION_EQUIVOCATION,
                f"second contribution for already-filled slot {slot} "
                f"(equivocation attempt)",
            )

    def note_accepted(
        self, round_id: int, sender: str, slot: int | None, nonce: bytes
    ) -> None:
        """Register a service-accepted submission for equivocation tracking."""
        if slot is None:
            return
        monitor = self._round(round_id)
        monitor.slot_nonces.setdefault(slot, nonce)

    def accepted_slots(self, round_id: int) -> dict[int, bytes]:
        """Slot → service-accepted nonce, as witnessed at the service gate.

        Includes acceptances the *engine* never saw a reply for — a
        duplicate delivery whose response went nowhere still passed
        through :meth:`note_accepted` — which is what lets the engine
        reconcile its slot accounting with the service at finalize.
        """
        monitor = self._rounds.get(round_id)
        return dict(monitor.slot_nonces) if monitor is not None else {}

    def forget_slot(self, round_id: int, slot: int | None) -> None:
        """Drop a slot's accepted-nonce record (quarantine eviction)."""
        if slot is None:
            return
        monitor = self._rounds.get(round_id)
        if monitor is not None:
            monitor.slot_nonces.pop(slot, None)

    def note_rejected(self, round_id: int, sender: str, reason: str) -> None:
        """Count a service-side rejection toward the flooding threshold."""
        monitor = self._round(round_id)
        count = monitor.rejected_counts.get(sender, 0) + 1
        monitor.rejected_counts[sender] = count
        if count >= FLOOD_THRESHOLD and sender not in monitor.flood_flagged:
            monitor.flood_flagged.add(sender)
            self.record(
                round_id,
                sender,
                VIOLATION_FLOODING,
                f"{count} rejected submissions in round {round_id} "
                f"(last reason: {reason})",
            )
