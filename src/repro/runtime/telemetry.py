"""Per-round telemetry: what the bus, clock, and enclaves did.

A :class:`RoundReport` is the engine's receipt for one round: participant
outcomes, dropout repairs, transport counters (messages, drops, retries,
bytes, simulated latency), and enclave-side cycle accounting pulled from
each joined client's :class:`~repro.sgx.costs.CycleMeter`.  Reports render
through :mod:`repro.analysis.reporting` tables and serialize to plain
JSON-safe dicts so benchmark trajectories can be tracked by machines.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping

import numpy as np

from repro.analysis.reporting import Table

OUTCOME_ACCEPTED = "accepted"
OUTCOME_VALIDATION_REJECTED = "validation-rejected"
OUTCOME_SERVICE_REJECTED = "service-rejected"
OUTCOME_SUBMIT_FAILED = "submit-failed"
OUTCOME_PROVISION_FAILED = "provision-failed"
OUTCOME_UNREACHABLE = "unreachable"
OUTCOME_DEADLINE_MISSED = "deadline-missed"
OUTCOME_DROPOUT = "dropout"
OUTCOME_PARTITIONED = "partitioned"
OUTCOME_CRASHED = "crashed"
OUTCOME_EVICTED = "evicted"
OUTCOME_QUARANTINED = "quarantined"


@dataclass(frozen=True)
class PhaseStats:
    """Transport activity attributed to one lifecycle phase."""

    name: str
    messages: int
    dropped: int
    bytes_on_wire: int
    latency_ms: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "messages": self.messages,
            "dropped": self.dropped,
            "bytes_on_wire": self.bytes_on_wire,
            "latency_ms": self.latency_ms,
        }


@dataclass
class RoundReport:
    """Everything the engine observed while running one round."""

    round_id: int
    participants: tuple[str, ...]
    outcomes: dict[str, str]
    num_slots: int
    masks_repaired: int
    num_contributions: int
    rejected: dict[str, int]
    messages_sent: int
    messages_dropped: int
    retries: int
    bytes_on_wire: int
    latency_ms: float
    ecalls: int
    enclave_cycles: dict[str, int]
    phases: tuple[PhaseStats, ...]
    aggregate: np.ndarray | None = None
    service_result: Any = None
    aborted: bool = False
    abort_reason: str | None = None
    client_restarts: int = 0
    faults_injected: int = 0
    violations: tuple = ()
    """:class:`~repro.runtime.protocol.ViolationRecord` entries observed."""
    quarantined: tuple[str, ...] = ()
    """Senders newly quarantined while this round ran."""
    late_replies_discarded: int = 0
    """Accepted replies that landed after their phase deadline and were
    evicted again (the slot reverts to §3 repair) — counted so the
    deadline-vs-in-flight race is visible, never silently double-booked."""
    hedged_deliveries: int = 0
    """Extra hedged re-deliveries granted to stragglers before degrading
    them into dropouts (adaptive-deadline rounds only)."""
    stragglers: int = 0
    """Operations slower than the adaptive straggler threshold."""
    partition_trimmed: int = 0
    """Participants trimmed at a phase boundary because the link
    conditions oracle reported them partitioned/offline."""
    submissions_reconciled: int = 0
    """Slots the service consumed without the engine witnessing the
    acceptance (a duplicate delivered a submission after its sender gave
    up), adopted at finalize so the slot is not wrongly mask-repaired."""
    batch_verifications: int = 0
    """Randomized batch verifications (Schnorr cohorts, Pedersen opening
    sweeps) that replaced a per-item verify loop during this round."""
    batch_fallbacks: int = 0
    """Batch verifications that failed and fell back to the per-item loop
    to blame the culprit — nonzero only when something was forged."""
    handshakes_resumed: int = 0
    """Mask deliveries served in a live session — no quote, no DH leg, no
    handshake signature — while this round was open (the blinder session
    table's ``resumed`` counter)."""
    membership_checks_skipped: int = 0
    """Subgroup-membership exponentiations answered from the True-only
    memo (:mod:`repro.crypto.group_ops`) instead of recomputed."""
    subgroup_size: int = 0
    """Bounded subgroup size ``g`` of a hierarchical round (0 = flat
    cohort): masks were sampled per DRBG-keyed subgroup and submissions
    streamed into per-subgroup accumulators."""
    subgroups_aggregated: int = 0
    """How many subgroup partial sums fed the parent merge tree."""
    subgroup_dropout_repairs: int = 0
    """Distinct subgroups whose mask family was re-expanded for §3
    dropout repair — the O(g)-not-O(n) repair locality counter."""
    submissions_streamed: int = 0
    """Ring payloads folded into a subgroup accumulator and released at
    admission instead of being retained until finalize."""
    route_reason: str | None = None
    """First condition that kept the round off a fast path its engine is
    configured for (:class:`~repro.scale.config.RoutePlan.reason`);
    ``None`` when nothing blocked, or nothing was configured."""

    # ---------------------------------------------------------- derived views

    @property
    def survivors(self) -> tuple[str, ...]:
        return tuple(
            uid
            for uid in self.participants
            if self.outcomes.get(uid) == OUTCOME_ACCEPTED
        )

    @property
    def dropouts(self) -> tuple[str, ...]:
        return tuple(
            uid
            for uid in self.participants
            if self.outcomes.get(uid)
            in (
                OUTCOME_DROPOUT,
                OUTCOME_DEADLINE_MISSED,
                OUTCOME_UNREACHABLE,
                OUTCOME_CRASHED,
                OUTCOME_PARTITIONED,
            )
        )

    @property
    def validation_rejections(self) -> int:
        return sum(
            1
            for outcome in self.outcomes.values()
            if outcome == OUTCOME_VALIDATION_REJECTED
        )

    @property
    def enclave_transition_cycles(self) -> int:
        return self.enclave_cycles.get("transitions", 0)

    @property
    def enclave_total_cycles(self) -> int:
        return sum(self.enclave_cycles.values())

    # ------------------------------------------------------------- rendering

    def table(self) -> Table:
        status = "aborted" if self.aborted else "blinded"
        table = Table(
            f"round {self.round_id} telemetry ({status})",
            ["metric", "value"],
        )
        if self.aborted:
            table.add_row("abort reason", self.abort_reason or "")
        table.add_row("participants", len(self.participants))
        table.add_row("accepted", len(self.survivors))
        table.add_row("validation rejections", self.validation_rejections)
        table.add_row("dropouts", len(self.dropouts))
        table.add_row("masks repaired", self.masks_repaired)
        table.add_row("service rejections", sum(self.rejected.values()))
        table.add_row("messages sent", self.messages_sent)
        table.add_row("messages dropped", self.messages_dropped)
        table.add_row("retries", self.retries)
        table.add_row("bytes on wire", self.bytes_on_wire)
        table.add_row("latency (ms)", self.latency_ms)
        table.add_row("ecalls", self.ecalls)
        table.add_row("enclave transition cycles", self.enclave_transition_cycles)
        table.add_row("enclave total cycles", self.enclave_total_cycles)
        if self.client_restarts or self.faults_injected:
            table.add_row("client restarts", self.client_restarts)
            table.add_row("faults injected", self.faults_injected)
        if (
            self.late_replies_discarded
            or self.hedged_deliveries
            or self.stragglers
            or self.partition_trimmed
            or self.submissions_reconciled
        ):
            table.add_row("late replies discarded", self.late_replies_discarded)
            table.add_row("hedged deliveries", self.hedged_deliveries)
            table.add_row("stragglers", self.stragglers)
            table.add_row("partition trimmed", self.partition_trimmed)
            table.add_row("submissions reconciled", self.submissions_reconciled)
        if (
            self.batch_verifications
            or self.batch_fallbacks
            or self.handshakes_resumed
            or self.membership_checks_skipped
        ):
            table.add_row("batch verifications", self.batch_verifications)
            table.add_row("batch fallbacks", self.batch_fallbacks)
            table.add_row("handshakes resumed", self.handshakes_resumed)
            table.add_row(
                "membership checks skipped", self.membership_checks_skipped
            )
        if self.route_reason:
            table.add_row("kept off the fast path by", self.route_reason)
        if self.violations:
            table.add_row("protocol violations", len(self.violations))
        if self.quarantined:
            table.add_row("quarantined", ", ".join(self.quarantined))
        for phase in self.phases:
            table.add_row(
                f"phase {phase.name}",
                f"{phase.messages} msgs / {phase.bytes_on_wire} B / "
                f"{phase.latency_ms:.2f} ms",
            )
        return table

    def as_dict(self) -> dict[str, Any]:
        """A JSON-serializable view: every declared field except the live
        ``service_result``, plus the four derived views (tuples and numpy
        arrays become lists)."""
        view = {
            f.name: _plain(getattr(self, f.name))
            for f in fields(self)
            if f.name != "service_result"
        }
        view.update(
            survivors=list(self.survivors),
            dropouts=list(self.dropouts),
            validation_rejections=self.validation_rejections,
            enclave_transition_cycles=self.enclave_transition_cycles,
        )
        return view

    def to_dict(self) -> dict[str, Any]:
        """Alias for :meth:`as_dict` (the JSON-facing name)."""
        return self.as_dict()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RoundReport":
        """Rebuild a report from its :meth:`to_dict` form.

        Derived fields (``survivors``, ``dropouts``, the cycle totals)
        are recomputed, not restored; the ``aggregate`` comes back as a
        numpy array; ``service_result`` does not round-trip (it holds a
        live object).  A counter the dict lacks takes its declared
        default.
        """
        from repro.runtime.protocol import ViolationRecord

        restored = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        restored.update(
            participants=tuple(data["participants"]),
            quarantined=tuple(data.get("quarantined", ())),
            phases=tuple(PhaseStats(**phase) for phase in data.get("phases", ())),
            violations=tuple(
                ViolationRecord.from_dict(violation)
                for violation in data.get("violations", ())
            ),
        )
        if restored.get("aggregate") is not None:
            restored["aggregate"] = np.asarray(restored["aggregate"])
        return cls(**restored)


def _plain(value):
    """One report field as JSON-safe data."""
    if isinstance(value, np.ndarray):
        return [float(v) for v in value.ravel()]
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return dict(value)
    return value.as_dict() if hasattr(value, "as_dict") else value


def meter_snapshot(meter) -> dict[str, int]:
    """Copy a CycleMeter's buckets for later delta computation."""
    snapshot = meter.snapshot()
    return {bucket: int(value) for bucket, value in snapshot.items()}


def meter_delta(
    before: Mapping[str, int], after: Mapping[str, int]
) -> dict[str, int]:
    """Per-bucket growth since ``before``; clamped at zero per bucket.

    Clamping matters for E15's restart-evasion arm: reloading an enclave
    resets its meter, which would otherwise produce negative deltas.
    """
    delta: dict[str, int] = {}
    for bucket, value in after.items():
        if bucket == "total":
            continue
        grown = int(value) - int(before.get(bucket, 0))
        if grown > 0:
            delta[bucket] = grown
    return delta
