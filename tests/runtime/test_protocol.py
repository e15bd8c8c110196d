"""The protocol monitor's state machine, violation policy, and quarantine."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolViolation
from repro.runtime.protocol import (
    CLOSED_ROUND_RETENTION,
    FLOOD_THRESHOLD,
    VIOLATION_EQUIVOCATION,
    VIOLATION_FLOODING,
    VIOLATION_OUT_OF_PHASE,
    VIOLATION_QUARANTINED,
    VIOLATION_REPLAY,
    ProtocolMonitor,
    Quarantine,
    ViolationRecord,
)

NONCE_A = b"a" * 16
NONCE_B = b"b" * 16


def _record(offender: str = "client:u0", kind: str = VIOLATION_REPLAY):
    return ViolationRecord(
        offender=offender, kind=kind, round_id=1, phase="collect", detail="x"
    )


# ------------------------------------------------------------------ phases


def test_phases_advance_monotonically_and_never_backward():
    monitor = ProtocolMonitor()
    assert monitor.phase(1) == "open"
    monitor.advance(1, "collect")
    assert monitor.phase(1) == "collect"
    monitor.advance(1, "provision")  # backward: ignored
    assert monitor.phase(1) == "collect"
    monitor.advance(1, "finalize")
    assert monitor.phase(1) == "finalize"
    with pytest.raises(ValueError):
        monitor.advance(1, "intermission")


def test_close_freezes_violations_and_caps_retention():
    monitor = ProtocolMonitor()
    monitor.record(1, "client:u0", VIOLATION_REPLAY, "replayed")
    violations = monitor.close(1)
    assert [v.kind for v in violations] == [VIOLATION_REPLAY]
    assert monitor.phase(1) == "closed"
    assert monitor.violations_for(1) == violations
    for round_id in range(2, CLOSED_ROUND_RETENTION + 3):
        monitor.close(round_id)
    assert monitor.violations_for(1) == ()  # aged out of retention


# ------------------------------------------------------------ submissions


def test_replay_is_recorded_but_not_rejected():
    monitor = ProtocolMonitor()
    monitor.note_accepted(1, "client:u0", 0, NONCE_A)
    monitor.check_submit(1, "client:u0", 0, NONCE_A)  # must not raise
    kinds = [v.kind for v in monitor.violations_for(1)]
    assert kinds == [VIOLATION_REPLAY]


def test_equivocation_is_rejected_with_a_typed_violation():
    monitor = ProtocolMonitor()
    monitor.note_accepted(1, "client:u0", 0, NONCE_A)
    with pytest.raises(ProtocolViolation) as exc_info:
        monitor.check_submit(1, "client:u0", 0, NONCE_B)
    assert exc_info.value.kind == VIOLATION_EQUIVOCATION
    assert exc_info.value.offender == "client:u0"
    assert VIOLATION_EQUIVOCATION in [v.kind for v in monitor.violations_for(1)]


def test_transport_retransmits_are_never_replay_evidence():
    monitor = ProtocolMonitor()
    monitor.note_accepted(1, "client:u0", 0, NONCE_A)
    monitor.check_submit(1, "client:u0", 0, NONCE_A, retransmit=True)
    monitor.check_submit(1, "client:u0", 0, NONCE_B, retransmit=True)
    assert monitor.violations_for(1) == ()


def test_fresh_nonce_after_rejection_is_not_equivocation():
    # Only *accepted* nonces count: a sender whose first try was refused
    # may retry with a new nonce without being branded a cheater.
    monitor = ProtocolMonitor()
    monitor.check_submit(1, "client:u0", 0, NONCE_A)
    monitor.check_submit(1, "client:u0", 0, NONCE_B)
    assert monitor.violations_for(1) == ()


def test_forget_slot_reopens_it_for_a_repairing_sender():
    monitor = ProtocolMonitor()
    monitor.note_accepted(1, "client:u0", 0, NONCE_A)
    monitor.forget_slot(1, 0)
    monitor.check_submit(1, "client:u1", 0, NONCE_B)  # must not raise
    assert monitor.violations_for(1) == ()


def test_submission_into_a_finalized_round_is_out_of_phase():
    monitor = ProtocolMonitor()
    monitor.advance(1, "finalize")
    with pytest.raises(ProtocolViolation) as exc_info:
        monitor.check_submit(1, "client:u0", 0, NONCE_A)
    assert exc_info.value.kind == VIOLATION_OUT_OF_PHASE


def test_flooding_threshold_records_exactly_one_violation():
    monitor = ProtocolMonitor()
    for _ in range(FLOOD_THRESHOLD + 3):
        monitor.note_rejected(1, "client:u0", "bad signature")
    flooding = [
        v for v in monitor.violations_for(1) if v.kind == VIOLATION_FLOODING
    ]
    assert len(flooding) == 1
    assert flooding[0].offender == "client:u0"


def test_quarantined_sender_is_rejected_outright():
    monitor = ProtocolMonitor()
    monitor.quarantine.block(_record(offender="client:u0"))
    with pytest.raises(ProtocolViolation) as exc_info:
        monitor.check_sender(1, "client:u0")
    assert exc_info.value.kind == VIOLATION_QUARANTINED
    monitor.check_sender(1, "client:u1")  # others unaffected


# ------------------------------------------------------------- quarantine


def test_quarantine_first_violation_wins_and_pardon_lifts():
    quarantine = Quarantine()
    first = _record(kind=VIOLATION_EQUIVOCATION)
    quarantine.block(first)
    quarantine.block(_record(kind=VIOLATION_FLOODING))
    assert quarantine.is_blocked("client:u0")
    assert quarantine.reason("client:u0") is first
    assert quarantine.blocked() == ("client:u0",)
    assert quarantine.pardon("client:u0")
    assert not quarantine.is_blocked("client:u0")
    assert not quarantine.pardon("client:u0")  # already lifted
