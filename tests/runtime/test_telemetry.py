"""RoundReport serialization: ``as_dict`` is JSON-safe and holds every field."""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from repro.runtime.protocol import (
    VIOLATION_EQUIVOCATION,
    VIOLATION_FLOODING,
    ViolationRecord,
)
from repro.runtime.telemetry import (
    OUTCOME_ACCEPTED,
    OUTCOME_DROPOUT,
    OUTCOME_EVICTED,
    PhaseStats,
    RoundReport,
)


def _full_report() -> RoundReport:
    """A report with every serializable field populated and non-default."""
    return RoundReport(
        round_id=7,
        participants=("user-0000", "user-0001", "user-0002"),
        outcomes={
            "user-0000": OUTCOME_ACCEPTED,
            "user-0001": OUTCOME_DROPOUT,
            "user-0002": OUTCOME_EVICTED,
        },
        num_slots=3,
        masks_repaired=2,
        num_contributions=1,
        rejected={"client:user-0002": 6},
        messages_sent=42,
        messages_dropped=3,
        retries=5,
        bytes_on_wire=9001,
        latency_ms=12.5,
        ecalls=17,
        enclave_cycles={"transitions": 1000, "blinding": 2500},
        phases=(
            PhaseStats("open", 4, 0, 512, 1.25),
            PhaseStats("collect", 12, 1, 4096, 6.5),
        ),
        aggregate=np.array([1.5, -2.25, 0.0]),
        aborted=True,
        abort_reason="aggregate failed its audit",
        client_restarts=1,
        faults_injected=4,
        violations=(
            ViolationRecord(
                offender="client:user-0002",
                kind=VIOLATION_EQUIVOCATION,
                round_id=7,
                phase="collect",
                detail="second contribution for slot 2",
            ),
            ViolationRecord(
                offender="client:user-0001",
                kind=VIOLATION_FLOODING,
                round_id=7,
                phase="collect",
            ),
        ),
        quarantined=("client:user-0002",),
    )


def test_as_dict_is_json_serializable_and_complete():
    report = _full_report()
    payload = json.loads(json.dumps(report.as_dict()))
    # Every dataclass field except the live service handle must appear
    # in the serialized form.
    field_names = {
        f.name
        for f in dataclasses.fields(RoundReport)
        if f.name != "service_result"
    }
    assert field_names <= set(payload)
    assert payload["violations"][0]["kind"] == VIOLATION_EQUIVOCATION
    assert payload["quarantined"] == ["client:user-0002"]
    assert payload["aggregate"] == [1.5, -2.25, 0.0]
    assert payload["survivors"] == list(report.survivors)
    assert payload["enclave_transition_cycles"] == report.enclave_transition_cycles


def test_as_dict_with_minimal_optional_fields_is_json_serializable():
    report = dataclasses.replace(
        _full_report(),
        aggregate=None,
        abort_reason=None,
        aborted=False,
        violations=(),
        quarantined=(),
        phases=(),
    )
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["aggregate"] is None and payload["abort_reason"] is None
    assert payload["violations"] == [] and payload["quarantined"] == []
    assert payload["phases"] == []
