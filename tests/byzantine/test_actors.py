"""Every Byzantine actor lands in its designed detection path.

One deployment per test; each drives a full round over the message bus
through :func:`run_byzantine_round` and asserts the classification the
design promises — exact finalize with the offender named, or a blamed
abort.  Undetected corruption must never appear.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.byzantine import (
    ATTACK_BLINDER_BARE_REVEAL,
    ATTACK_BLINDER_FORGED_CLAIMS,
    ATTACK_BLINDER_TAMPER_DELIVERY,
    ATTACK_BLINDER_TAMPER_REVEAL,
    ATTACK_BLINDER_WITHHOLD_COMMITMENTS,
    ATTACK_EQUIVOCATE,
    ATTACK_FLOOD,
    ATTACK_FORGE,
    ATTACK_REPLAY,
    ATTACK_SERVICE_CORRUPT,
    ATTACK_SERVICE_DUPLICATE,
    ATTACK_SERVICE_MISCOUNT,
    ATTACK_SERVICE_OMIT,
    ATTACK_SERVICE_STRIP_TRAIL,
    OUTCOME_CLEAN,
    OUTCOME_DETECTED_ABORT,
    OUTCOME_EXACT,
    AttackPlan,
    AttackSpec,
    LyingBlinder,
    TamperingAggregator,
    actors,
    forged_contribution,
    install_attacks,
    run_byzantine_round,
)
from repro.crypto.drbg import HmacDrbg
from repro.errors import RoundAbortedError
from repro.experiments.common import Deployment
from repro.faults import SITE_BLINDER, FaultInjector, FaultPlan, FaultSpec
from repro.runtime.messages import client_endpoint
from repro.runtime.protocol import (
    VIOLATION_AGGREGATE_TAMPERING,
    VIOLATION_EQUIVOCATION,
    VIOLATION_FLOODING,
    VIOLATION_MALFORMED,
    VIOLATION_MASK_COMMITMENT,
    VIOLATION_MASK_OPENING,
    VIOLATION_NON_SUM_ZERO,
    VIOLATION_REPLAY,
)
from repro.runtime.telemetry import OUTCOME_EVICTED, OUTCOME_QUARANTINED


def _deploy(tag: bytes) -> Deployment:
    return Deployment.build(
        num_users=3, seed=b"byz-actors:" + tag, sentences_per_user=10
    )


def _users(deployment) -> list[str]:
    return [user.user_id for user in deployment.corpus.users]


def _single(kind: str, target: str | None = None) -> AttackPlan:
    return AttackPlan(specs=(AttackSpec(kind=kind, target=target),), label=kind)


def _run(deployment, plan: AttackPlan, round_id: int = 1):
    install_attacks(
        deployment, plan, HmacDrbg(b"install:" + plan.label.encode())
    )
    return run_byzantine_round(
        deployment, round_id, _users(deployment), plan
    )


def _kinds(result) -> set[str]:
    return {violation.kind for violation in result.report.violations}


def test_benign_plan_finalizes_clean():
    result = _run(_deploy(b"benign"), AttackPlan(label="benign"))
    assert result.outcome == OUTCOME_CLEAN
    assert not result.report.violations
    assert not result.offenders
    assert not result.corrupted


def test_replaying_client_is_recorded_and_the_round_stays_exact():
    deployment = _deploy(b"replay")
    target = _users(deployment)[0]
    result = _run(deployment, _single(ATTACK_REPLAY, target))
    assert result.outcome == OUTCOME_EXACT
    assert VIOLATION_REPLAY in _kinds(result)
    assert client_endpoint(target) in result.offenders
    # Replay is recorded, not punished: the nonce cache already defangs it.
    assert not deployment.engine.quarantine.is_blocked(client_endpoint(target))


def test_equivocating_client_is_evicted_quarantined_and_excluded_next_round():
    deployment = _deploy(b"equivocate")
    target = _users(deployment)[0]
    plan = _single(ATTACK_EQUIVOCATE, target)
    first = _run(deployment, plan)
    assert first.outcome == OUTCOME_EXACT
    assert VIOLATION_EQUIVOCATION in _kinds(first)
    assert first.report.outcomes[target] == OUTCOME_EVICTED
    assert client_endpoint(target) in first.report.quarantined
    assert deployment.engine.quarantine.is_blocked(client_endpoint(target))
    second = run_byzantine_round(deployment, 2, _users(deployment), plan)
    assert second.outcome == OUTCOME_EXACT
    assert second.report.outcomes[target] == OUTCOME_QUARANTINED
    assert target not in second.report.survivors


def test_flooding_client_trips_the_threshold_and_is_quarantined():
    deployment = _deploy(b"flood")
    target = _users(deployment)[0]
    result = _run(deployment, _single(ATTACK_FLOOD, target))
    assert result.outcome == OUTCOME_EXACT
    assert VIOLATION_FLOODING in _kinds(result)
    assert client_endpoint(target) in result.offenders
    assert deployment.engine.quarantine.is_blocked(client_endpoint(target))


def test_forged_contribution_is_rejected_by_signature_alone():
    deployment = _deploy(b"forge")
    target = _users(deployment)[0]
    result = _run(deployment, _single(ATTACK_FORGE, target))
    assert result.outcome == OUTCOME_EXACT
    assert not result.corrupted
    assert target not in result.report.survivors


@pytest.mark.parametrize(
    "forgery",
    [
        {"confidence": 10**400},
        {"blinded": False, "ring_payload": None, "plain_payload": (1.0, 10**400)},
    ],
    ids=["confidence", "plain-payload"],
)
def test_forgery_no_float_can_hold_is_blamed_on_the_forger(monkeypatch, forgery):
    """An int too large for a float is a malformed value from the sender,
    not an ``OverflowError`` inside the validator that blames nobody."""
    deployment = _deploy(b"overflow")
    target = _users(deployment)[0]
    monkeypatch.setattr(
        actors,
        "forged_contribution",
        lambda client, round_id, values: replace(
            forged_contribution(client, round_id, values), **forgery
        ),
    )
    result = _run(deployment, _single(ATTACK_FORGE, target))
    assert result.outcome == OUTCOME_EXACT
    assert not result.corrupted
    assert target not in result.report.survivors
    assert (client_endpoint(target), VIOLATION_MALFORMED) in {
        (violation.offender, violation.kind)
        for violation in result.report.violations
    }


@pytest.mark.parametrize(
    "kind, expected_violation",
    [
        (ATTACK_BLINDER_TAMPER_DELIVERY, VIOLATION_MASK_OPENING),
        (ATTACK_BLINDER_TAMPER_REVEAL, VIOLATION_MASK_OPENING),
        (ATTACK_BLINDER_FORGED_CLAIMS, VIOLATION_NON_SUM_ZERO),
        (ATTACK_BLINDER_WITHHOLD_COMMITMENTS, VIOLATION_MASK_COMMITMENT),
        (ATTACK_BLINDER_BARE_REVEAL, VIOLATION_MASK_OPENING),
    ],
)
def test_lying_blinder_forces_a_blamed_abort(kind, expected_violation):
    result = _run(_deploy(kind.encode()), _single(kind))
    assert result.outcome == OUTCOME_DETECTED_ABORT
    assert result.aborted and not result.corrupted
    assert "blinder" in result.offenders
    assert expected_violation in _kinds(result)


@pytest.mark.parametrize(
    "kind",
    [
        ATTACK_SERVICE_CORRUPT,
        ATTACK_SERVICE_OMIT,
        ATTACK_SERVICE_DUPLICATE,
        ATTACK_SERVICE_MISCOUNT,
        ATTACK_SERVICE_STRIP_TRAIL,
    ],
)
def test_tampering_aggregator_is_caught_by_the_audit(kind):
    result = _run(_deploy(kind.encode()), _single(kind))
    assert result.outcome == OUTCOME_DETECTED_ABORT
    assert result.aborted and not result.corrupted
    assert "service" in result.offenders
    assert VIOLATION_AGGREGATE_TAMPERING in _kinds(result)


def test_omitting_the_only_contribution_is_still_caught():
    """Dropping a one-contribution round's single entry leaves an empty
    trail — which is a missing contribution, not a round to wave through."""
    deployment = _deploy(b"omit-one")
    plan = _single(ATTACK_SERVICE_OMIT)
    install_attacks(deployment, plan, HmacDrbg(b"install:omit-one"))
    result = run_byzantine_round(deployment, 1, _users(deployment)[:1], plan)
    assert result.outcome == OUTCOME_DETECTED_ABORT
    assert result.aborted and not result.corrupted
    assert "service" in result.offenders
    assert VIOLATION_AGGREGATE_TAMPERING in _kinds(result)


def test_evicting_the_only_contributor_is_a_blamed_abort():
    """Eviction can empty a round; that is an abort naming the offender,
    not the service's "no accepted contributions" escaping the engine."""
    deployment = _deploy(b"equivocate-alone")
    target = _users(deployment)[0]
    plan = _single(ATTACK_EQUIVOCATE, target)
    install_attacks(deployment, plan, HmacDrbg(b"install:equivocate-alone"))
    result = run_byzantine_round(deployment, 1, [target], plan)
    assert result.outcome == OUTCOME_DETECTED_ABORT
    assert result.offenders == (client_endpoint(target),)
    assert VIOLATION_EQUIVOCATION in _kinds(result)


def test_a_lying_blinder_that_cannot_restart_is_blamed():
    """A crash at a phase boundary makes the forged-claims blinder restore
    its own non-sum-zero family — which its own recovery refuses.  The
    engine blames it instead of letting the ``CryptoError`` escape."""
    deployment = _deploy(b"forged-claims-crash")
    deployment.enable_faults(
        FaultInjector(
            FaultPlan(specs=(FaultSpec(site=SITE_BLINDER, phase="collect"),)),
            seed=b"forged-claims-crash",
        )
    )
    result = _run(deployment, _single(ATTACK_BLINDER_FORGED_CLAIMS))
    assert result.outcome == OUTCOME_DETECTED_ABORT
    assert "blinder" in result.offenders
    assert VIOLATION_MASK_COMMITMENT in _kinds(result)


def test_a_plain_round_cannot_finalize_without_an_audit_trail():
    """A plain round charges no mask slots, so the engine witnesses no
    nonce to miss: there, the trail being present at all is the check."""

    class ZeroedTrail(TamperingAggregator):
        def _tamper(self, result):
            return replace(result, accepted=(), num_contributions=0)

    deployment = _deploy(b"plain-strip")
    engine = deployment.engine
    engine.attach_service(ZeroedTrail(deployment.service, ATTACK_SERVICE_STRIP_TRAIL))
    users = _users(deployment)
    with pytest.raises(RoundAbortedError) as aborted:
        engine.run_round(
            1, users, deployment.local_vectors(users),
            deployment.features.bigrams, blind=False,
        )
    assert [(v.offender, v.kind) for v in aborted.value.report.violations] == [
        ("service", VIOLATION_AGGREGATE_TAMPERING)
    ]


def test_install_attacks_is_idempotent_and_reversible():
    deployment = _deploy(b"idempotent")
    hostile = AttackPlan(
        specs=(
            AttackSpec(ATTACK_BLINDER_FORGED_CLAIMS),
            AttackSpec(ATTACK_SERVICE_CORRUPT),
        ),
        label="hostile",
    )
    install_attacks(deployment, hostile, HmacDrbg(b"i1"))
    install_attacks(deployment, hostile, HmacDrbg(b"i2"))
    # Reinstalling never nests wrappers around wrappers.
    assert not isinstance(deployment.blinder_provisioner.inner, LyingBlinder)
    assert not isinstance(deployment.service.inner, TamperingAggregator)
    benign = AttackPlan(label="benign-again")
    install_attacks(deployment, benign, HmacDrbg(b"i3"))
    assert not isinstance(deployment.blinder_provisioner, LyingBlinder)
    assert not isinstance(deployment.service, TamperingAggregator)
    result = run_byzantine_round(deployment, 1, _users(deployment), benign)
    assert result.outcome == OUTCOME_CLEAN
