"""Every Byzantine actor lands in its designed detection path.

One deployment per test; each drives a full round over the message bus
through :func:`run_byzantine_round` and asserts the classification the
design promises — exact finalize with the offender named, or a blamed
abort.  Undetected corruption must never appear.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
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
from repro import invariants
from repro.core.signing import SigningComponent
from repro.crypto.drbg import HmacDrbg
from repro.errors import EnclaveError, RoundAbortedError
from repro.experiments.common import Deployment
from repro.faults import SITE_BLINDER, FaultInjector, FaultPlan, FaultSpec
from repro.network.adversary import NetworkAdversary
from repro.perf import kernels
from repro.runtime.messages import BLINDER, KIND_PROVISION_MASK, SERVICE, client_endpoint
from repro.runtime.protocol import (
    VIOLATION_AGGREGATE_TAMPERING,
    VIOLATION_EQUIVOCATION,
    VIOLATION_FLOODING,
    VIOLATION_MALFORMED,
    VIOLATION_MASK_COMMITMENT,
    VIOLATION_MASK_OPENING,
    VIOLATION_NON_SUM_ZERO,
    VIOLATION_OUT_OF_RANGE,
    VIOLATION_REPLAY,
    SIGNING_KEY,
)
from repro.runtime.telemetry import OUTCOME_CRASHED, OUTCOME_EVICTED, OUTCOME_QUARANTINED
from repro.scale import ScaleConfig


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
        lambda client, round_id, values, parties: replace(
            forged_contribution(client, round_id, values, parties), **forgery
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


class _SmugglingAggregator:
    """Finalizes honestly, then adds the first contribution it aggregated
    in an earlier round to a later round's trail, count and mean — a
    validly signed contribution whose sum the engine recomputes exactly."""

    def __init__(self, inner, codec) -> None:
        self.inner, self.codec, self.kept = inner, codec, None

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def finalize_blinded_round(self, round_id, repair=None, repaired=0):
        result = self.inner.finalize_blinded_round(round_id, repair, repaired)
        if self.kept is None:
            self.kept = result.accepted[0]
            return result
        accepted = result.accepted + (self.kept,)
        width = self.inner.round_state(round_id).accumulator.width
        total = kernels.ring_accumulate(
            kernels.unpack_words(words, width)
            for words in [c.ring_payload for c in accepted] + [repair]
            if words is not None
        )
        return replace(
            result,
            accepted=accepted,
            num_contributions=len(accepted),
            aggregate=self.codec.decode(kernels.widen(total, width)) / len(accepted),
        )


def test_a_contribution_smuggled_from_an_earlier_round_is_caught():
    """Every aggregated contribution must be one the engine witnessed
    being accepted in the round it finalizes, not merely a signed one."""
    deployment = _deploy(b"smuggle")
    deployment.engine.attach_service(
        _SmugglingAggregator(deployment.service, deployment.codec)
    )
    benign = AttackPlan(label="benign")
    first = run_byzantine_round(deployment, 1, _users(deployment), benign)
    assert first.outcome == OUTCOME_CLEAN
    second = run_byzantine_round(deployment, 2, _users(deployment), benign)
    assert second.outcome == OUTCOME_DETECTED_ABORT
    assert second.offenders == ("service",)
    assert [violation.kind for violation in second.report.violations] == [
        VIOLATION_AGGREGATE_TAMPERING
    ]


def test_a_trail_the_audit_cannot_recompute_fails_it():
    """A trail entry cut short and signed again with the deployment's
    signing key passes the signature walk and reaches the recomputation,
    on the pool route as on any other.  A trail the audit cannot sum
    fails it; it is never a skipped audit that lets a corrupted aggregate
    through."""
    deployment = Deployment.build(
        num_users=4, seed=b"byz-actors:uncomputable", sentences_per_user=10,
        parallelism=ScaleConfig(workers=2, shards=2),
    )
    honest = deployment.service.finalize_blinded_round
    signer = SigningComponent(deployment.signing_keypair)

    def finalize_blinded_round(round_id, repair=None, repaired=0):
        result = honest(round_id, repair, repaired)
        first = result.accepted[0]
        cut = signer.endorse(
            first.round_id, first.nonce, True, first.ring_payload[:-8], None,
            first.confidence,
        )
        aggregate = np.array(result.aggregate, copy=True)
        aggregate[0] += 538.0
        return replace(
            result, accepted=(cut,) + result.accepted[1:], aggregate=aggregate
        )

    deployment.service.finalize_blinded_round = finalize_blinded_round
    with deployment.engine:
        result = run_byzantine_round(
            deployment, 1, _users(deployment), AttackPlan(label="pool")
        )
    assert result.report.route_reason is None  # the pool route
    assert result.outcome == OUTCOME_DETECTED_ABORT
    assert [
        (violation.offender, violation.kind) for violation in result.report.violations
    ] == [("service", VIOLATION_AGGREGATE_TAMPERING)]
    assert "cannot be recomputed" in result.report.violations[0].detail


class _StripCommitments(NetworkAdversary):
    """On-path: every provision command loses its commitment record."""

    def __init__(self) -> None:
        self.stripped = 0

    def process(self, message):
        if message.kind != KIND_PROVISION_MASK:
            return message
        self.stripped += 1
        return message.with_payload(replace(message.payload, commitment=None))


def test_a_stripped_commitment_never_lets_a_tampered_delivery_through():
    """With the record stripped in transit there is nothing to verify a
    tampered mask against, so no device may install one: the command is
    refused at the device and blamed on its sender."""
    deployment = _deploy(b"strip-commitments")
    strip = _StripCommitments()
    deployment.network.interpose(strip)
    result = _run(deployment, _single(ATTACK_BLINDER_TAMPER_DELIVERY))
    assert result.outcome == OUTCOME_DETECTED_ABORT
    assert result.offenders == ("engine",)
    assert strip.stripped == len(_users(deployment))
    assert [violation.kind for violation in result.report.violations] == (
        [VIOLATION_MALFORMED] * strip.stripped
    )


@pytest.mark.parametrize(
    "record_for",
    [
        lambda commitments, slot: None,
        lambda commitments, slot: commitments.record_for(
            (slot + 1) % commitments.num_slots
        ),
    ],
    ids=["no-record", "another-slot"],
)
def test_a_host_withholding_or_swapping_the_record_is_refused_in_enclave(record_for):
    """The record reaches the Glimmer through its host.  A host that makes
    the install ecall without one, or with another slot's, is refused by
    the Glimmer before the delivery is opened, and the blinder — which
    never touched the record — is not blamed: the device is down for the
    round, its slot repaired, the round exact."""
    deployment = _deploy(b"host-record")
    users = _users(deployment)
    host = deployment.clients[users[0]]
    refusals = []

    def install_mask(round_id, party_index, delivery, commitment, width):
        commitments = deployment.blinder_provisioner.round_commitments(round_id)
        try:
            host.glimmer.ecall(
                "install_blinding_mask", round_id, party_index, delivery,
                record_for(commitments, party_index), width,
            )
        except EnclaveError as exc:
            refusals.append(exc)
            raise

    host.install_mask = install_mask
    result = _run(deployment, AttackPlan(label="benign"))
    assert refusals and all("install refused" in str(exc) for exc in refusals)
    assert "blinder" not in result.offenders
    assert result.outcome == OUTCOME_CLEAN
    assert result.report.outcomes[users[0]] == OUTCOME_CRASHED
    assert users[0] not in result.report.survivors


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


def _crash_at_collect(deployment, tag: bytes):
    deployment.enable_faults(
        FaultInjector(
            FaultPlan(specs=(FaultSpec(site=SITE_BLINDER, phase="collect"),)),
            seed=tag,
        )
    )


class _BitFlippingStore(dict):
    """Sealed-blob storage that hands back every blob with one bit flipped."""

    def __getitem__(self, key):
        blob = bytearray(super().__getitem__(key))
        blob[-1] ^= 1
        return bytes(blob)


def test_a_lying_blinder_that_cannot_restart_is_blamed():
    """A crash at a phase boundary whose sealed round no longer opens
    leaves the forged-claims blinder unable to recover the round.  The
    engine blames it instead of letting the ``CryptoError`` escape."""
    deployment = _deploy(b"forged-claims-crash")
    _crash_at_collect(deployment, b"forged-claims-crash")
    deployment.blinder_provisioner.attach_sealed_store(_BitFlippingStore())
    result = _run(deployment, _single(ATTACK_BLINDER_FORGED_CLAIMS))
    assert result.outcome == OUTCOME_DETECTED_ABORT
    assert "blinder" in result.offenders
    assert VIOLATION_MASK_COMMITMENT in _kinds(result)


def test_a_forged_claim_outlives_a_blinder_restart():
    """The blinder seals seeds, which cannot express a corrupted row, so a
    restart recovers the honest family; the lie lives in the wrapper and
    is still caught by the sum-zero check at finalize."""
    deployment = _deploy(b"forged-claims-restart")
    _crash_at_collect(deployment, b"forged-claims-restart")
    result = _run(deployment, _single(ATTACK_BLINDER_FORGED_CLAIMS))
    assert result.outcome == OUTCOME_DETECTED_ABORT
    assert result.offenders == ("blinder",)
    assert _kinds(result) == {VIOLATION_NON_SUM_ZERO}
    assert deployment.blinder_provisioner.restarts == 1


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


def _thief(deployment, user_id: str) -> None:
    """The device's host holds the deployment's signing key outside any
    Glimmer and endorses an all-zero ring payload in place of its
    Glimmer's blinded words: no mask comes off, and nothing it sends
    breaks a signature."""
    thief = deployment.clients[user_id]
    signer = SigningComponent(deployment.signing_keypair)
    genuine = thief.glimmer.ecall

    def ecall(name, *args, **kwargs):
        result = genuine(name, *args, **kwargs)
        if name != "process_contribution":
            return result
        zeros = bytes(len(result.ring_payload))
        return signer.endorse(result.round_id, result.nonce, True, zeros, None, 1.0)

    thief.glimmer.ecall = ecall


def test_a_stolen_signing_key_cannot_sum_past_the_proven_range():
    """ROADMAP item 4's probe: every contribution is accepted and the
    service's arithmetic checks out, but the aggregate lies outside the
    [0, 1] the Glimmer's range predicate proves of every value, so the
    finalize audit aborts the round.  Before the audit held the aggregate
    to that range this read ``undetected-corruption``: six devices
    accepted, no violation, the mean off by ~2e13.  The violation names
    the key, not the service, the blinder or an honest device."""
    deployment = Deployment.build(num_users=6, seed=b"stolen-key-probe")
    users = _users(deployment)
    _thief(deployment, users[0])
    vectors = deployment.local_vectors()
    with pytest.raises(RoundAbortedError) as excinfo:
        deployment.engine.run_round(1, users, vectors, deployment.features.bigrams)
    verdict = invariants.judge(excinfo.value, deployment.codec, vectors)
    assert verdict.outcome == OUTCOME_DETECTED_ABORT
    assert verdict.offenders == (SIGNING_KEY,)
    assert _kinds(verdict) == {VIOLATION_OUT_OF_RANGE}
    honest = {SERVICE, BLINDER} | {client_endpoint(user) for user in users[1:]}
    assert not honest & set(verdict.offenders)
