"""Drive Byzantine rounds: install actors, run the attacks, classify.

:func:`install_attacks` rewires a :class:`~repro.experiments.common.Deployment`
for one :class:`~repro.byzantine.plan.AttackPlan` — wrapping the blinding
provisioner and/or cloud service in their lying counterparts and swapping
attack-targeted clients for :class:`~repro.core.client.MaliciousClient`\\ s.
It is idempotent: installing a new plan first unwraps the previous one, so
one long-lived deployment can run many sampled schedules (and the
quarantine carries over between them, exactly like a real fleet).

:func:`run_byzantine_round` then drives one full round over the message
bus, interleaving each attacker's moves with the honest traffic, and
classifies what came out:

* ``clean-finalize`` / ``exact-finalize`` — the aggregate equals, bit for
  bit, the fixed-point mean over exactly the honest contributions that
  stayed accepted;
* ``detected-abort`` — the round aborted with at least one
  :class:`~repro.runtime.protocol.ViolationRecord` naming an offender;
* ``benign-abort`` — aborted with no violation (e.g. nothing was
  accepted, or a composed fault plan starved the round);
* ``undetected-corruption`` — a finalized aggregate that does **not**
  match the honest recomputation.  The design goal is that this outcome
  never occurs; E19 and the Byzantine chaos suite assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.byzantine.actors import LyingBlinder, TamperingAggregator
from repro.byzantine.plan import (
    ATTACK_BLINDER_BARE_REVEAL,
    ATTACK_BLINDER_TAMPER_REVEAL,
    ATTACK_EQUIVOCATE,
    ATTACK_FLOOD,
    ATTACK_FORGE,
    ATTACK_REPLAY,
    AttackPlan,
    AttackSpec,
)
from repro.core.signing import SignedContribution, contribution_digest
from repro.crypto.drbg import HmacDrbg
from repro.crypto.schnorr import SchnorrKeyPair
from repro.errors import NetworkError, RoundAbortedError
from repro.runtime.endpoints import BlinderEndpoint
from repro.runtime.messages import BLINDER, client_endpoint
from repro.runtime.protocol import FLOOD_THRESHOLD
from repro.runtime.telemetry import (
    OUTCOME_ACCEPTED,
    OUTCOME_DROPOUT,
    OUTCOME_EVICTED,
    OUTCOME_QUARANTINED,
    OUTCOME_SUBMIT_FAILED,
    RoundReport,
)

# Round outcome classifications ----------------------------------------------
OUTCOME_CLEAN = "clean-finalize"
OUTCOME_EXACT = "exact-finalize"
OUTCOME_DETECTED_ABORT = "detected-abort"
OUTCOME_BENIGN_ABORT = "benign-abort"
OUTCOME_UNDETECTED_CORRUPTION = "undetected-corruption"


@dataclass(frozen=True)
class ByzantineRoundResult:
    """One driven round, classified."""

    round_id: int
    plan: AttackPlan
    report: RoundReport
    outcome: str
    aborted: bool
    corrupted: bool
    offenders: tuple[str, ...]

    @property
    def detected(self) -> bool:
        return bool(self.offenders)


def install_attacks(deployment, plan: AttackPlan, rng: HmacDrbg | None = None):
    """Wire a plan's Byzantine actors into a deployment (idempotent)."""
    rng = rng or HmacDrbg(b"byzantine-install")
    engine = deployment.engine

    blinder = deployment.blinder_provisioner
    while isinstance(blinder, LyingBlinder):
        blinder = blinder.inner
    spec = plan.blinder_attack()
    if spec is not None:
        blinder = LyingBlinder(blinder, spec.kind, rng=rng.fork("lying-blinder"))
    deployment.blinder_provisioner = blinder
    engine.blinder_provisioner = blinder
    for kind, handler in (
        BlinderEndpoint(blinder, monitor=engine.monitor).handlers().items()
    ):
        deployment.network.add_handler(BLINDER, kind, handler)

    service = deployment.service
    while isinstance(service, TamperingAggregator):
        service = service.inner
    spec = plan.service_attack()
    if spec is not None:
        service = TamperingAggregator(
            service, spec.kind, rng=rng.fork("tampering-aggregator")
        )
    deployment.service = service
    engine.attach_service(service)

    return deployment


def forged_contribution(client, round_id: int, values) -> SignedContribution:
    """A contribution in the honest wire shape, signed with a made-up key.

    The same forgery as :meth:`MaliciousClient.bypass_glimmer`, but usable
    with any client device — an attacker does not need a special build of
    the client software to put bytes on the wire.
    """
    forged_key = SchnorrKeyPair.generate(client.rng.fork("forged-key"))
    nonce = client.rng.generate(16)
    ring = tuple(int(round(float(v) * (1 << 16))) % (1 << 64) for v in values)
    digest = contribution_digest(round_id, nonce, True, ring, None, 1.0)
    return SignedContribution(
        round_id=round_id,
        nonce=nonce,
        blinded=True,
        ring_payload=ring,
        plain_payload=None,
        confidence=1.0,
        signature=forged_key.sign(digest),
    )


def expected_aggregate(codec, vectors, included: Sequence[str]):
    """Ground truth: the fixed-point mean over exactly ``included``."""
    if not included:
        return None
    encoded = [codec.encode(list(vectors[user_id])) for user_id in included]
    return codec.decode(codec.sum_vectors(encoded)) / len(encoded)


def run_byzantine_round(
    deployment,
    round_id: int,
    participants: Sequence[str],
    plan: AttackPlan,
    *,
    dropouts: Sequence[str] = (),
) -> ByzantineRoundResult:
    """One full round with the plan's attackers interleaved; classified."""
    engine = deployment.engine
    participants = list(participants)
    features = tuple(deployment.features.bigrams)
    vectors = deployment.local_vectors(participants)
    silent = set(dropouts)
    blinder_spec = plan.blinder_attack(round_id)
    if (
        blinder_spec is not None
        and blinder_spec.kind
        in (ATTACK_BLINDER_TAMPER_REVEAL, ATTACK_BLINDER_BARE_REVEAL)
        and not silent
        and len(participants) > 1
    ):
        # A tampered reveal only fires on an unconsumed slot; give it one.
        silent = {participants[-1]}
    accepted_users: list[str] = []
    try:
        try:
            engine.open_round(round_id, len(participants), len(features))
        except NetworkError as exc:
            raise engine.abort_round(round_id, f"round could not be opened: {exc}")
        record = engine.round_record(round_id)
        for user_id in participants:
            record.note_participant(user_id)
        quarantined = {
            user_id
            for user_id in participants
            if engine.quarantine.is_blocked(client_endpoint(user_id))
        }
        for user_id in quarantined:
            record.outcomes[user_id] = OUTCOME_QUARANTINED
        engine.begin_phase(round_id, "provision")
        for index, user_id in enumerate(participants):
            if user_id in quarantined:
                continue
            if user_id in silent:
                record.outcomes[user_id] = OUTCOME_DROPOUT
                continue
            engine.provision_mask(user_id, round_id, index)
        engine.begin_phase(round_id, "collect")
        for user_id in participants:
            if user_id in quarantined or user_id in silent:
                continue
            spec = plan.client_attack(round_id, user_id)
            accepted = _drive_collect(
                deployment, spec, user_id, round_id, vectors[user_id], features
            )
            if accepted:
                accepted_users.append(user_id)
                record.outcomes[user_id] = OUTCOME_ACCEPTED
            else:
                record.outcomes.setdefault(user_id, OUTCOME_SUBMIT_FAILED)
        if not accepted_users:
            raise engine.abort_round(
                round_id,
                f"no contribution was accepted ({len(participants)} participants)",
            )
        report = engine.finalize_round(round_id)
    except RoundAbortedError as exc:
        engine.abandon_round(round_id)
        report = exc.report
        offenders = tuple(sorted({v.offender for v in report.violations}))
        return ByzantineRoundResult(
            round_id=round_id,
            plan=plan,
            report=report,
            outcome=OUTCOME_DETECTED_ABORT if offenders else OUTCOME_BENIGN_ABORT,
            aborted=True,
            corrupted=False,
            offenders=offenders,
        )
    evicted = {
        user_id
        for user_id, outcome in report.outcomes.items()
        if outcome == OUTCOME_EVICTED
    }
    included = [u for u in accepted_users if u not in evicted]
    truth = expected_aggregate(deployment.codec, vectors, included)
    corrupted = truth is None or not np.array_equal(
        np.asarray(report.aggregate), truth
    )
    offenders = tuple(sorted({v.offender for v in report.violations}))
    if corrupted:
        outcome = OUTCOME_UNDETECTED_CORRUPTION
    elif plan.is_benign:
        outcome = OUTCOME_CLEAN
    else:
        outcome = OUTCOME_EXACT
    return ByzantineRoundResult(
        round_id=round_id,
        plan=plan,
        report=report,
        outcome=outcome,
        aborted=False,
        corrupted=corrupted,
        offenders=offenders,
    )


def _drive_collect(
    deployment, spec: AttackSpec | None, user_id, round_id, values, features
) -> bool:
    """One participant's collect-phase moves; True iff an honest-valued
    contribution of theirs was accepted by the service."""
    engine = deployment.engine
    client = deployment.clients[user_id]
    try:
        if spec is None:
            return engine.contribute(
                user_id, round_id, values, features
            ) == OUTCOME_ACCEPTED
        if spec.kind == ATTACK_FORGE:
            forged = forged_contribution(client, round_id, values)
            engine.submit_signed(user_id, round_id, forged)
            return False
        if spec.kind == ATTACK_FLOOD:
            for index in range(FLOOD_THRESHOLD + 1):
                forged = forged_contribution(
                    client, round_id, [float(v) + index for v in values]
                )
                engine.submit_signed(user_id, round_id, forged)
            return False
        if spec.kind == ATTACK_REPLAY:
            signed = client.contribute(round_id, values, features)
            accepted = engine.submit_signed(user_id, round_id, signed)
            engine.submit_signed(user_id, round_id, signed)
            return accepted
        if spec.kind == ATTACK_EQUIVOCATE:
            signed = client.contribute(round_id, values, features)
            accepted = engine.submit_signed(user_id, round_id, signed)
            rival = forged_contribution(client, round_id, values)
            engine.submit_signed(user_id, round_id, rival)
            return accepted
    except NetworkError:
        # A composed fault plan can starve any of the moves above; the
        # participant degrades into the ordinary repair path.
        return False
    raise ValueError(f"unknown client attack kind {spec.kind!r}")
