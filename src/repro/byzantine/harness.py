"""Byzantine rounds: put a plan's actors on the bus, run the round, judge it.

:func:`install_attacks` rewires a deployment for one
:class:`~repro.byzantine.plan.AttackPlan`: the blinding provisioner and
cloud service go behind their lying wrappers, attack-targeted clients
behind an :class:`~repro.byzantine.actors.AttackerEndpoint`.  Installing
a plan first restores the stock parties, so one long-lived deployment
runs many sampled schedules (quarantine carrying over, like a fleet).

:func:`run_byzantine_round` is then the engine's own ``run_round`` — the
code under attack is the code that runs, weather and routing included —
judged by :func:`repro.invariants.judge`.  The verdict
must never be ``undetected-corruption``.
"""

from __future__ import annotations

from typing import Sequence

from repro import invariants
from repro.byzantine.actors import AttackerEndpoint, LyingBlinder, TamperingAggregator
from repro.byzantine.plan import (
    ATTACK_BLINDER_BARE_REVEAL,
    ATTACK_BLINDER_TAMPER_REVEAL,
    CLIENT_ATTACKS,
    AttackPlan,
)
from repro.crypto.drbg import HmacDrbg
from repro.errors import RoundAbortedError
from repro.runtime.endpoints import ClientEndpoint


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
    engine.attach_blinder(blinder)

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

    attackers = {spec.target for spec in plan.specs if spec.kind in CLIENT_ATTACKS}
    for user_id, endpoint in list(engine.client_endpoints.items()):
        if user_id in attackers:
            engine.attach_client(
                AttackerEndpoint(engine, endpoint.client, endpoint.name, plan)
            )
        elif type(endpoint) is not ClientEndpoint:
            engine.register_client(endpoint.client)

    return deployment


def run_byzantine_round(
    deployment,
    round_id: int,
    participants: Sequence[str],
    plan: AttackPlan,
    *,
    dropouts: Sequence[str] = (),
) -> invariants.Verdict:
    """One full round against the installed ``plan``; judged."""
    participants = list(participants)
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
    try:
        finished = deployment.engine.run_round(
            round_id,
            participants,
            vectors,
            deployment.features.bigrams,
            dropouts=silent,
        )
    except RoundAbortedError as aborted:
        deployment.engine.abandon_round(round_id)
        finished = aborted
    return invariants.judge(finished, deployment.codec, vectors)
