"""Byzantine chaos: sampled attacker mixes, exact-or-blamed-abort, replayable.

The crash/omission counterpart lives in ``test_chaos.py``; this suite
samples ``SCHEDULES_PER_SEED`` attacker mixes per chaos seed (clients
that replay, equivocate, flood, or forge; a blinding service that lies;
an aggregator that tampers) and drives each through a full round on one
shared deployment.  Between schedules the operator pardons the
quarantined offenders — re-arming the quarantine path for the next mix —
so every sampled round must end in exactly one of two ways:

* a **bit-exact finalize** over precisely the honest contributions that
  stayed accepted, or
* a **detected abort** whose telemetry names at least one offender.

``undetected-corruption`` — a finalized-but-wrong aggregate — fails the
suite on sight, and the same seed must replay the identical violation
sequence on a fresh deployment.

Attackers are endpoints on the bus and the round is the engine's own
``run_round``, so the mixes also compose with the weather: a second
sweep samples an :class:`AttackPlan` *and* a :class:`FaultPlan` per
schedule, where a starved round may additionally end in a benign abort —
but every schedule still ends in a verdict, abandoned rounds leave
nothing tracked, and no consumed slot's mask is ever asked for.
"""

from __future__ import annotations

import os

import pytest

from repro import invariants
from repro.byzantine import (
    OUTCOME_CLEAN,
    OUTCOME_DETECTED_ABORT,
    OUTCOME_EXACT,
    OUTCOME_UNDETECTED_CORRUPTION,
    AttackPlan,
    install_attacks,
    run_byzantine_round,
)
from repro.crypto.drbg import HmacDrbg
from repro.errors import ProtocolError
from repro.experiments.common import Deployment
from repro.faults import FaultInjector, FaultPlan
from repro.network.adversary import DropAdversary, EavesdropAdversary
from repro.runtime import messages as m

SCHEDULES_PER_SEED = 50
COMPOSED_SCHEDULES_PER_SEED = 24
FAULT_RATES = (0.02, 0.05, 0.1, 0.2)
NUM_USERS = 4

DEFAULT_SEEDS = ("byz-a", "byz-b", "byz-c")
SEEDS = (
    (os.environ["CHAOS_SEED"],) if os.environ.get("CHAOS_SEED") else DEFAULT_SEEDS
)


def _build(seed: str) -> Deployment:
    return Deployment.build(
        num_users=NUM_USERS,
        seed=b"byz-chaos:" + seed.encode(),
        sentences_per_user=12,
    )


def _plan(seed: str, index: int, user_ids) -> AttackPlan:
    return AttackPlan.sample(
        HmacDrbg(seed.encode(), personalization=f"byz-plan-{index}"),
        clients=user_ids,
        rounds=(index + 1,),
        label=f"{seed}#{index}",
    )


def _trace(verdict):
    """What a schedule's replay must reproduce, as a comparable tuple."""
    aggregate = verdict.report.aggregate
    return (
        verdict.outcome,
        verdict.offenders,
        tuple((v.offender, v.kind) for v in verdict.report.violations),
        None if aggregate is None else tuple(float(v) for v in aggregate),
    )


def _pardon_all(deployment):
    """Operator pardon between schedules: re-arms quarantine for the next mix."""
    quarantine = deployment.engine.quarantine
    for name in quarantine.blocked():
        quarantine.pardon(name)


def _run_schedule(deployment, seed: str, index: int, user_ids):
    """One sampled mix through one round; returns a comparable trace."""
    plan = _plan(seed, index, user_ids)
    install_attacks(
        deployment,
        plan,
        HmacDrbg(f"{seed}:{index}".encode(), personalization="byz-install"),
    )
    result = run_byzantine_round(deployment, index + 1, user_ids, plan)
    assert result.outcome != OUTCOME_UNDETECTED_CORRUPTION, (
        f"{plan.label}: round {index + 1} finalized a corrupted aggregate"
    )
    assert result.outcome in (
        OUTCOME_CLEAN,
        OUTCOME_EXACT,
        OUTCOME_DETECTED_ABORT,
    ), f"{plan.label}: unexpected outcome {result.outcome}"
    if result.aborted:
        assert result.offenders, (
            f"{plan.label}: aborted without naming an offender in telemetry"
        )
    _pardon_all(deployment)
    return plan, _trace(result)


@pytest.mark.parametrize("seed", SEEDS)
def test_sampled_attacker_mixes_are_exact_or_blamed_abort(seed):
    deployment = _build(seed)
    user_ids = [user.user_id for user in deployment.corpus.users]
    outcomes = {OUTCOME_CLEAN: 0, OUTCOME_EXACT: 0, OUTCOME_DETECTED_ABORT: 0}
    for index in range(SCHEDULES_PER_SEED):
        _, trace = _run_schedule(deployment, seed, index, user_ids)
        outcomes[trace[0]] += 1
    assert sum(outcomes.values()) == SCHEDULES_PER_SEED
    # The sweep is only meaningful if attacks bite in both directions:
    # some mixes must finalize exactly *despite* attackers, some must
    # force blamed aborts, and benign mixes must stay clean.
    assert outcomes[OUTCOME_EXACT] > 0
    assert outcomes[OUTCOME_DETECTED_ABORT] > 0
    assert outcomes[OUTCOME_CLEAN] > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_replays_identical_violation_sequence(seed):
    replays = []
    for _ in range(2):
        deployment = _build(seed)
        user_ids = [user.user_id for user in deployment.corpus.users]
        specs = []
        traces = []
        for index in range(10):
            plan, trace = _run_schedule(deployment, seed, index, user_ids)
            specs.append((plan.label, plan.specs))
            traces.append(trace)
        replays.append((specs, traces))
    assert replays[0][0] == replays[1][0], "attacker mixes must replay exactly"
    assert replays[0][1] == replays[1][1], (
        "outcomes, violation sequences, and aggregates must replay exactly"
    )


def test_distinct_seeds_sample_distinct_attacks():
    """Sanity: the attacker-mix space is actually being sampled."""
    traces = []
    for seed in ("byz-a", "byz-b"):
        deployment = _build(seed)
        user_ids = [user.user_id for user in deployment.corpus.users]
        fired = []
        for index in range(6):
            plan, trace = _run_schedule(deployment, seed, index, user_ids)
            fired.append((plan.specs, trace[:3]))
        traces.append(tuple(fired))
    assert traces[0] != traces[1]


def _run_in_weather(deployment, spy, seed: str, index: int, user_ids):
    """One sampled mix through one round that the weather may also starve.

    Unlike :func:`_run_schedule` a benign abort is a legitimate ending
    here — but the round must still end in a *verdict*, abandoned rounds
    leave nothing tracked, and no consumed slot's mask is ever asked for
    (``spy`` is the eavesdropper the caller interposed on the bus).
    """
    plan = _plan(seed, index, user_ids)
    install_attacks(
        deployment,
        plan,
        HmacDrbg(f"{seed}:{index}".encode(), personalization="byz-install"),
    )
    verdict = run_byzantine_round(deployment, index + 1, user_ids, plan)
    assert verdict.outcome != OUTCOME_UNDETECTED_CORRUPTION, (
        f"{plan.label}: round {index + 1} finalized a corrupted aggregate"
    )
    assert not invariants.consumed_slots_revealed(verdict.report, spy.captured)
    with pytest.raises(ProtocolError):
        deployment.engine.round_record(index + 1)
    _pardon_all(deployment)
    return verdict


@pytest.mark.parametrize("seed", SEEDS)
def test_attacker_mixes_compose_with_fault_schedules(seed):
    """``AttackPlan.sample`` + ``FaultPlan.sample`` on one deployment: every
    schedule ends in a verdict — never corruption, never a raw transport
    error — and the whole sweep replays identically from its seed."""
    replays = []
    for _ in range(2):
        deployment = _build(seed)
        user_ids = [user.user_id for user in deployment.corpus.users]
        spy = EavesdropAdversary()
        deployment.network.interpose(spy)
        traces = []
        for index in range(COMPOSED_SCHEDULES_PER_SEED):
            faults = FaultPlan.sample(
                HmacDrbg(seed.encode(), personalization=f"byz-faults-{index}"),
                FAULT_RATES[index % len(FAULT_RATES)],
                clients=user_ids,
                rounds=(index + 1,),
                label=f"{seed}#{index}",
            )
            deployment.enable_faults(
                FaultInjector(faults, seed=f"{seed}:{index}:faults".encode())
            )
            traces.append(
                _trace(_run_in_weather(deployment, spy, seed, index, user_ids))
            )
        replays.append(traces)
    assert replays[0] == replays[1], "composed schedules must replay exactly"
    outcomes = {trace[0] for trace in replays[0]}
    # Only meaningful if both pressures bite: some rounds finalize exactly
    # through the weather, some are aborted by an attacker.
    assert outcomes & {OUTCOME_CLEAN, OUTCOME_EXACT}
    assert OUTCOME_DETECTED_ABORT in outcomes


class _LossyProvisioning(DropAdversary):
    """Weather that only eats the provisioning exchange."""

    def process(self, message):
        if message.kind in (m.KIND_PROVISION_MASK, m.KIND_MASK_REQUEST):
            return super().process(message)
        return message


def test_lossy_provisioning_is_a_verdict_not_a_transport_error():
    """Provisioning lost to the network degrades slots into §3 repair (or
    starves the round into an abort): the Byzantine harness classifies
    either — on the parent a raw ``NetworkError`` escaped with the round
    still tracked."""
    deployment = _build("byz-lossy")
    user_ids = [user.user_id for user in deployment.corpus.users]
    spy = EavesdropAdversary()
    deployment.network.interpose(spy)
    deployment.network.interpose(
        _LossyProvisioning(
            drop_rate=0.6, rng=HmacDrbg(b"byz-lossy", personalization="drop")
        )
    )
    degraded = 0
    for index in range(8):
        verdict = _run_in_weather(deployment, spy, "byz-lossy", index, user_ids)
        degraded += "provision-failed" in verdict.report.outcomes.values()
    assert degraded, "the weather never bit: the test exercises nothing"
