"""Round routing: one decision, one named reason per blocking condition.

``plan_route`` is the only place a round's path is chosen.  A stock
deployment gets every fast path it is configured for with no reason;
each single disqualifier sends the round to the serial flat path and
names itself.  The rows below are the table in DESIGN.md "Round
routing", one per way a condition can arise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.byzantine import (
    ATTACK_EQUIVOCATE,
    ATTACK_SERVICE_CORRUPT,
    AttackPlan,
    AttackSpec,
    TamperingAggregator,
    install_attacks,
    run_byzantine_round,
)
from repro.core.client import LocalDataStore, MaliciousClient
from repro.core.provisioning import BlinderProvisioner
from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError
from repro.experiments.common import Deployment
from repro.faults import FaultInjector, FaultPlan
from repro.network.adversary import DropAdversary
from repro.runtime.deadlines import AdaptiveDeadlines
from repro.scale import RoutePlan, ScaleConfig
from repro.scale.hierarchy import hierarchical_eligible
from repro.scale.rounds import parallel_eligible, plan_route

from tests.chaos import test_byzantine as byz

_SEED = b"routing"
#: Both fast paths wanted, so every row shows what a condition blocks.
_BOTH = ScaleConfig(workers=2, shards=3, subgroup_size=4)


def _build(parallelism=_BOTH, **kwargs):
    return Deployment.build(
        num_users=6, seed=_SEED, parallelism=parallelism, **kwargs
    )


def _round_inputs(deployment, **overrides):
    inputs = dict(participants=[u.user_id for u in deployment.corpus.users])
    inputs.update(overrides)
    return inputs


def route_of(deployment, **round_kwargs):
    """The plan the deployment's engine draws for a round with these inputs."""
    engine = deployment.engine
    return plan_route(
        engine, engine.parallelism, **_round_inputs(deployment, **round_kwargs)
    )


def _injector():
    return FaultInjector(FaultPlan(label="routing"), seed=_SEED)


class _SubclassedProvisioner(BlinderProvisioner):
    pass


def _wrap_service(deployment):
    deployment.engine.attach_service(
        TamperingAggregator(deployment.service, ATTACK_SERVICE_CORRUPT)
    )


def _subclass_provisioner(deployment):
    deployment.blinder_provisioner.__class__ = _SubclassedProvisioner


def _malicious_client(deployment):
    attacker = deployment.corpus.users[2].user_id
    engine = deployment.engine
    deployment.clients[attacker] = engine.clients[attacker] = MaliciousClient(
        attacker,
        deployment.image,
        deployment.attestation,
        seed=b"routing-attacker",
        data=LocalDataStore(),
    )


def _attacker_endpoint(deployment):
    attacker = deployment.corpus.users[2].user_id
    plan = AttackPlan(specs=(AttackSpec(ATTACK_EQUIVOCATE, target=attacker),))
    install_attacks(deployment, plan, HmacDrbg(_SEED, personalization="install"))


def _engine_injector(deployment):
    deployment.engine.fault_injector = _injector()


def _network_injector(deployment):
    deployment.network.fault_injector = _injector()


def _platform_injector(deployment):
    victim = deployment.corpus.users[1].user_id
    deployment.clients[victim].platform.fault_injector = _injector()


def _adversary(deployment):
    deployment.network.interpose(
        DropAdversary(drop_rate=0.0, rng=HmacDrbg(_SEED, personalization="drop"))
    )


def _link_conditions(deployment):
    deployment.engine.attach_conditions(object())


#: id -> (arrange(deployment) or None, round-input overrides, reason)
_ROWS = {
    "stock": (None, {}, None),
    "engine_fault_injector": (_engine_injector, {}, "fault_injector"),
    "network_fault_injector": (_network_injector, {}, "fault_injector"),
    "platform_fault_injector": (_platform_injector, {}, "fault_injector"),
    "network_adversary": (_adversary, {}, "network_adversary"),
    "wrapped_service": (_wrap_service, {}, "non_stock_party"),
    "subclassed_provisioner": (_subclass_provisioner, {}, "non_stock_party"),
    "malicious_client": (_malicious_client, {}, "non_stock_party"),
    "attacker_endpoint": (_attacker_endpoint, {}, "non_stock_party"),
    "adaptive_deadlines": (
        None,
        dict(adaptive=AdaptiveDeadlines()),
        "adaptive_deadlines",
    ),
    "link_conditions": (_link_conditions, {}, "link_conditions"),
}


@pytest.mark.parametrize("case", list(_ROWS))
def test_route_plan_names_the_first_blocking_condition(case):
    arrange, overrides, reason = _ROWS[case]
    deployment = _build()
    if arrange is not None:
        arrange(deployment)
    inputs = _round_inputs(deployment, **overrides)
    plan = plan_route(deployment.engine, _BOTH, **inputs)
    if reason is None:
        expected = RoutePlan(shards=3, subgroup_size=4)
    else:
        expected = RoutePlan(reason=reason)  # serial, flat
    assert plan == expected
    assert parallel_eligible(deployment.engine, **inputs) == plan.pool
    assert hierarchical_eligible(deployment.engine, **inputs) == bool(
        plan.subgroup_size
    )
    # A fast path the engine is not configured for is neither planned nor
    # reported as blocked.
    assert plan_route(deployment.engine, None, **inputs) == RoutePlan()
    streaming_only = ScaleConfig(subgroup_size=4)
    assert plan_route(deployment.engine, streaming_only, **inputs) == RoutePlan(
        subgroup_size=plan.subgroup_size, reason=reason
    )


def test_first_blocking_condition_wins():
    deployment = _build()
    for arrange in (_engine_injector, _adversary, _wrap_service, _link_conditions):
        arrange(deployment)
    inputs = _round_inputs(deployment, adaptive=AdaptiveDeadlines())

    def reason():
        return plan_route(deployment.engine, _BOTH, **inputs).reason

    assert reason() == "fault_injector"
    deployment.engine.fault_injector = None
    assert reason() == "network_adversary"
    deployment.network.clear_adversaries()
    assert reason() == "non_stock_party"
    deployment.engine.attach_service(deployment.service)
    assert reason() == "adaptive_deadlines"
    del inputs["adaptive"]
    assert reason() == "link_conditions"


def test_the_benchmark_gate_takes_the_retired_round_inputs_at_their_one_value():
    """``parallel_eligible`` still accepts the five round inputs rounds no
    longer have, spelled as the benchmark's route check spells them, and
    refuses any other value rather than ignore it."""
    deployment = _build()
    retired = dict(
        blind=True,
        deadline_ms=None,
        phase_deadlines_ms={},
        claims_by_user=None,
        context_fields=(),
    )
    inputs = _round_inputs(deployment)
    assert parallel_eligible(deployment.engine, **inputs, **retired)
    for name, value in (
        ("blind", False),
        ("blind", 1),
        ("deadline_ms", 10_000.0),
        ("phase_deadlines_ms", {"collect": 5_000.0}),
        ("claims_by_user", {"user-0000": {"age": 30}}),
        ("context_fields", ("locale",)),
        ("recipients", ()),
    ):
        with pytest.raises(ConfigurationError, match=name):
            parallel_eligible(deployment.engine, **inputs, **{**retired, name: value})


def test_workers_and_subgroup_size_are_both_honoured():
    """``workers > 0`` with ``subgroup_size > 0`` pools *and* streams.

    The executor and the accumulator are independent choices: the round
    below dispatches to the worker pool and folds every submission into
    a subgroup partial, and is bit-exact against the serial flat round.
    """

    def run(parallelism):
        deployment = _build(parallelism)
        users = [u.user_id for u in deployment.corpus.users]
        dispatches = []
        if parallelism is not None and parallelism.enabled:
            pool = deployment.engine.scale_pool()
            dispatch = pool.map_chunks
            pool.map_chunks = lambda context, chunks: (
                dispatches.append(len(chunks)) or dispatch(context, chunks)
            )
        with deployment.engine as engine:
            report = engine.run_round(
                1,
                users,
                deployment.local_vectors(),
                deployment.features.bigrams,
                collect_dropouts=(users[4],),
            )
        return report, dispatches

    flat, _ = run(None)
    both, dispatches = run(_BOTH)
    assert len(dispatches) == 1
    assert both.submissions_streamed == 5
    assert both.subgroup_size == 4
    assert both.subgroups_aggregated == 2
    assert both.subgroup_dropout_repairs == 1
    assert np.array_equal(flat.aggregate, both.aggregate)
    assert flat.outcomes == both.outcomes
    assert flat.ecalls == both.ecalls
    assert flat.masks_repaired == both.masks_repaired == 1
    assert flat.num_contributions == both.num_contributions
    # Client traffic left the bus: the pool really was the executor.
    assert both.messages_sent < flat.messages_sent


@pytest.mark.parametrize(
    "parallelism",
    [ScaleConfig(workers=2, shards=3), ScaleConfig(subgroup_size=4)],
    ids=["pool", "streamed"],
)
def test_an_attacker_endpoint_keeps_its_rounds_on_the_serial_path(parallelism):
    """Stock client *devices*, one of them behind an attacker's endpoint:
    the round is blocked as ``non_stock_party`` and the Byzantine trace is
    the unconfigured engine's; a benign plan restores the fast path."""

    def byzantine_round(deployment):
        users = [u.user_id for u in deployment.corpus.users]
        plan = AttackPlan(specs=(AttackSpec(ATTACK_EQUIVOCATE, target=users[1]),))
        install_attacks(deployment, plan, HmacDrbg(_SEED, personalization="install"))
        with deployment.engine:
            verdict = run_byzantine_round(deployment, 1, users, plan)
            trace = byz._trace(verdict)
            byz._pardon_all(deployment)
            install_attacks(deployment, AttackPlan(), HmacDrbg(_SEED))
            benign = run_byzantine_round(deployment, 2, users, AttackPlan())
        return trace, verdict.report, benign.report

    trace, attacked, restored = byzantine_round(_build(parallelism))
    assert attacked.route_reason == "non_stock_party"
    assert attacked.submissions_streamed == 0
    reference, unconfigured, _ = byzantine_round(_build(None))
    assert unconfigured.route_reason is None
    assert trace == reference
    assert trace[:2] == ("exact-finalize", ("client:" + attacked.participants[1],))
    # Uninstalled: every endpoint is stock again and the round is routed.
    assert restored.route_reason is None
    assert restored.outcomes == {u: "accepted" for u in restored.participants}
    if parallelism.hierarchical:
        assert restored.submissions_streamed == len(restored.participants)
    else:
        assert restored.messages_sent < attacked.messages_sent  # left the bus
