"""The published feature list travels to each device host once.

``ContributeCommand`` always names the list by its 32-byte digest and
carries the list itself only to a device whose last bus contribution under
that digest was not accepted (or that never made one).  These tests watch
the wire with an eavesdropper and hold every round to the exact mean: the
list goes out in round 1 and not after, a new host or a refused round gets
it again, a list stripped or swapped in transit costs that device one
round and nothing more, and a device first seen by the worker pool gets it
on its first bus round.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.glimmer import features_digest
from repro.errors import ProtocolViolation
from repro.experiments.common import Deployment
from repro.invariants import exact_mean, judge
from repro.network.adversary import EavesdropAdversary
from repro.runtime import messages as m
from repro.runtime.protocol import VIOLATION_MALFORMED
from repro.runtime.telemetry import OUTCOME_ACCEPTED, OUTCOME_VALIDATION_REJECTED
from repro.scale import ScaleConfig
from tests.runtime.test_wire import RewriteContribute

USERS = 6
SEED = b"feature-publication"


def _build(**kwargs):
    deployment = Deployment.build(
        num_users=USERS, seed=SEED, sentences_per_user=8, **kwargs
    )
    users = [user.user_id for user in deployment.corpus.users]
    return deployment, users


def _commands(eavesdropper, round_id) -> dict[str, m.ContributeCommand]:
    """The command each device was sent in a round (last attempt wins)."""
    return {
        message.receiver.removeprefix("client:"): message.payload
        for message in eavesdropper.captured
        if message.kind == m.KIND_CONTRIBUTE and message.payload.round_id == round_id
    }


def _run(deployment, round_id, users, vectors=None, **kwargs):
    vectors = vectors or deployment.local_vectors()
    report = deployment.engine.run_round(
        round_id, users, vectors, deployment.features.bigrams, **kwargs
    )
    assert judge(report, deployment.codec, vectors).exact
    assert np.array_equal(
        report.aggregate, exact_mean(deployment.codec, vectors, report.survivors)
    )
    return report


def test_the_list_travels_in_round_one_only():
    deployment, users = _build()
    eavesdropper = EavesdropAdversary()
    deployment.network.interpose(eavesdropper)
    bigrams = tuple(deployment.features.bigrams)
    digest = features_digest(bigrams)
    reports = [_run(deployment, round_id, users) for round_id in (1, 2, 3)]

    for round_id, report in enumerate(reports, start=1):
        commands = _commands(eavesdropper, round_id)
        assert sorted(commands) == sorted(users)
        assert set(report.outcomes.values()) == {OUTCOME_ACCEPTED}
        for command in commands.values():
            assert command.features_digest == digest
            assert len(command.features_digest) == 32
            assert command.features == (bigrams if round_id == 1 else ())
    assert reports[1].bytes_on_wire < reports[0].bytes_on_wire
    assert reports[2].bytes_on_wire < reports[0].bytes_on_wire


def test_a_reregistered_device_gets_the_list_again():
    deployment, users = _build()
    eavesdropper = EavesdropAdversary()
    deployment.network.interpose(eavesdropper)
    _run(deployment, 1, users)
    renewed = users[2]
    deployment.engine.register_client(deployment.clients[renewed])
    report = _run(deployment, 2, users)

    commands = _commands(eavesdropper, 2)
    assert commands[renewed].features == tuple(deployment.features.bigrams)
    assert all(commands[u].features == () for u in users if u != renewed)
    assert report.outcomes[renewed] == OUTCOME_ACCEPTED


def test_a_refused_device_gets_the_list_again_and_is_accepted():
    deployment, users = _build()
    eavesdropper = EavesdropAdversary()
    deployment.network.interpose(eavesdropper)
    poisoned = dict(deployment.local_vectors())
    refused = users[3]
    poisoned[refused] = [538.0] + [0.0] * (len(deployment.features) - 1)
    first = _run(deployment, 1, users, poisoned)
    assert first.outcomes[refused] == OUTCOME_VALIDATION_REJECTED

    second = _run(deployment, 2, users)
    commands = _commands(eavesdropper, 2)
    assert commands[refused].features == tuple(deployment.features.bigrams)
    assert all(commands[u].features == () for u in users if u != refused)
    assert set(second.outcomes.values()) == {OUTCOME_ACCEPTED}


def test_a_list_stripped_in_transit_costs_that_device_one_round():
    deployment, users = _build()
    victim = users[1]
    eavesdropper = EavesdropAdversary()
    deployment.network.interpose(RewriteContribute(victim, {1}, features=()))
    deployment.network.interpose(eavesdropper)
    bigrams = tuple(deployment.features.bigrams)

    first = _run(deployment, 1, users)
    assert first.outcomes[victim] == OUTCOME_VALIDATION_REJECTED
    assert len(first.survivors) == USERS - 1
    second = _run(deployment, 2, users)
    assert _commands(eavesdropper, 2)[victim].features == bigrams
    assert second.outcomes[victim] == OUTCOME_ACCEPTED
    third = _run(deployment, 3, users)
    assert _commands(eavesdropper, 3)[victim].features == ()
    assert set(third.outcomes.values()) == {OUTCOME_ACCEPTED}


def test_a_list_that_misses_its_digest_is_malformed_and_not_kept():
    deployment, users = _build()
    victim = users[4]
    bigrams = tuple(deployment.features.bigrams)
    _run(deployment, 1, users)
    swapped = tuple(reversed(bigrams))
    deployment.network.interpose(RewriteContribute(victim, {2}, features=swapped))

    with pytest.raises(ProtocolViolation) as excinfo:
        _run(deployment, 2, users)
    assert excinfo.value.kind == VIOLATION_MALFORMED
    assert excinfo.value.offender == m.ENGINE
    endpoint = deployment.engine.client_endpoints[victim]
    assert endpoint._features == bigrams
    assert endpoint._features_digest == features_digest(bigrams)

    deployment.engine.abandon_round(2)
    deployment.network.clear_adversaries()
    third = _run(deployment, 3, users)
    assert set(third.outcomes.values()) == {OUTCOME_ACCEPTED}


def test_a_pool_only_device_gets_the_list_on_its_first_bus_round():
    deployment, users = _build(parallelism=ScaleConfig(workers=2, shards=2))
    bigrams = tuple(deployment.features.bigrams)
    with deployment.engine:
        pooled = _run(deployment, 1, users)
        assert pooled.route_reason is None
        eavesdropper = EavesdropAdversary()
        deployment.network.interpose(eavesdropper)
        serial = _run(deployment, 2, users, deadline_ms=1e9)
        assert serial.route_reason == "deadlines"
        assert all(c.features == bigrams for c in _commands(eavesdropper, 2).values())
        assert set(serial.outcomes.values()) == {OUTCOME_ACCEPTED}
        _run(deployment, 3, users, deadline_ms=1e9)
        assert all(c.features == () for c in _commands(eavesdropper, 3).values())
