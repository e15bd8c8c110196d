"""Local data stays local: a device's input vector never crosses the bus.

The engine writes each device's vector into the device's own
:class:`~repro.core.client.LocalDataStore`, as the user's app would; the
contribute command names only the round and the feature list, and the
device step reads the vector from the store.  These tests play the
on-path observer against the engine's commands, hand the Glimmer bad
local vectors, and check that no stored vector outlives its round.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import codec, invariants
from repro.errors import RoundAbortedError
from repro.experiments.common import Deployment
from repro.network.adversary import DropAdversary, EavesdropAdversary, NetworkAdversary
from repro.perf import kernels
from repro.runtime import messages as m
from repro.runtime.telemetry import (
    OUTCOME_ACCEPTED,
    OUTCOME_UNREACHABLE,
    OUTCOME_VALIDATION_REJECTED,
)
from repro.scale import ScaleConfig

SEED = b"local-data"
USERS = 4


def _round(deployment, round_id, vectors):
    users = [user.user_id for user in deployment.corpus.users]
    return deployment.engine.run_round(round_id, users, vectors, deployment.features.bigrams)


def _stored(deployment) -> int:
    return sum(len(client.data.vectors) for client in deployment.clients.values())


# ------------------------------------------------------ the on-path observer


def _observed_round(transform):
    """One round on a fresh deployment with every vector ``transform``ed:
    the eavesdropper, the inputs and the report."""
    deployment = Deployment.build(num_users=USERS, seed=SEED, sentences_per_user=10)
    eavesdropper = EavesdropAdversary()
    deployment.network.interpose(eavesdropper)
    vectors = {
        user: transform(np.asarray(vector))
        for user, vector in deployment.local_vectors().items()
    }
    report = _round(deployment, 1, vectors)
    assert invariants.judge(report, deployment.codec, vectors).outcome == (
        invariants.OUTCOME_CLEAN
    )
    return eavesdropper, vectors


def test_an_on_path_observer_learns_nothing_about_inputs_from_the_commands():
    """Same seeds, two different all-valid input sets: every contribute
    and provision-mask command an eavesdropper captures is byte-identical
    between the runs, and no frame of any kind holds a device's vector."""
    first, first_inputs = _observed_round(lambda v: v)
    second, second_inputs = _observed_round(lambda v: 1.0 - v)
    for user in first_inputs:
        assert not np.array_equal(first_inputs[user], second_inputs[user])
    for kind in (m.KIND_CONTRIBUTE, m.KIND_PROVISION_MASK):
        frames = [[codec.encode(p) for p in e.captured_payloads(kind)] for e in (first, second)]
        assert len(frames[0]) == USERS
        assert frames[0] == frames[1]
    for eavesdropper, inputs in ((first, first_inputs), (second, second_inputs)):
        wire = b"".join(codec.encode(message.payload) for message in eavesdropper.captured)
        readable = [u for u, v in inputs.items() if kernels.be_doubles_to_bytes(v) in wire]
        assert readable == []


# ------------------------------------------------- the Glimmer refuses it itself


@pytest.mark.parametrize(
    "predicate, bad",
    [
        ("range:0.0:1.0", float("nan")),
        ("range:0.0:1.0", float("inf")),
        ("range:0.0:1.0", float("-inf")),
        ("range:0.0:1.0", 1.5),
        ("accept-all", float("nan")),
        ("accept-all", float("inf")),
        pytest.param("accept-all", 2.0e6, id="accept-all-beyond-the-codec-bound"),
    ],
    ids=str,
)
def test_a_bad_local_vector_is_refused_by_the_glimmer(predicate, bad):
    """A stored vector holding a non-finite or out-of-range value is the
    Glimmer's to refuse: the device ends ``validation-rejected``, nobody is
    blamed, its slot is repaired and the round finalizes exactly."""
    deployment = Deployment.build(
        num_users=USERS, seed=SEED, sentences_per_user=10, predicate_spec=predicate
    )
    vectors = dict(deployment.local_vectors())
    victim = deployment.corpus.users[1].user_id
    poisoned = np.array(vectors[victim])
    poisoned[3] = bad
    vectors[victim] = poisoned
    report = _round(deployment, 1, vectors)
    assert report.outcomes[victim] == OUTCOME_VALIDATION_REJECTED
    assert not report.violations
    assert report.masks_repaired == 1
    assert invariants.judge(report, deployment.codec, vectors).exact


def test_a_wrong_length_vector_keeps_its_mask_and_its_slot_is_repaired():
    """A 5-value vector in a longer round is refused before the Glimmer
    takes the slot's mask: the device is ``validation-rejected`` (not
    ``crashed``), the mask is revealed for repair, and the aggregate over
    the rest is exact."""
    deployment = Deployment.build(num_users=USERS, seed=SEED, sentences_per_user=10)
    vectors = dict(deployment.local_vectors())
    victim = deployment.corpus.users[2].user_id
    vectors[victim] = vectors[victim][:5]
    report = _round(deployment, 1, vectors)
    assert report.outcomes[victim] == OUTCOME_VALIDATION_REJECTED
    assert report.client_restarts == 0
    assert report.masks_repaired == 1
    others = [u for u in vectors if u != victim]
    assert sorted(report.survivors) == sorted(others)
    assert np.array_equal(
        np.asarray(report.aggregate), invariants.exact_mean(deployment.codec, vectors, others)
    )


# ---------------------------------------------------- a vector outlives nothing


class LoseCommands(NetworkAdversary):
    """On-path: lose every command of ``kinds`` sent to one device."""

    def __init__(self, user_id: str, kinds: set[str]) -> None:
        self.receiver = m.client_endpoint(user_id)
        self.kinds = kinds

    def process(self, message):
        if message.kind in self.kinds and message.receiver == self.receiver:
            return None
        return message


def _drive(deployment, round_id):
    """One round stage by stage: the vectors devices hold when it reaches
    finalize, and its report."""
    users = [user.user_id for user in deployment.corpus.users]
    stages = deployment.engine.round_stages(
        round_id, users, deployment.local_vectors(), deployment.features.bigrams
    )
    held = None
    try:
        while True:
            if next(stages) == "finalize":
                held = _stored(deployment)
    except StopIteration as done:
        return held, done.value


def test_a_lost_close_round_leaves_no_vector_behind():
    """One device loses its contribute command and its ``client/close-round``
    leg, so its vector is still in its store when the round finalizes;
    none is left once the round retires.  (An on-path adversary holds a
    round to the serial bus route.)"""
    deployment = Deployment.build(num_users=USERS, seed=SEED, sentences_per_user=10)
    victim = deployment.corpus.users[0].user_id
    deployment.network.interpose(
        LoseCommands(victim, {m.KIND_CONTRIBUTE, m.KIND_CLOSE_ROUND})
    )
    for round_id in (1, 2):
        held, report = _drive(deployment, round_id)
        assert held == 1
        assert report.outcomes[victim] == OUTCOME_UNREACHABLE
        assert report.masks_repaired == 1
        assert invariants.judge(report, deployment.codec, deployment.local_vectors()).exact
        # The close really was lost: the victim still holds its slot.
        assert deployment.clients[victim].party_index_for(round_id) is not None
        assert _stored(deployment) == 0


def test_a_pooled_round_leaves_no_vector_behind():
    """The parent writes each vector into the device it ships; the worker's
    device step takes it, so the device that comes back holds none."""
    deployment = Deployment.build(
        num_users=USERS, seed=SEED, sentences_per_user=10,
        parallelism=ScaleConfig(workers=2, shards=2),
    )
    with deployment.engine:
        held, report = _drive(deployment, 1)
    assert report.route_reason is None
    assert held == 0
    assert set(report.outcomes.values()) == {OUTCOME_ACCEPTED}
    assert _stored(deployment) == 0


def test_an_aborted_round_leaves_no_vector_behind():
    """Every contribute command is lost, so every device still holds its
    vector when the round aborts; abandoning the round drops them all."""
    deployment = Deployment.build(num_users=USERS, seed=SEED, sentences_per_user=10)
    deployment.network.interpose(DropAdversary(drop_kinds={m.KIND_CONTRIBUTE}))
    with pytest.raises(RoundAbortedError):
        _round(deployment, 1, deployment.local_vectors())
    assert _stored(deployment) == USERS
    deployment.engine.abandon_round(1)
    assert _stored(deployment) == 0
