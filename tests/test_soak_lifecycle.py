"""Soak test: a multi-round deployment lifecycle with churn.

One scenario, several rounds, everything at once: clients dropping out and
being repaired, a poisoner probing every round, an enclave restart with
sealed-key restoration mid-deployment, and nonce bookkeeping across rounds.
Each round's aggregate must stay exact over exactly the accepted cohort.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.experiments.common import Deployment
from repro.invariants import exact_mean


@pytest.fixture(scope="module")
def deployment():
    return Deployment.build(num_users=6, seed=b"soak", sentences_per_user=15)


def run_round(deployment, round_id, participants, dropouts=(), poisoners=()):
    """One round; returns (aggregate, accepted user ids)."""
    features = deployment.features
    vectors = deployment.local_vectors()
    deployment.open_round(round_id, participants)
    accepted = []
    for index, user_id in enumerate(participants):
        if user_id in dropouts:
            continue
        values = list(vectors[user_id])
        if user_id in poisoners:
            values[0] = 538.0
        try:
            signed = deployment.clients[user_id].contribute(
                round_id, values, features.bigrams
            )
        except ValidationError:
            continue
        slot = deployment.clients[user_id].party_index_for(round_id)
        assert deployment.service.submit(round_id, signed, slot)
        accepted.append(user_id)
    repairs = [
        deployment.blinder_provisioner.reveal_dropout_mask(round_id, index)
        for index, user_id in enumerate(participants)
        if user_id not in accepted
    ]
    result = deployment.service.finalize_blinded_round(round_id, repairs)
    return result.aggregate, accepted


def test_three_rounds_with_churn(deployment):
    user_ids = [u.user_id for u in deployment.corpus.users]

    # Round 1: everyone participates, one poisoner probes.
    aggregate, accepted = run_round(
        deployment, 1, user_ids, poisoners={user_ids[0]}
    )
    assert user_ids[0] not in accepted
    assert np.allclose(aggregate, exact_mean(deployment.codec, deployment.local_vectors(), accepted), atol=1e-3)

    # Round 2: two clients drop after mask provisioning.
    aggregate, accepted = run_round(
        deployment, 2, user_ids, dropouts={user_ids[1], user_ids[4]}
    )
    assert len(accepted) == len(user_ids) - 2
    assert np.allclose(aggregate, exact_mean(deployment.codec, deployment.local_vectors(), accepted), atol=1e-3)

    # Mid-deployment: client 2's enclave restarts and restores its key.
    victim = deployment.clients[user_ids[2]]
    sealed = victim.provision_signing_key(deployment.service_provisioner)
    victim.glimmer.destroy()
    victim.glimmer = victim.platform.load_enclave(
        deployment.image,
        ocall_handlers={"collect_private_data": victim._serve_private_data},
    )
    victim.glimmer.ecall("restore_signing_key", sealed)

    # Round 3: only a subset participates (including the restarted client).
    subset = user_ids[1:5]
    aggregate, accepted = run_round(deployment, 3, subset)
    assert accepted == subset
    assert np.allclose(aggregate, exact_mean(deployment.codec, deployment.local_vectors(), accepted), atol=1e-3)


def test_rounds_do_not_interfere(deployment):
    """Contributions signed for round 10 cannot enter round 11."""
    user_ids = [u.user_id for u in deployment.corpus.users]
    vectors = deployment.local_vectors()
    deployment.open_round(10, user_ids[:2])
    deployment.open_round(11, user_ids[:2])
    signed = deployment.clients[user_ids[0]].contribute(
        10, list(vectors[user_ids[0]]), deployment.features.bigrams
    )
    assert not deployment.service.submit(11, signed, 0)
    assert deployment.service.submit(10, signed, 0)
