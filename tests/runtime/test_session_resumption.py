"""Cross-round DH session resumption: same outcomes, fewer handshakes.

The session cache is an opt-in transport optimization — with it on, every
round must produce the same accept/reject decisions and the same
aggregate as the uncached deployment, while the telemetry shows repeat
clients resuming instead of re-running full handshakes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.glimmer import BLINDING_MASK_CONTEXT
from repro.crypto import group_ops
from repro.crypto.commitments import MaskOpening
from repro.errors import MaskVerificationError, RoundAbortedError
from repro.experiments.common import Deployment
from repro.runtime.protocol import VIOLATION_MASK_OPENING
from repro.scale import ScaleConfig

from tests.scale.test_routing import route_of

NUM_USERS = 4
ROUNDS = (1, 2, 3)


@pytest.fixture(autouse=True)
def _clean_group_ops_state():
    group_ops.reset_tables()
    yield
    group_ops.reset_tables()


def _deployments():
    cached = Deployment.build(
        num_users=NUM_USERS, seed=b"session-resume", session_resumption=True
    )
    plain = Deployment.build(num_users=NUM_USERS, seed=b"session-resume")
    return cached, plain


def test_cached_rounds_match_uncached_and_resume():
    cached, plain = _deployments()
    for round_id in ROUNDS:
        aggregate_cached = cached.honest_round(round_id)
        aggregate_plain = plain.honest_round(round_id)
        np.testing.assert_array_equal(aggregate_cached, aggregate_plain)
        assert (
            cached.last_report.num_contributions
            == plain.last_report.num_contributions
        )
        assert cached.last_report.survivors == plain.last_report.survivors
        assert plain.last_report.handshakes_resumed == 0
        if round_id == 1:
            assert cached.last_report.handshakes_resumed == 0
        else:
            # every repeat client resumes its blinding-mask handshake
            assert cached.last_report.handshakes_resumed >= NUM_USERS
    counters = cached.blinder_provisioner.session_cache.counters()
    assert counters["stores"] == NUM_USERS
    assert counters["hits"] >= NUM_USERS * (len(ROUNDS) - 1)


def test_glimmer_restart_heals_by_full_handshake():
    """A restarted Glimmer lost its session keys; the resumed delivery
    fails to open, the client evicts the cache entry, and the retry runs
    the full handshake — the round still completes correctly."""
    cached, plain = _deployments()
    np.testing.assert_array_equal(
        cached.honest_round(1), plain.honest_round(1)
    )
    victim = cached.corpus.users[0].user_id
    cached.clients[victim].restart()
    cache = cached.blinder_provisioner.session_cache
    evictions_before = cache.counters()["evictions"]
    np.testing.assert_array_equal(
        cached.honest_round(2), plain.honest_round(2)
    )
    assert cache.counters()["evictions"] == evictions_before + 1
    # the victim re-established: round 3 resumes for everyone again
    np.testing.assert_array_equal(
        cached.honest_round(3), plain.honest_round(3)
    )
    assert cached.last_report.handshakes_resumed >= NUM_USERS


# ------------------------------------------------- blame survives resumption


def _established(parallelism=None):
    """A resuming deployment with round 1 done: every session is cached."""
    deployment = Deployment.build(
        num_users=NUM_USERS,
        seed=b"session-resume",
        session_resumption=True,
        parallelism=parallelism,
    )
    with deployment.engine:
        deployment.honest_round(1)
    return deployment


def _lie_about_slot_0_once(provisioner):
    """The blinder's next slot-0 delivery carries one shifted mask word.

    Patched on the instance, under ``provision_mask``, so the party stays
    stock (pool-eligible) and every driver meets the same lie.  Returns
    the list of rounds slot 0 was asked for.
    """
    honest, asked = provisioner.mask_opening, []

    def mask_opening(round_id, party_index):
        opening = honest(round_id, party_index)
        if party_index != 0:
            return opening
        asked.append(round_id)
        if len(asked) > 1:
            return opening
        mask = (int(opening.mask[0]) ^ 1, *opening.mask[1:])
        return MaskOpening(
            mask=mask, salt=opening.salt, randomizer=opening.randomizer
        )

    provisioner.mask_opening = mask_opening
    return asked


def _assert_asked_once_and_still_cached(deployment, client, asked, sessions_before):
    assert asked == [2]
    assert client._session_counter == sessions_before + 1  # no second handshake
    cache = deployment.blinder_provisioner.session_cache
    assert cache.counters()["evictions"] == 0
    assert (
        cache.lookup(client.platform.platform_id, BLINDING_MASK_CONTEXT)
        is not None
    )


@pytest.mark.parametrize(
    "parallelism", [None, ScaleConfig(workers=2, shards=2)], ids=["bus", "pool"]
)
def test_one_shot_tampered_delivery_is_blamed_under_resumption(parallelism):
    """Resumption may retry a delivery it cannot *open*; one that opens to
    a mask failing its commitment is the blinder lying, on every route."""
    deployment = _established(parallelism)
    client = deployment.clients[deployment.corpus.users[0].user_id]
    sessions_before = client._session_counter
    asked = _lie_about_slot_0_once(deployment.blinder_provisioner)
    assert route_of(deployment).pool == (parallelism is not None)
    with deployment.engine, pytest.raises(RoundAbortedError) as aborted:
        deployment.honest_round(2)
    assert ("blinder", VIOLATION_MASK_OPENING) in {
        (violation.offender, violation.kind)
        for violation in aborted.value.report.violations
    }
    _assert_asked_once_and_still_cached(deployment, client, asked, sessions_before)


def test_one_shot_tampered_delivery_raises_on_direct_provisioning():
    deployment = _established()
    client = deployment.clients[deployment.corpus.users[0].user_id]
    sessions_before = client._session_counter
    provisioner = deployment.blinder_provisioner
    asked = _lie_about_slot_0_once(provisioner)
    provisioner.open_round(2, NUM_USERS, len(deployment.features))
    with pytest.raises(MaskVerificationError):
        client.provision_mask(provisioner, 2, 0)
    _assert_asked_once_and_still_cached(deployment, client, asked, sessions_before)
