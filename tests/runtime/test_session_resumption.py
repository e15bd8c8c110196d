"""Cross-round mask sessions: the same rounds, without the per-round handshake.

Every deployment keeps a device's attested session across rounds: the
first mask is a full attested delivery, later ones ride the session.
Every round must still finalize exactly, while the telemetry shows repeat
clients resuming instead of re-running full handshakes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.crypto import group_ops
from repro.errors import MaskVerificationError, RoundAbortedError
from repro.experiments.common import Deployment
from repro.invariants import exact_mean
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


def _assert_exact(deployment):
    users = [user.user_id for user in deployment.corpus.users]
    np.testing.assert_array_equal(
        np.asarray(deployment.last_report.aggregate),
        exact_mean(deployment.codec, deployment.local_vectors(), users),
    )
    assert deployment.last_report.survivors == tuple(users)


def test_cached_rounds_match_uncached_and_resume():
    deployment = Deployment.build(num_users=NUM_USERS, seed=b"session-resume")
    for round_id in ROUNDS:
        deployment.honest_round(round_id)
        _assert_exact(deployment)
        # round 1 opens every session; every later mask rides one
        resumed = 0 if round_id == 1 else NUM_USERS
        assert deployment.last_report.handshakes_resumed == resumed
        assert deployment.last_report.ecalls == (3 if round_id == 1 else 2) * NUM_USERS
    counters = deployment.blinder_provisioner.sessions.counters()
    assert counters["full_verifications"] == NUM_USERS
    assert counters["resumed"] == NUM_USERS * (len(ROUNDS) - 1)


def test_glimmer_restart_heals_by_full_handshake():
    """A restarted Glimmer lost its session key; its in-session delivery
    fails to open, the host drops the session, and the retry runs the
    full handshake — the round still completes exactly."""
    deployment = Deployment.build(num_users=NUM_USERS, seed=b"session-resume")
    deployment.honest_round(1)
    victim = deployment.clients[deployment.corpus.users[0].user_id]
    victim.restart()
    sessions = deployment.blinder_provisioner.sessions
    stale, full_before = victim.mask_session, sessions.full_verifications
    deployment.honest_round(2)
    _assert_exact(deployment)
    assert sessions.full_verifications == full_before + 1
    assert victim.mask_session not in (None, stale)
    # the victim re-established: round 3 resumes for everyone again
    deployment.honest_round(3)
    _assert_exact(deployment)
    assert deployment.last_report.handshakes_resumed == NUM_USERS


# ------------------------------------------------- blame survives resumption


def _established(parallelism=None):
    """A deployment with round 1 done: every device holds a session."""
    deployment = Deployment.build(
        num_users=NUM_USERS, seed=b"session-resume", parallelism=parallelism
    )
    with deployment.engine:
        deployment.honest_round(1)
    return deployment


def _lie_about_slot_0_once(provisioner):
    """The blinder's next slot-0 delivery carries its seed with one bit
    flipped (its first word, where slot 0 is a family's last slot).

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
        share = opening.share
        if share.seed is None:
            share = replace(share, words=bytes([share.words[0] ^ 1]) + share.words[1:])
        else:
            share = replace(share, seed=bytes([share.seed[0] ^ 1]) + share.seed[1:])
        return replace(opening, share=share)

    provisioner.mask_opening = mask_opening
    return asked


def _assert_asked_once_and_still_cached(deployment, client, asked, sessions_before):
    assert asked == [2]
    assert client._session_counter == sessions_before  # asked in session only
    sessions = deployment.blinder_provisioner.sessions
    assert sessions.counters()["resume_rejected"] == 0
    handle = client.mask_session
    assert handle is not None  # the host kept its session
    assert sessions.session_key(handle, deployment.image.mrenclave)


@pytest.mark.parametrize(
    "parallelism", [None, ScaleConfig(workers=2, shards=2)], ids=["bus", "pool"]
)
def test_one_shot_tampered_delivery_is_blamed_under_resumption(parallelism):
    """The host may retry an in-session delivery it cannot *open*; one
    that opens to a mask failing its commitment is the blinder lying, on
    every route."""
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
