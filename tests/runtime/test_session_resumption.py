"""Cross-round DH session resumption: same outcomes, fewer handshakes.

The session cache is an opt-in transport optimization — with it on, every
round must produce the same accept/reject decisions and the same
aggregate as the uncached deployment, while the telemetry shows repeat
clients resuming instead of re-running full handshakes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import group_ops
from repro.experiments.common import Deployment

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
