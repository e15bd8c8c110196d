"""The mask-session contract: when a device is attested in full, and when not.

A device's first mask is a full attested delivery (quote-bound DH value,
signed handshake); it opens a session in the blinding service's table, and
later masks arrive sealed under a key derived from that session for their
round and slot — no quote, no DH leg, no signature.  These tests pin what
ends a session and what that costs: a revoked platform or a bumped epoch
is refused in the very next round and must show a fresh quote; a
restarted Glimmer or a restarted blinder costs each device exactly one
full delivery; a session lapses after its delivery bound; and a captured
in-session delivery opens for its own round and slot only.
"""

from __future__ import annotations

import pytest

from repro import codec, invariants
from repro.core.glimmer import KeyDelivery
from repro.crypto.fixedpoint import ring_width
from repro.errors import AttestationError, AuthenticationError
from repro.experiments.common import Deployment
from repro.network.adversary import EavesdropAdversary
from repro.network.transport import REPLY_SUFFIX
from repro.runtime import messages as m
from repro.runtime.telemetry import OUTCOME_ACCEPTED
from repro.service.service import GlimmerService
from repro.service.storage import MemoryBackend
from repro.sgx.sessions import SESSION_DELIVERIES

NUM_USERS = 4


def _watched(num_users=NUM_USERS, seed=b"mask-sessions"):
    """A deployment with round 1 run, and an eavesdropper from then on."""
    deployment = Deployment.build(num_users=num_users, seed=seed)
    deployment.honest_round(1)
    spy = EavesdropAdversary()
    deployment.network.interpose(spy)
    return deployment, spy


def _requests(spy, round_id: int, user_id: str) -> list[str]:
    """The shapes of one device's mask requests in one round, in order."""
    sender = m.client_endpoint(user_id)
    return [
        "full" if message.payload.quote is not None else "in-session"
        for message in spy.captured
        if message.kind == m.KIND_MASK_REQUEST
        and message.sender == sender
        and message.payload.round_id == round_id
    ]


def _judged_exact(deployment) -> None:
    report = deployment.last_report
    verdict = invariants.judge(
        report, deployment.codec, deployment.local_vectors(report.participants)
    )
    assert verdict.exact, verdict.outcome


# ------------------------------------------------------- the very next round


def test_revoked_platform_gets_no_mask_in_the_very_next_round():
    """Revocation is a set lookup each round: the in-session request is
    refused, and the fresh quote the device then shows is refused too."""
    deployment, spy = _watched()
    users = [user.user_id for user in deployment.corpus.users]
    victim = deployment.clients[users[0]]
    sessions = deployment.blinder_provisioner.sessions
    full_before = sessions.full_verifications
    deployment.attestation.revoke_platform(victim.platform.platform_id)
    deployment.honest_round(2)
    requests = _requests(spy, 2, victim.client_id)
    assert requests[0] == "in-session" and "full" in requests[1:]
    assert victim.party_index_for(2) is None  # no mask reached the Glimmer
    assert deployment.last_report.outcomes[victim.client_id] != OUTCOME_ACCEPTED
    assert sessions.counters()["resume_rejected"] == 1
    assert sessions.full_verifications == full_before  # no quote accepted
    _judged_exact(deployment)


def test_bumped_epoch_gets_no_mask_without_a_fresh_quote():
    deployment, spy = _watched()
    users = [user.user_id for user in deployment.corpus.users]
    sessions = deployment.blinder_provisioner.sessions
    round_one = {user: deployment.clients[user].mask_session for user in users}
    sessions.bump_policy_epoch()
    deployment.honest_round(2)
    for user in users:
        assert _requests(spy, 2, user) == ["in-session", "full"]
        assert deployment.clients[user].mask_session != round_one[user]
    report = deployment.last_report
    assert report.handshakes_resumed == 0
    assert set(report.outcomes.values()) == {OUTCOME_ACCEPTED}
    assert sessions.counters()["full_verifications"] == 2 * NUM_USERS
    _judged_exact(deployment)
    deployment.honest_round(3)  # the new epoch's sessions carry on
    assert deployment.last_report.handshakes_resumed == NUM_USERS


# --------------------------------------------------------------- restarts


def test_restarted_glimmer_costs_exactly_one_full_delivery():
    deployment, spy = _watched()
    users = [user.user_id for user in deployment.corpus.users]
    deployment.clients[users[2]].restart()
    deployment.honest_round(2)
    for user in users:
        expected = ["in-session", "full"] if user == users[2] else ["in-session"]
        assert _requests(spy, 2, user) == expected
    assert deployment.blinder_provisioner.sessions.full_verifications == NUM_USERS + 1
    _judged_exact(deployment)


def test_restarted_blinder_costs_each_device_exactly_one_full_delivery():
    deployment, spy = _watched()
    users = [user.user_id for user in deployment.corpus.users]
    blinder = deployment.blinder_provisioner
    blinder.crash()
    blinder.restart()
    deployment.honest_round(2)
    for user in users:
        assert _requests(spy, 2, user) == ["in-session", "full"]
    counters = blinder.sessions.counters()
    assert counters["resume_rejected"] == NUM_USERS
    assert counters["full_verifications"] == 2 * NUM_USERS
    _judged_exact(deployment)
    deployment.honest_round(3)
    for user in users:
        assert _requests(spy, 3, user) == ["in-session"]


# ------------------------------------------------------------ the session key


def test_captured_in_session_delivery_opens_for_its_round_and_slot_only():
    deployment, _spy = _watched(num_users=2)
    client = next(iter(deployment.clients.values()))
    blinder = deployment.blinder_provisioner
    for round_id in (2, 3):
        blinder.open_round(round_id, 2, len(deployment.features))
    delivery = blinder.provision_mask(client.mask_session, None, None, 2, 0)

    def install(round_id, slot):
        record = blinder.round_commitments(round_id).record_for(slot)
        client.glimmer.ecall(
            "install_blinding_mask", round_id, slot, delivery, record, ring_width(2)
        )

    for round_id, slot in ((3, 0), (2, 1)):
        with pytest.raises(AuthenticationError):
            install(round_id, slot)
    install(2, 0)
    assert client.glimmer.ecall("has_mask", 2, 0)


def test_session_lapses_after_its_delivery_bound():
    deployment = Deployment.build(
        num_users=1, seed=b"mask-sessions", provision_clients=False
    )
    client = deployment.make_client(deployment.corpus.users[0].user_id)
    blinder = deployment.blinder_provisioner
    sessions = blinder.sessions
    handles = []
    for round_id in range(1, SESSION_DELIVERIES + 2):
        blinder.open_round(round_id, 1, len(deployment.features))
        client.provision_mask(blinder, round_id, 0)
        handles.append(client.mask_session)
        blinder.close_round(round_id)
        client.close_round(round_id)
    # one session served the bound, then the device showed a fresh quote
    assert len(set(handles[:SESSION_DELIVERIES])) == 1
    assert handles[-1] != handles[0]
    counters = sessions.counters()
    assert counters["full_verifications"] == 2
    assert counters["resumed"] == SESSION_DELIVERIES - 1
    assert counters["resume_rejected"] == 1
    with pytest.raises(AttestationError, match="no such session"):
        sessions.session_key(handles[0], deployment.image.mrenclave)


# ------------------------------------------------------ one table, many tenants


def test_tenants_sharing_one_blinder_ride_their_sessions():
    """Tenants built from one seed share platform ids and one blinder; the
    table is keyed by handle, so every device keeps its own session and
    the second iteration makes no full delivery at all."""
    service = GlimmerService(MemoryBackend(), num_users=3, max_features=8)
    spies = {}
    for tenant in ("a", "b"):
        runtime = service.add_tenant(tenant)
        spies[tenant] = EavesdropAdversary()
        runtime.deployment.network.interpose(spies[tenant])
    users = [
        user.user_id for user in service.tenant("a").deployment.corpus.users
    ]
    sessions = service.shared_blinder.sessions
    for iteration in (1, 2):
        for spy in spies.values():
            spy.captured.clear()
        resumed = sessions.resumed
        for tenant in spies:
            for user in users:
                service.submit_honest(tenant, user)
        reports = service.run_pending_sync()
        assert len(reports) == 2
        full = [
            message
            for spy in spies.values()
            for message in spy.captured
            if message.kind == m.KIND_MASK_REQUEST
            and message.payload.quote is not None
        ]
        if iteration == 1:
            assert len(full) == 2 * len(users)
        else:
            assert full == []
            assert sessions.resumed - resumed == 2 * len(users)
    service.close()


def test_a_full_delivery_carries_no_nonce_commitment():
    """The Glimmer verifies a full delivery's handshake signature on its
    own, never in a batch, so the signature's nonce commitment (a batching
    hint) stays with the blinder: every full delivery a round puts on the
    bus decodes without one, and every device still installs its mask."""
    deployment = Deployment.build(num_users=NUM_USERS, seed=b"mask-sessions")
    spy = EavesdropAdversary()
    deployment.network.interpose(spy)
    deployment.honest_round(1)
    full = [
        codec.decode(codec.encode(delivery), KeyDelivery)
        for delivery in spy.captured_payloads(m.KIND_MASK_REQUEST + REPLY_SUFFIX)
        if delivery.handshake_signature is not None
    ]
    assert len(full) == NUM_USERS
    assert all(d.handshake_signature.commitment is None for d in full)
    assert set(deployment.last_report.outcomes.values()) == {OUTCOME_ACCEPTED}
    _judged_exact(deployment)
