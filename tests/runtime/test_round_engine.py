"""Unit tests for the RoundEngine: lifecycle, dropout, drops, telemetry."""

import json

import numpy as np
import pytest

from repro.crypto.drbg import HmacDrbg
from repro.errors import NetworkError, ProtocolError, RoundAbortedError
from repro.experiments.common import Deployment
from repro.network.adversary import DropAdversary
from repro.runtime.messages import KIND_SUBMIT
from repro.runtime.telemetry import (
    OUTCOME_ACCEPTED,
    OUTCOME_DROPOUT,
    OUTCOME_SUBMIT_FAILED,
)


@pytest.fixture
def deployment():
    return Deployment.build(num_users=5, seed=b"runtime-tests", sentences_per_user=15)


def _cohort(deployment):
    user_ids = [user.user_id for user in deployment.corpus.users]
    return user_ids, deployment.local_vectors()


def test_clean_round_is_exact_with_full_telemetry(deployment):
    user_ids, vectors = _cohort(deployment)
    before_delivered = deployment.network.messages_delivered
    report = deployment.engine.run_round(
        1, user_ids, vectors, deployment.features.bigrams
    )
    truth = np.mean(np.stack([vectors[u] for u in user_ids]), axis=0)
    assert float(np.max(np.abs(report.aggregate - truth))) < 1e-3

    # Outcomes: everyone accepted, nothing repaired.
    assert set(report.outcomes.values()) == {OUTCOME_ACCEPTED}
    assert report.survivors == tuple(user_ids)
    assert report.masks_repaired == 0
    assert report.num_contributions == len(user_ids)

    # Transport counters match the network's own accounting.
    delivered = deployment.network.messages_delivered - before_delivered
    assert report.messages_sent == delivered
    assert report.messages_dropped == 0
    assert report.retries == 0
    assert report.bytes_on_wire > 0
    assert report.latency_ms > 0

    # Enclave counters: 2 ecalls to provision + 1 to contribute, per client.
    assert report.ecalls == 3 * len(user_ids)
    assert report.enclave_transition_cycles > 0

    # Phases cover the whole lifecycle.
    assert [phase.name for phase in report.phases] == [
        "open", "provision", "collect", "finalize",
    ]
    assert sum(phase.messages for phase in report.phases) == report.messages_sent

    # Round 2 rides the sessions round 1 opened: no begin_handshake, so
    # 1 ecall to install the mask + 1 to contribute, per client.
    second = deployment.engine.run_round(
        2, user_ids, vectors, deployment.features.bigrams
    )
    assert second.ecalls == 2 * len(user_ids)
    assert second.handshakes_resumed == len(user_ids)


def test_dropout_below_threshold_repairs_and_stays_exact(deployment):
    user_ids, vectors = _cohort(deployment)
    dropouts = user_ids[:2]
    report = deployment.engine.run_round(
        1,
        user_ids,
        vectors,
        deployment.features.bigrams,
        dropouts=dropouts,
        recovery_threshold=0.5,
    )
    survivors = user_ids[2:]
    truth = np.mean(np.stack([vectors[u] for u in survivors]), axis=0)
    assert float(np.max(np.abs(report.aggregate - truth))) < 1e-3
    assert report.masks_repaired == len(dropouts)
    assert report.dropouts == tuple(dropouts)
    for user_id in dropouts:
        assert report.outcomes[user_id] == OUTCOME_DROPOUT


def test_dropout_above_threshold_aborts(deployment):
    user_ids, vectors = _cohort(deployment)
    with pytest.raises(RoundAbortedError):
        deployment.engine.run_round(
            1,
            user_ids,
            vectors,
            deployment.features.bigrams,
            dropouts=user_ids[:3],
            recovery_threshold=0.5,
        )


def test_transport_drops_are_retried_and_round_stays_exact(deployment):
    """The acceptance criterion: 10% drop rate + dropout, exact aggregate."""
    user_ids, vectors = _cohort(deployment)
    deployment.network.interpose(
        DropAdversary(drop_rate=0.1, rng=HmacDrbg(b"runtime-drops"))
    )
    dropouts = user_ids[:1]
    report = deployment.engine.run_round(
        1, user_ids, vectors, deployment.features.bigrams, dropouts=dropouts
    )
    survivors = [u for u in user_ids if u not in dropouts]
    truth = np.mean(np.stack([vectors[u] for u in survivors]), axis=0)
    assert float(np.max(np.abs(report.aggregate - truth))) < 1e-3
    assert report.messages_dropped > 0
    # Dropped *retried* calls each show up as a retry; best-effort sends
    # (round-close notifications) are dropped without retry by design, so
    # no fixed ordering between the two counters is guaranteed.
    assert report.retries > 0
    assert report.survivors == tuple(survivors)


def test_retry_exhaustion_raises_network_error(deployment):
    deployment.network.interpose(DropAdversary(drop_rate=1.0))
    with pytest.raises(NetworkError):
        deployment.engine.open_round(1, 5, len(deployment.features))


def test_lost_submissions_abort_instead_of_publishing_nothing(deployment):
    user_ids, vectors = _cohort(deployment)
    deployment.network.interpose(DropAdversary(drop_kinds={KIND_SUBMIT}))
    with pytest.raises(RoundAbortedError):
        deployment.engine.run_round(
            1, user_ids, vectors, deployment.features.bigrams
        )
    record = deployment.engine.round_record(1)
    assert set(record.outcomes.values()) == {OUTCOME_SUBMIT_FAILED}
    deployment.engine.abandon_round(1)
    with pytest.raises(ProtocolError):
        deployment.engine.round_record(1)


def test_unknown_client_is_rejected(deployment):
    deployment.engine.open_round(1, 1, len(deployment.features))
    with pytest.raises(ProtocolError):
        deployment.engine.provision_mask("nobody", 1, 0)


def test_duplicate_round_is_rejected(deployment):
    deployment.engine.open_round(1, 2, len(deployment.features))
    with pytest.raises(ProtocolError):
        deployment.engine.open_round(1, 2, len(deployment.features))


def test_report_renders_and_serializes(deployment):
    user_ids, vectors = _cohort(deployment)
    report = deployment.engine.run_round(
        1, user_ids, vectors, deployment.features.bigrams, dropouts=user_ids[:1]
    )
    rendered = report.table().render()
    assert "messages sent" in rendered
    assert "enclave transition cycles" in rendered
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["round_id"] == 1
    assert payload["masks_repaired"] == 1
    assert payload["messages_sent"] == report.messages_sent
    assert len(payload["aggregate"]) == len(deployment.features)


def test_honest_round_stores_last_report(deployment):
    user_ids, vectors = _cohort(deployment)
    aggregate = deployment.honest_round(1)
    report = deployment.last_report
    assert report is not None
    assert report.round_id == 1
    assert np.array_equal(report.aggregate, aggregate)
    assert report.messages_sent > 0
    assert report.bytes_on_wire > 0
    assert report.latency_ms > 0
    assert report.enclave_transition_cycles > 0


def test_local_vectors_are_cached_and_participant_scoped(deployment):
    user_ids = [user.user_id for user in deployment.corpus.users]
    subset = deployment.local_vectors(user_ids[:2])
    assert set(subset) == set(user_ids[:2])
    # Only the requested users were trained and cached.
    assert set(deployment._vector_cache) == set(user_ids[:2])
    cached = deployment._vector_cache[user_ids[0]]
    everyone = deployment.local_vectors()
    assert everyone[user_ids[0]] is cached
    assert set(deployment._vector_cache) == set(user_ids)
