"""Engine lifecycle edge cases: scoping, abandonment, restart boundaries."""

from __future__ import annotations

import gc

import pytest

from repro.errors import ProtocolError, RoundAbortedError
from repro.experiments.common import Deployment
from repro.runtime.messages import client_endpoint
from repro.runtime.protocol import ViolationRecord
from repro.runtime.telemetry import OUTCOME_ACCEPTED, OUTCOME_QUARANTINED
from repro.scale import ScaleConfig
from repro.scale.pool import WorkerPool


@pytest.fixture
def deployment():
    return Deployment.build(
        num_users=4, seed=b"lifecycle-tests", sentences_per_user=8
    )


def _cohort(deployment):
    return [u.user_id for u in deployment.corpus.users], deployment.local_vectors()


# ------------------------------------------------------- pool scoping


def test_context_manager_closes_the_scale_pool():
    deployment = Deployment.build(
        num_users=4,
        seed=b"lifecycle-pool",
        parallelism=ScaleConfig(workers=2, shards=1, chunk_size=8),
    )
    users, vectors = _cohort(deployment)
    with deployment.engine as engine:
        engine.run_round(1, users, vectors, deployment.features.bigrams)
        assert engine._scale_pool is not None
    assert deployment.engine._scale_pool is None
    # Exit is idempotent alongside an explicit close.
    deployment.engine.close_scale_pool()


def test_worker_pool_finalizer_fires_on_collection():
    pool = WorkerPool(1)
    finalizer = pool._finalizer
    assert finalizer.alive
    del pool
    gc.collect()
    assert not finalizer.alive, "dropped pools must shut their workers down"


def test_worker_pool_close_is_idempotent():
    pool = WorkerPool(1)
    pool.close()
    pool.close()
    assert not pool._finalizer.alive


# ------------------------------------------------------- abandonment


def test_abandon_mid_phase_closes_the_window(deployment):
    users, vectors = _cohort(deployment)
    engine = deployment.engine
    stages = engine.round_stages(1, users, vectors, deployment.features.bigrams)
    next(stages)  # "open"
    next(stages)  # "provision" — a phase window is live right now
    record = engine.round_record(1)
    assert record.window is not None or record.phases
    engine.abandon_round(1)
    with pytest.raises(ProtocolError):
        engine.round_record(1)
    # Idempotent: abandoning again (or a never-tracked id) is a no-op.
    engine.abandon_round(1)
    engine.abandon_round(99)
    # The engine is fully reusable after abandonment.
    report = engine.run_round(2, users, vectors, deployment.features.bigrams)
    assert report.num_contributions == len(users)


def test_abandon_after_abort_preserves_recorded_violations(deployment):
    users, vectors = _cohort(deployment)
    engine = deployment.engine
    with pytest.raises(RoundAbortedError) as excinfo:
        engine.run_round(
            1, users, vectors, deployment.features.bigrams, dropouts=tuple(users)
        )
    aborted = excinfo.value.report
    engine.abandon_round(1)  # double monitor close must not raise
    assert aborted.aborted and aborted.phases, "the partial report survives"


# ------------------------------------------------------- client restarts


def test_restart_client_recovers_crashed_client(deployment):
    users, vectors = _cohort(deployment)
    engine = deployment.engine
    stages = engine.round_stages(1, users, vectors, deployment.features.bigrams)
    next(stages)
    record = engine.round_record(1)
    client = deployment.clients[users[0]]
    client.crash()
    assert client.crashed
    assert engine._restart_client(record, client) is True
    assert not client.crashed
    assert record.client_restarts == 1
    engine.abandon_round(1)


def test_restart_client_without_restart_support_fails_closed(deployment):
    users, vectors = _cohort(deployment)
    engine = deployment.engine
    stages = engine.round_stages(1, users, vectors, deployment.features.bigrams)
    next(stages)
    record = engine.round_record(1)

    class Exploding:
        def restart(self):
            raise RuntimeError("sealed state corrupt")

    assert engine._restart_client(record, Exploding()) is False
    assert record.client_restarts == 0
    engine.abandon_round(1)


def test_quarantined_client_sits_out_the_next_round(deployment):
    users, vectors = _cohort(deployment)
    engine = deployment.engine
    offender = users[1]
    engine.quarantine.block(
        ViolationRecord(
            offender=client_endpoint(offender),
            kind="equivocation",
            round_id=0,
        )
    )
    report = engine.run_round(1, users, vectors, deployment.features.bigrams)
    assert report.outcomes[offender] == OUTCOME_QUARANTINED
    others = [u for u in users if u != offender]
    assert all(report.outcomes[u] == OUTCOME_ACCEPTED for u in others)
    assert report.num_contributions == len(others)
    # A pardon restores full participation.
    assert engine.quarantine.pardon(client_endpoint(offender)) is True
    report2 = engine.run_round(2, users, vectors, deployment.features.bigrams)
    assert report2.outcomes[offender] == OUTCOME_ACCEPTED
