"""Crash-recovery semantics: checkpoints, failover, reconciliation, backoff."""

import numpy as np
import pytest

from repro.core.glimmer import pack_features
from repro.crypto.drbg import HmacDrbg
from repro.errors import NetworkError, RoundAbortedError
from repro.experiments.common import Deployment
from repro.faults import (
    SITE_BLINDER,
    SITE_CLIENT_POST_SIGN,
    SITE_CLIENT_PRE_SIGN,
    SITE_RESPONSE,
    SITE_SEAL_LOSS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.invariants import exact_mean
from repro.network.adversary import DropAdversary
from repro.network.transport import Network
from repro.runtime.engine import RoundEngine, _RoundRecord
from repro.runtime.messages import KIND_QUERY_SUBMISSION, KIND_SUBMIT
from repro.runtime.telemetry import OUTCOME_ACCEPTED, OUTCOME_CRASHED


@pytest.fixture
def deployment():
    return Deployment.build(
        num_users=4, seed=b"recovery-tests", sentences_per_user=12
    )


def _cohort(deployment):
    user_ids = [user.user_id for user in deployment.corpus.users]
    return user_ids, deployment.local_vectors()


def _inject(deployment, *specs):
    injector = FaultInjector(
        FaultPlan(specs=tuple(specs)), seed=b"recovery-injector"
    )
    deployment.enable_faults(injector)
    return injector


# ------------------------------------------------------------ client crashes


def test_pre_sign_crash_recovers_from_checkpoint_and_contributes(deployment):
    user_ids, vectors = _cohort(deployment)
    victim = user_ids[1]
    _inject(
        deployment, FaultSpec(site=SITE_CLIENT_PRE_SIGN, target=victim, round_id=1)
    )
    report = deployment.engine.run_round(
        1, user_ids, vectors, deployment.features.bigrams
    )
    # The enclave died before signing; a restart restored the sealed
    # round checkpoint (mask unused, counter unchanged) and the retried
    # contribution went through — everyone counts, nothing repaired.
    assert report.outcomes[victim] == OUTCOME_ACCEPTED
    assert report.client_restarts == 1
    assert report.masks_repaired == 0
    assert np.array_equal(
        np.asarray(report.aggregate), exact_mean(deployment.codec, vectors, user_ids)
    )


def test_post_sign_crash_cannot_double_submit(deployment):
    user_ids, vectors = _cohort(deployment)
    victim = user_ids[2]
    _inject(
        deployment, FaultSpec(site=SITE_CLIENT_POST_SIGN, target=victim, round_id=1)
    )
    report = deployment.engine.run_round(
        1, user_ids, vectors, deployment.features.bigrams
    )
    # The Glimmer signed (advancing the per-round monotonic counter) and
    # the mask was consumed in-enclave, but nothing reached the service.
    # The restarted enclave must refuse the now-stale checkpoint —
    # restoring it would resurrect a consumed mask and allow a second
    # signed submission for the same slot.  The slot is repaired by
    # reveal instead, and the aggregate is exact over the others.
    survivors = [u for u in user_ids if u != victim]
    assert report.outcomes[victim] == OUTCOME_CRASHED
    assert report.masks_repaired == 1
    assert report.num_contributions == len(survivors)
    assert np.array_equal(
        np.asarray(report.aggregate), exact_mean(deployment.codec, vectors, survivors)
    )


def test_post_sign_crash_restart_refuses_stale_checkpoint(deployment):
    """The rollback check, observed directly at the client."""
    user_ids, vectors = _cohort(deployment)
    victim_id = user_ids[0]
    victim = deployment.clients[victim_id]
    deployment.engine.open_round(1, len(user_ids), len(deployment.features))
    for index, user_id in enumerate(user_ids):
        deployment.engine.provision_mask(user_id, 1, index)
    # Sign (consumes the mask, bumps the signing counter), then crash
    # before submitting anything.
    victim.contribute(1, list(vectors[victim_id]), pack_features(deployment.features.bigrams))
    victim.crash()
    assert victim.crashed
    restored = victim.restart()
    assert restored == []  # stale checkpoint refused: counter moved on
    assert not victim.crashed


def test_seal_loss_degrades_to_reveal_repair(deployment):
    user_ids, vectors = _cohort(deployment)
    victim = user_ids[0]
    _inject(
        deployment,
        FaultSpec(site=SITE_CLIENT_PRE_SIGN, target=victim, round_id=1),
        FaultSpec(site=SITE_SEAL_LOSS, target=victim, round_id=1),
    )
    report = deployment.engine.run_round(
        1, user_ids, vectors, deployment.features.bigrams
    )
    # The crash was recoverable in principle, but the host lost the
    # sealed checkpoint during restart: the client cannot rejoin the
    # round, and its slot is repaired by reveal.
    survivors = [u for u in user_ids if u != victim]
    assert report.outcomes[victim] == OUTCOME_CRASHED
    assert report.masks_repaired == 1
    assert np.array_equal(
        np.asarray(report.aggregate), exact_mean(deployment.codec, vectors, survivors)
    )


# ------------------------------------------------------------ blinder failover


def test_blinder_crash_and_restart_still_reveals_masks(deployment):
    user_ids, vectors = _cohort(deployment)
    provisioner = deployment.blinder_provisioner
    deployment.engine.open_round(1, len(user_ids), len(deployment.features))
    for index, user_id in enumerate(user_ids):
        deployment.engine.provision_mask(user_id, 1, index)
    provisioner.crash()
    assert not provisioner.has_round(1)
    recovered = provisioner.restart()
    assert 1 in recovered
    # Only some clients contribute; the restarted blinder must reveal the
    # silent parties' masks from its unsealed round state.
    contributors = user_ids[:2]
    for user_id in contributors:
        deployment.engine.contribute(
            user_id, 1, list(vectors[user_id]), deployment.features.bigrams
        )
    report = deployment.engine.finalize_round(1)
    assert report.masks_repaired == len(user_ids) - len(contributors)
    assert np.array_equal(
        np.asarray(report.aggregate),
        exact_mean(deployment.codec, vectors, contributors),
    )


def test_scheduled_blinder_crash_at_finalize_boundary(deployment):
    user_ids, vectors = _cohort(deployment)
    _inject(deployment, FaultSpec(site=SITE_BLINDER, phase="finalize"))
    report = deployment.engine.run_round(
        1,
        user_ids,
        vectors,
        deployment.features.bigrams,
        collect_dropouts=user_ids[:1],
    )
    assert deployment.blinder_provisioner.restarts == 1
    survivors = user_ids[1:]
    assert report.masks_repaired == 1
    assert np.array_equal(
        np.asarray(report.aggregate), exact_mean(deployment.codec, vectors, survivors)
    )


# -------------------------------------------------------------- reconciliation


def test_lost_submit_response_is_reconciled_not_double_counted(deployment):
    user_ids, vectors = _cohort(deployment)
    # Drop exactly the first submit response: the service accepted the
    # contribution but the client never learned it.
    _inject(deployment, FaultSpec(site=SITE_RESPONSE, kind=KIND_SUBMIT))
    report = deployment.engine.run_round(
        1, user_ids, vectors, deployment.features.bigrams
    )
    assert report.retries >= 1
    assert report.masks_repaired == 0
    assert report.num_contributions == len(user_ids)
    assert np.array_equal(
        np.asarray(report.aggregate), exact_mean(deployment.codec, vectors, user_ids)
    )


def test_unreconcilable_submission_aborts_round(deployment):
    user_ids, vectors = _cohort(deployment)
    engine = deployment.engine
    # Every submit response AND every reconciliation-query response is
    # lost: the fate of the first user's submission is unknowable.
    specs = [
        FaultSpec(site=SITE_RESPONSE, kind=KIND_SUBMIT, at_hit=1)
        for _ in range(engine.max_attempts)
    ] + [
        FaultSpec(site=SITE_RESPONSE, kind=KIND_QUERY_SUBMISSION, at_hit=1)
        for _ in range(engine.max_attempts)
    ]
    _inject(deployment, *specs)
    with pytest.raises(RoundAbortedError, match="reconciled") as excinfo:
        engine.run_round(1, user_ids[:1], vectors, deployment.features.bigrams)
    report = excinfo.value.report
    assert report.aborted
    assert report.aggregate is None
    assert report.phases  # window closed into the report
    engine.abandon_round(1)


def test_abort_keeps_partial_report_in_telemetry(deployment):
    user_ids, vectors = _cohort(deployment)
    deployment.network.interpose(DropAdversary(drop_kinds={KIND_SUBMIT}))
    with pytest.raises(RoundAbortedError) as excinfo:
        deployment.engine.run_round(
            1, user_ids, vectors, deployment.features.bigrams
        )
    report = excinfo.value.report
    assert report.aborted and report.abort_reason
    assert report.participants == tuple(user_ids)
    assert report.messages_sent > 0
    assert [p.name for p in report.phases] == ["open", "provision", "collect"]
    payload = report.as_dict()
    assert payload["aborted"] is True
    assert payload["aggregate"] is None


# ------------------------------------------------------------------- backoff


def test_backoff_is_capped_and_jittered():
    network = Network(seed=b"backoff-net")
    network.register("svc", {"echo": lambda m: m.payload})
    network.register("eng", {})
    network.interpose(DropAdversary(drop_rate=1.0))
    engine_net = network  # all attempts drop: 4 backoffs at 8,16,16,16
    engine = RoundEngine.__new__(RoundEngine)
    engine.network = engine_net
    engine.max_attempts = 5
    engine.backoff_ms = 8.0
    engine.max_backoff_ms = 16.0
    engine._retry_rng = HmacDrbg(b"jitter-seed", personalization="retry-jitter")
    record = _RoundRecord(network, 1, 0, True)
    start = network.clock.now_ms()
    with pytest.raises(NetworkError):
        engine.call_with_retry(record, "eng", "svc", "echo", b"x")
    waited = network.clock.now_ms() - start
    assert record.retries == 4
    # Deterministic bounds: each wait is delay + jitter in [0, delay).
    assert 56.0 <= waited < 112.0


def test_backoff_jitter_is_deterministic_per_seed():
    waits = []
    for _ in range(2):
        network = Network(seed=b"backoff-net")
        network.register("svc", {"echo": lambda m: m.payload})
        network.register("eng", {})
        network.interpose(DropAdversary(drop_rate=1.0))
        engine = RoundEngine.__new__(RoundEngine)
        engine.network = network
        engine.max_attempts = 4
        engine.backoff_ms = 8.0
        engine.max_backoff_ms = 64.0
        engine._retry_rng = HmacDrbg(b"jitter-seed", personalization="retry-jitter")
        record = _RoundRecord(network, 1, 0, True)
        with pytest.raises(NetworkError):
            engine.call_with_retry(record, "eng", "svc", "echo", b"x")
        waits.append(network.clock.now_ms())
    assert waits[0] == waits[1]
