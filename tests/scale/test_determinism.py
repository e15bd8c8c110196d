"""Same-seed determinism: the parallel pipeline is a pure topology choice.

A deployment built from one seed must produce byte-identical rounds no
matter how many worker processes or aggregation shards it is split
across.  The sweep compares each (workers, shards) point against a
single serial baseline on the raw material — per-slot mask openings,
the blinded ring vectors that were actually accepted, the commitment
Merkle root, and the decoded aggregate — not just on summary numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import Deployment
from repro.scale import ScaleConfig

SEED = b"scale-determinism"
NUM_USERS = 6


def _capture_at_open(deployment):
    """Record each round's commitments and masks as the blinder publishes them.

    The blinder forgets both when the round closes, so the fingerprint's
    raw mask material is taken at open, on either path, by wrapping the
    provisioner's ``open_round`` (an instance attribute, so the parallel
    eligibility gate still sees a stock ``BlinderProvisioner``).
    """
    provisioner = deployment.engine.blinder_provisioner
    publish = provisioner.open_round
    opened = {}

    def open_round(round_id, *args, **kwargs):
        commitments = publish(round_id, *args, **kwargs)
        opened[round_id] = (
            commitments,
            [
                provisioner.mask_opening(round_id, slot).mask
                for slot in range(commitments.num_slots)
            ],
        )
        return commitments

    provisioner.open_round = open_round
    return opened


def _run_round(workers, shards, round_id=1):
    parallelism = (
        ScaleConfig(workers=workers, shards=shards, chunk_size=2) if workers else None
    )
    deployment = Deployment.build(
        num_users=NUM_USERS, seed=SEED, parallelism=parallelism
    )
    opened = _capture_at_open(deployment)
    users = [u.user_id for u in deployment.corpus.users]
    vectors = deployment.local_vectors()
    with deployment.engine as engine:
        report = engine.run_round(
            round_id, users, vectors, deployment.features.bigrams
        )
    return opened, report


def _fingerprint(opened, report, round_id=1):
    commitments, masks = opened[round_id]
    assert len(masks) == len(report.participants)
    return {
        "aggregate": report.aggregate.tobytes(),
        "blinded": [c.ring_payload for c in report.service_result.accepted],
        "nonces": [c.nonce for c in report.service_result.accepted],
        "root": commitments.root(),
        "hash_commitments": commitments.hash_commitments,
        "masks": masks,
        "outcomes": report.outcomes,
        "ecalls": report.ecalls,
    }


@pytest.fixture(scope="module")
def serial_fingerprint():
    return _fingerprint(*_run_round(workers=0, shards=1))


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("shards", [1, 3, 8])
def test_parallel_round_is_byte_identical_to_serial(
    workers, shards, serial_fingerprint
):
    assert (
        _fingerprint(*_run_round(workers=workers, shards=shards))
        == serial_fingerprint
    )


def test_parallel_is_self_deterministic_across_repeat_builds():
    first = _fingerprint(*_run_round(workers=2, shards=3))
    second = _fingerprint(*_run_round(workers=2, shards=3))
    assert first == second


def test_multi_round_drbg_state_stays_in_lockstep():
    """Round 2 draws from DRBG state advanced by round 1 on both paths."""

    def two_rounds(workers, shards):
        parallelism = (
            ScaleConfig(workers=workers, shards=shards, chunk_size=3)
            if workers
            else None
        )
        deployment = Deployment.build(
            num_users=NUM_USERS, seed=SEED, parallelism=parallelism
        )
        opened = _capture_at_open(deployment)
        users = [u.user_id for u in deployment.corpus.users]
        vectors = deployment.local_vectors()
        with deployment.engine as engine:
            reports = [
                engine.run_round(
                    round_id, users, vectors, deployment.features.bigrams
                )
                for round_id in (1, 2)
            ]
        return [
            _fingerprint(opened, report, round_id)
            for round_id, report in zip((1, 2), reports)
        ]

    serial = two_rounds(workers=0, shards=1)
    parallel = two_rounds(workers=2, shards=3)
    assert parallel == serial


def test_serial_fallback_when_parallelism_disabled():
    """workers=0 in the config means the serial path, not an error."""
    deployment = Deployment.build(
        num_users=4, seed=SEED, parallelism=ScaleConfig(workers=0)
    )
    users = [u.user_id for u in deployment.corpus.users]
    vectors = deployment.local_vectors()
    report = deployment.engine.run_round(
        1, users, vectors, deployment.features.bigrams
    )
    assert report.aggregate is not None
    twin = Deployment.build(num_users=4, seed=SEED)
    twin_report = twin.engine.run_round(
        1, users, twin.local_vectors(), twin.features.bigrams
    )
    assert np.array_equal(report.aggregate, twin_report.aggregate)
    assert report.messages_sent == twin_report.messages_sent
