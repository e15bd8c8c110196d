"""Tests for the measured differential-privacy extension (dp_sigma)."""

import numpy as np
import pytest

from repro.analysis.privacy import gaussian_epsilon
from repro.core.glimmer import GlimmerConfig, pack_features
from repro.crypto.fixedpoint import ring_width
from repro.errors import ConfigurationError
from repro.experiments.common import Deployment
from tests.core.conftest import unblinded


def test_dp_sigma_part_of_measurement():
    """DP parameters are vetted identity: changing sigma changes MRENCLAVE."""
    a = Deployment.build(num_users=1, seed=b"dp-a", dp_sigma=0.0)
    b = Deployment.build(num_users=1, seed=b"dp-a", dp_sigma=0.5)
    assert a.image.mrenclave != b.image.mrenclave


def test_dp_sigma_roundtrips_through_config():
    deployment = Deployment.build(num_users=1, seed=b"dp-rt", dp_sigma=0.25)
    config = GlimmerConfig.decode(deployment.image.config)
    assert config.dp_sigma == 0.25


def test_zero_sigma_is_noiseless():
    deployment = Deployment.build(num_users=3, seed=b"dp-zero", dp_sigma=0.0)
    user_ids = [u.user_id for u in deployment.corpus.users]
    deployment.open_round(1, user_ids)
    vectors = deployment.local_vectors()
    for user_id in user_ids:
        deployment.service.submit(
            1,
            deployment.clients[user_id].contribute(
                1, list(vectors[user_id]), pack_features(deployment.features.bigrams)
            ),
            deployment.clients[user_id].party_index_for(1),
        )
    aggregate = deployment.service.finalize_blinded_round(1).aggregate
    truth = np.mean(np.stack([vectors[u] for u in user_ids]), axis=0)
    assert float(np.max(np.abs(aggregate - truth))) < 1e-3


def test_noise_perturbs_aggregate_proportionally():
    def aggregate_error(sigma):
        deployment = Deployment.build(
            num_users=4, seed=b"dp-noise", dp_sigma=sigma
        )
        user_ids = [u.user_id for u in deployment.corpus.users]
        deployment.open_round(1, user_ids)
        vectors = deployment.local_vectors()
        for user_id in user_ids:
            deployment.service.submit(
                1,
                deployment.clients[user_id].contribute(
                    1, list(vectors[user_id]), pack_features(deployment.features.bigrams)
                ),
                deployment.clients[user_id].party_index_for(1),
            )
        aggregate = deployment.service.finalize_blinded_round(1).aggregate
        truth = np.mean(np.stack([vectors[u] for u in user_ids]), axis=0)
        return float(np.mean(np.abs(aggregate - truth)))

    small = aggregate_error(0.05)
    large = aggregate_error(2.0)
    assert 0 < small < large


def test_noise_is_enclave_private():
    """The signed payload differs from blind(x): the host never learns the
    noise, so it cannot subtract it."""
    deployment = Deployment.build(num_users=1, seed=b"dp-priv", dp_sigma=1.0)
    user_id = deployment.corpus.users[0].user_id
    deployment.open_round(1, [user_id])
    vector = list(deployment.local_vectors()[user_id])
    signed = deployment.clients[user_id].contribute(
        1, vector, pack_features(deployment.features.bigrams)
    )
    mask = deployment.blinder_provisioner.reveal_dropout_mask(1, 0)
    # Gaussian noise holds no value to the range: the words keep the width
    # the codec's own bound needs.
    width = deployment.engine.round_record(1).width
    assert width == ring_width(1)
    noised = deployment.codec.decode(unblinded(signed.ring_payload, mask.mask, width))
    # What comes out is x + noise, not x.
    assert float(np.max(np.abs(np.array(noised) - np.array(vector)))) > 0.01


def test_validation_runs_on_raw_values_not_noised():
    """The predicate judges the user's true values; noise must not mask a 538."""
    from repro.errors import ValidationError

    deployment = Deployment.build(num_users=1, seed=b"dp-val", dp_sigma=1.0)
    user_id = deployment.corpus.users[0].user_id
    deployment.open_round(1, [user_id])
    bad = [538.0] + [0.0] * (len(deployment.features) - 1)
    with pytest.raises(ValidationError):
        deployment.clients[user_id].contribute(1, bad, pack_features(deployment.features.bigrams))


def test_gaussian_epsilon_calibration():
    assert gaussian_epsilon(1.0, 0.0) == float("inf")
    assert gaussian_epsilon(1.0, 1.0) == pytest.approx(4.8413, rel=1e-3)
    # epsilon scales linearly with sensitivity, inversely with sigma
    assert gaussian_epsilon(2.0, 1.0) == pytest.approx(
        2 * gaussian_epsilon(1.0, 1.0)
    )
    assert gaussian_epsilon(1.0, 2.0) == pytest.approx(
        gaussian_epsilon(1.0, 1.0) / 2
    )


def test_gaussian_epsilon_validations():
    with pytest.raises(ConfigurationError):
        gaussian_epsilon(-1.0, 1.0)
    with pytest.raises(ConfigurationError):
        gaussian_epsilon(1.0, -1.0)
    with pytest.raises(ConfigurationError):
        gaussian_epsilon(1.0, 1.0, delta=0.0)


def test_drbg_gauss_statistics():
    from repro.crypto.drbg import HmacDrbg

    rng = HmacDrbg(b"gauss")
    samples = [rng.gauss(0.0, 2.0) for __ in range(2000)]
    mean = sum(samples) / len(samples)
    variance = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
    assert abs(mean) < 0.2
    assert 3.0 < variance < 5.0
