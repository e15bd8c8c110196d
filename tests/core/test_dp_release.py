"""Tests for the measured differential-privacy extension (dp_sigma)."""

import math

import numpy as np
import pytest

from repro.analysis.privacy import gaussian_epsilon
from repro.core.glimmer import GlimmerConfig, pack_features
from repro.crypto.fixedpoint import ring_width
from repro.errors import ConfigurationError
from repro.experiments.common import Deployment
from repro.experiments.e14_dp_release import release_epsilon
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
    noised = deployment.codec.decode(unblinded(signed.ring_payload, mask.share.row(), width))
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
    assert gaussian_epsilon(0.0, 1.0) == 0.0
    # The exact level at Δ = σ = 1, δ = 1e-5 (Balle and Wang 2018); the
    # classic calibration reads 4.8413 there.
    assert gaussian_epsilon(1.0, 1.0) == pytest.approx(4.3772, rel=1e-4)
    # epsilon grows with sensitivity and shrinks with sigma, but not
    # linearly: it depends on them only through their ratio.
    assert gaussian_epsilon(2.0, 1.0) > 2 * gaussian_epsilon(1.0, 1.0)
    assert gaussian_epsilon(1.0, 2.0) < gaussian_epsilon(1.0, 1.0) / 2


@pytest.mark.parametrize(
    "sigma, epsilon",
    [(0.05, 1775.7285), (0.2, 154.55184), (1.0, 15.081859), (5.0, 2.2398548)],
)
def test_gaussian_epsilon_at_e14s_rows(sigma, epsilon):
    """E14's release: ten users' means over k = 77 weights in [0, 1], so
    Δ = √77/10, and per-client noise σ gives σ/√10 on the aggregate."""
    exact = gaussian_epsilon(math.sqrt(77) / 10, sigma / math.sqrt(10))
    assert exact == pytest.approx(epsilon, rel=1e-6)


def test_e14_epsilon_follows_the_contributions_counted():
    """Two of ten users drop: the released mean is over eight, so Δ = √k/8
    and its noise σ/√8, not √k/10 and σ/√10."""
    deployment = Deployment.build(num_users=10, seed=b"dp-counted", dp_sigma=1.0)
    users = [user.user_id for user in deployment.corpus.users]
    report = deployment.engine.run_round(
        1,
        users,
        deployment.local_vectors(),
        deployment.features.bigrams,
        dropouts=users[:2],
        recovery_threshold=0.5,
    )
    assert report.num_contributions == 8
    k = len(deployment.features)
    epsilon = release_epsilon(report, k, 1.0)
    assert epsilon == gaussian_epsilon(math.sqrt(k) / 8, 1.0 / math.sqrt(8))
    assert epsilon > gaussian_epsilon(math.sqrt(k) / 10, 1.0 / math.sqrt(10))


@pytest.mark.parametrize("ratio", [0.01, 0.3, 1.0, 4.0, 60.0])
def test_gaussian_epsilon_depends_only_on_the_ratio(ratio):
    for scale in (0.001, 1.0, 250.0):
        assert gaussian_epsilon(ratio * scale, scale) == pytest.approx(
            gaussian_epsilon(ratio, 1.0), rel=1e-9
        )


def test_gaussian_epsilon_never_exceeds_the_classic_bound_below_one():
    """Where the classic calibration is a guarantee (below 1), the exact
    level is below it: about three quarters of it, 0.7503 at 0.99."""
    factor = math.sqrt(2.0 * math.log(1.25 / 1e-5))
    for step in range(1, 100):
        classic = step / 100
        assert gaussian_epsilon(classic / factor, 1.0) < 0.76 * classic


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
