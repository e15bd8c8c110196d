"""Tests for the error hierarchy, the LocalDataStore, and Deployment glue."""

import numpy as np
import pytest

from repro import __version__, codec
from repro.core.client import LocalDataStore
from repro.core.glimmer import features_digest, pack_features
from repro.core.validation import PrivateContext
from repro.errors import (
    AttestationError,
    AuditError,
    AuthenticationError,
    ConfigurationError,
    CryptoError,
    EnclaveError,
    NetworkError,
    ProtocolError,
    ReproError,
    SealingError,
    ValidationError,
)
from repro.experiments.common import Deployment
from repro.invariants import OUTCOME_CLEAN, judge
from repro.workloads.geo import PhotoSubmission
from repro.workloads.reviews import UserShoppingContext


def test_version_string():
    assert __version__.count(".") == 2


def test_every_error_derives_from_repro_error():
    for error_class in (
        CryptoError, AuthenticationError, ProtocolError, EnclaveError,
        AttestationError, SealingError, ValidationError, AuditError,
        NetworkError, ConfigurationError,
    ):
        assert issubclass(error_class, ReproError)


def test_error_specializations():
    assert issubclass(AuthenticationError, CryptoError)
    assert issubclass(AttestationError, EnclaveError)
    assert issubclass(SealingError, EnclaveError)


def test_catching_base_catches_all():
    with pytest.raises(ReproError):
        raise AttestationError("boom")


# ----------------------------------------------------------- LocalDataStore

PHOTO = PhotoSubmission("p", "u", 1.0, 2.0, 3.0, b"\x01" * 8, False)


def test_datastore_serves_only_requested_fields():
    store = LocalDataStore(
        PrivateContext(
            sentences=[["a", "b"]],
            submission=PHOTO,
            shopping_context=UserShoppingContext("u", []),
        )
    )
    context = store.context_for(("sentences",))
    assert context.sentences == [["a", "b"]]
    assert context.submission is None  # not requested, not served
    assert context.shopping_context is None


def test_datastore_serves_a_new_record():
    """The answer is a record of its own: rebinding one of its fields
    leaves the device's private data as it was."""
    store = LocalDataStore(PrivateContext(submission=PHOTO))
    context = store.context_for(("submission",))
    assert context == store.private and context is not store.private
    context.submission = None
    assert store.private.submission == PHOTO


def test_datastore_ignores_unknown_fields():
    store = LocalDataStore()
    context = store.context_for(("no_such_field",))
    assert context.sentences is None


# --------------------------------------------------------------- Deployment

@pytest.fixture(scope="module")
def deployment():
    return Deployment.build(num_users=3, seed=b"deployment-glue", sentences_per_user=10)


def test_deployment_provisions_all_clients(deployment):
    assert set(deployment.clients) == {u.user_id for u in deployment.corpus.users}
    values = [0.5] * len(deployment.features)
    for client in deployment.clients.values():
        signed = client.contribute(
            99, values, pack_features(deployment.features.bigrams), blind=False
        )
        deployment.signing_keypair.public_key.verify(signed.signed_bytes(), signed.signature)


def test_deployment_vetting_matches_image(deployment):
    from repro.experiments.common import GLIMMER_NAME

    assert (
        deployment.registry.approved_measurement(GLIMMER_NAME)
        == deployment.image.mrenclave
    )


def test_deployment_honest_round_matches_local_mean(deployment):
    aggregate = deployment.honest_round(7)
    vectors = deployment.local_vectors()
    expected = np.mean(np.stack(list(vectors.values())), axis=0)
    assert np.allclose(aggregate, expected, atol=1e-3)


def test_deployment_deterministic():
    a = Deployment.build(num_users=2, seed=b"same-seed", sentences_per_user=8)
    b = Deployment.build(num_users=2, seed=b"same-seed", sentences_per_user=8)
    assert a.image.mrenclave == b.image.mrenclave
    assert a.corpus.streams == b.corpus.streams


def test_deployment_different_seeds_differ():
    a = Deployment.build(num_users=2, seed=b"seed-a", sentences_per_user=8)
    b = Deployment.build(num_users=2, seed=b"seed-b", sentences_per_user=8)
    assert a.corpus.streams != b.corpus.streams


# ------------------------------------------------ a published feature list

SENSOR_FEATURES = tuple((f"sensor-{i}", "reading") for i in range(6))


def _sensor_deployment() -> Deployment:
    return Deployment.build(
        num_users=2, seed=b"feature-list", sentences_per_user=4,
        provision_clients=False, features=SENSOR_FEATURES,
    )


def test_a_given_feature_list_is_what_the_glimmer_measures():
    deployment = _sensor_deployment()
    assert deployment.features.bigrams == SENSOR_FEATURES
    config = codec.decode(deployment.image.config)
    assert config.features_digest == features_digest(SENSOR_FEATURES)


def test_an_honest_round_over_a_given_feature_list_is_exact():
    deployment = _sensor_deployment()
    users = ["meter-0", "meter-1", "meter-2"]
    for user in users:
        deployment.make_client(user, data=LocalDataStore())
    vectors = {
        user: np.array([(index + j) % 5 / 4 for j in range(len(SENSOR_FEATURES))])
        for index, user in enumerate(users)
    }
    report = deployment.engine.run_round(1, users, vectors, SENSOR_FEATURES)
    assert judge(report, deployment.codec, vectors).outcome == OUTCOME_CLEAN


def test_two_default_builds_run_the_same_first_round():
    first, second = Deployment.build(), Deployment.build()
    assert np.array_equal(first.honest_round(1), second.honest_round(1))
    assert first.last_report.bytes_on_wire == second.last_report.bytes_on_wire
