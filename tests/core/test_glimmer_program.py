"""Tests for the Glimmer enclave program: provisioning, processing, properties."""

import pytest

from repro import invariants
from repro.core.glimmer import (
    GlimmerConfig,
    KeyDelivery,
    features_digest,
    pack_features,
)
from repro.crypto.fixedpoint import ring_width
from repro.crypto.schnorr import SchnorrKeyPair
from repro.crypto.drbg import HmacDrbg
from repro.crypto.dh import TEST_GROUP
from repro.perf import kernels
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    ProtocolError,
    ValidationError,
)
from repro.core.validation import PrivateContext
from repro.experiments.common import Deployment
from repro.runtime.telemetry import OUTCOME_CRASHED
from repro.workloads.geo import GeoWorkload, PhotoSubmission, TrackPoint, UserGeoContext
from repro.workloads.keyboard import KeyEvent, KeystrokeTrace, trace_for_sentences
from repro.workloads.reviews import Purchase, Review, ReviewWorkload, UserShoppingContext
from tests.core.conftest import unblinded


@pytest.fixture
def round_setup(fresh_deployment):
    deployment = fresh_deployment
    user_ids = [u.user_id for u in deployment.corpus.users]
    deployment.open_round(1, user_ids)
    return deployment, user_ids


def test_config_roundtrip(deployment):
    config = GlimmerConfig.decode(deployment.image.config)
    assert config.predicate_spec == "range:0.0:1.0"
    assert config.service_identity.element == deployment.service_identity.public_key.element
    assert config.features_digest == features_digest(deployment.features.bigrams)


def test_config_decode_rejects_garbage():
    with pytest.raises(ConfigurationError):
        GlimmerConfig.decode(b"nonsense")
    with pytest.raises(ConfigurationError):
        GlimmerConfig.decode(b"")


def test_config_decode_rejects_trailing_bytes(deployment):
    with pytest.raises(ConfigurationError):
        GlimmerConfig.decode(deployment.image.config + b"\x00")


def test_predicate_spec_exposed(deployment):
    client = next(iter(deployment.clients.values()))
    assert client.glimmer.ecall("predicate_name") == "range:0.0:1.0"


def test_signing_key_provisioned(deployment):
    client = next(iter(deployment.clients.values()))
    assert client.glimmer.ecall("has_signing_key")


def test_process_without_signing_key_rejected(fresh_deployment):
    from repro.core.client import ClientDevice, LocalDataStore

    client = ClientDevice(
        "unprovisioned", fresh_deployment.image, fresh_deployment.attestation,
        seed=b"unprov", data=LocalDataStore(),
    )
    with pytest.raises(ProtocolError):
        client.contribute(
            1, [0.5] * len(fresh_deployment.features),
            pack_features(fresh_deployment.features.bigrams), blind=False,
        )


def test_process_unblinded_contribution(round_setup):
    deployment, user_ids = round_setup
    client = deployment.clients[user_ids[0]]
    values = [0.5] * len(deployment.features)
    signed = client.contribute(1, values, pack_features(deployment.features.bigrams), blind=False)
    assert not signed.blinded
    assert kernels.be_doubles(signed.plain_payload).tolist() == values
    deployment.signing_keypair.public_key.verify(
        signed.signed_bytes(), signed.signature
    )


def test_process_blinded_contribution_hides_values(round_setup):
    deployment, user_ids = round_setup
    client = deployment.clients[user_ids[0]]
    values = [0.5] * len(deployment.features)
    signed = client.contribute(1, values, pack_features(deployment.features.bigrams))
    assert signed.blinded
    assert signed.plain_payload is None
    encoded = deployment.codec.encode(values)
    assert signed.ring_payload != kernels.pack_words(encoded, ring_width(len(user_ids)))
    # The mask provisioned for party 0 recovers the true values.
    mask = deployment.blinder_provisioner.reveal_dropout_mask(1, 0)
    recovered = deployment.codec.decode(
        unblinded(signed.ring_payload, mask.mask, len(user_ids))
    )
    assert list(recovered) == pytest.approx(values)


def test_blind_without_mask_rejected(round_setup):
    deployment, user_ids = round_setup
    client = deployment.clients[user_ids[0]]
    values = [0.5] * len(deployment.features)
    client.contribute(1, values, pack_features(deployment.features.bigrams))  # consumes mask
    from repro.errors import CryptoError

    with pytest.raises(CryptoError):
        client.contribute(1, values, pack_features(deployment.features.bigrams))


def test_wrong_feature_list_rejected(round_setup):
    deployment, user_ids = round_setup
    client = deployment.clients[user_ids[0]]
    forged_features = tuple(deployment.features.bigrams[:-1]) + (("evil", "pair"),)
    with pytest.raises(ValidationError):
        client.contribute(
            1, [0.5] * len(forged_features), pack_features(forged_features)
        )


def test_out_of_range_rejected_and_not_signed(round_setup):
    deployment, user_ids = round_setup
    client = deployment.clients[user_ids[0]]
    values = [538.0] + [0.0] * (len(deployment.features) - 1)
    with pytest.raises(ValidationError):
        client.contribute(1, values, pack_features(deployment.features.bigrams))
    # the round mask must NOT have been consumed by a failed validation
    assert client.glimmer.ecall("has_mask", 1)


def test_session_id_reuse_rejected(deployment):
    client = next(iter(deployment.clients.values()))
    client.glimmer.ecall("begin_handshake", b"dup-session")
    with pytest.raises(ProtocolError):
        client.glimmer.ecall("begin_handshake", b"dup-session")


def test_delivery_without_handshake_rejected(deployment):
    client = next(iter(deployment.clients.values()))
    delivery = KeyDelivery(
        session_id=b"never-started",
        peer_dh_public=4,
        handshake_signature=deployment.service_identity.sign(b"x"),
        encrypted_payload=b"\x00" * 64,
        group=TEST_GROUP,
    )
    with pytest.raises(ProtocolError):
        client.glimmer.ecall("install_signing_key", delivery)


def test_forged_handshake_signature_rejected(fresh_deployment):
    from repro.core.client import ClientDevice, LocalDataStore
    from repro.core.glimmer import handshake_digest

    deployment = fresh_deployment
    client = ClientDevice(
        "victim", deployment.image, deployment.attestation,
        seed=b"victim", data=LocalDataStore(),
    )
    session = b"mitm-session"
    glimmer_public = client.glimmer.ecall("begin_handshake", session)
    # A MITM with its own identity key tries to impersonate the service.
    mitm_identity = SchnorrKeyPair.generate(HmacDrbg(b"mitm"), TEST_GROUP)
    from repro.crypto.cipher import AuthenticatedCipher
    from repro.crypto.dh import DHKeyPair

    mitm_kp = DHKeyPair.generate(TEST_GROUP, HmacDrbg(b"mitm-dh"))
    digest = handshake_digest(
        "signing-key-provisioning", session, glimmer_public, mitm_kp.public
    )
    key = mitm_kp.derive_key(glimmer_public, "signing-key-provisioning")
    box = AuthenticatedCipher(key).encrypt(
        b"n" * 16, (123).to_bytes(256, "big"), associated_data=session
    )
    delivery = KeyDelivery(
        session_id=session,
        peer_dh_public=mitm_kp.public,
        handshake_signature=mitm_identity.sign(digest),
        encrypted_payload=box.to_bytes(),
        group=TEST_GROUP,
    )
    with pytest.raises(AuthenticationError):
        client.glimmer.ecall("install_signing_key", delivery)


def test_sealed_signing_key_restores_after_restart(fresh_deployment):
    """The host persists the sealed blob; a restarted Glimmer reloads it."""
    from repro.core.client import ClientDevice, LocalDataStore

    deployment = fresh_deployment
    client = ClientDevice(
        "restarter", deployment.image, deployment.attestation,
        seed=b"restart", data=LocalDataStore(),
    )
    sealed = client.provision_signing_key(deployment.service_provisioner)
    # Simulate an enclave restart on the same platform.
    restarted = client.platform.load_enclave(
        deployment.image,
        ocall_handlers={"collect_private_data": client._serve_private_data},
    )
    assert not restarted.ecall("has_signing_key")
    restarted.ecall("restore_signing_key", sealed)
    assert restarted.ecall("has_signing_key")


def test_restore_rejects_foreign_blob(fresh_deployment):
    from repro.core.client import ClientDevice, LocalDataStore
    from repro.errors import SealingError

    deployment = fresh_deployment
    client = ClientDevice(
        "restorer", deployment.image, deployment.attestation,
        seed=b"restorer", data=LocalDataStore(),
    )
    with pytest.raises(SealingError):
        client.glimmer.ecall("restore_signing_key", b"\x00" * 80)


def test_validation_cycles_metered(round_setup):
    deployment, user_ids = round_setup
    client = deployment.clients[user_ids[0]]
    before = client.glimmer.meter.buckets.get("validation", 0)
    client.contribute(
        1, [0.5] * len(deployment.features), pack_features(deployment.features.bigrams)
    )
    assert client.glimmer.meter.buckets.get("validation", 0) > before


def test_glimmer_keeps_no_raw_values_after_processing(round_setup):
    """Input Confidentiality: no raw contribution survives inside the enclave."""
    deployment, user_ids = round_setup
    client = deployment.clients[user_ids[0]]
    marker = 0.123456
    values = [marker] * len(deployment.features)
    client.contribute(1, values, pack_features(deployment.features.bigrams))
    # Break isolation deliberately to inspect (test-only).
    client.platform.threat_model.memory_disclosure = True
    state = client.glimmer.peek_private_state()
    client.platform.threat_model.memory_disclosure = False

    def contains_marker(obj, depth=0):
        if depth > 6:
            return False
        if isinstance(obj, float):
            return obj == pytest.approx(marker)
        if isinstance(obj, dict):
            return any(contains_marker(v, depth + 1) for v in obj.values())
        if isinstance(obj, (list, tuple, set)):
            return any(contains_marker(v, depth + 1) for v in obj)
        if hasattr(obj, "__dict__"):
            return contains_marker(vars(obj), depth + 1)
        return False

    assert not contains_marker(state)


def _keystroke_round(lie=None):
    """Round 1 under the keystrokes predicate, every device typing its own
    sentences; with ``lie`` the first device's host answers the
    private-data ocall with that context instead."""
    deployment = Deployment.build(
        num_users=4, predicate_spec="keystrokes", sentences_per_user=10
    )
    users = [user.user_id for user in deployment.corpus.users]
    for user in users:
        deployment.clients[user].data.keystroke_trace = trace_for_sentences(
            deployment.corpus.streams[user], HmacDrbg(user.encode())
        )
    if lie is not None:
        deployment.clients[users[0]].data.context_for = lambda fields: lie
    deployment.honest_round(1)
    return deployment, users


def _geo_round(lie=None):
    """Round 1 under the geo predicate, every device holding its own track
    and one honest photo claim; ``lie`` as in :func:`_keystroke_round`."""
    deployment = Deployment.build(num_users=4, predicate_spec="geo")
    users = [user.user_id for user in deployment.corpus.users]
    workload = GeoWorkload.generate(
        len(users), HmacDrbg(b"geo-probe"), photos_per_user=1, spoof_fraction=0.0
    )
    for user, context, photo in zip(users, workload.contexts.values(), workload.submissions):
        deployment.clients[user].data.geo_context = context
        deployment.clients[user].data.extra = {"submission": photo}
    if lie is not None:
        deployment.clients[users[0]].data.context_for = lambda fields: lie
    deployment.honest_round(1)
    return deployment, users


def _purchase_round(lie=None):
    """Round 1 under the purchase predicate, every device holding its own
    history and one honest review of a product in it; ``lie`` as in
    :func:`_keystroke_round`."""
    deployment = Deployment.build(num_users=4, predicate_spec="purchase")
    users = [user.user_id for user in deployment.corpus.users]
    workload = ReviewWorkload.generate(
        len(users), HmacDrbg(b"purchase-probe"), reviews_per_user=1, spurious_fraction=0.0
    )
    for user, context, review in zip(users, workload.contexts.values(), workload.reviews):
        deployment.clients[user].data.shopping_context = context
        deployment.clients[user].data.extra = {"review": review}
    if lie is not None:
        deployment.clients[users[0]].data.context_for = lambda fields: lie
    deployment.honest_round(1)
    return deployment, users


def _assert_only_the_lying_device_is_down(lie, run_round=_keystroke_round):
    honest, users = run_round()
    lied, __ = run_round(lie)
    report = lied.last_report
    assert report.outcomes[users[0]] == OUTCOME_CRASHED
    assert users[0] not in report.survivors and report.masks_repaired == 1
    others = {user: honest.last_report.outcomes[user] for user in users[1:]}
    assert {user: report.outcomes[user] for user in users[1:]} == others
    vectors = lied.local_vectors(report.participants)
    assert invariants.judge(report, lied.codec, vectors).exact


def test_a_host_context_that_fails_its_checks_downs_only_its_device():
    """The host's answer to the private-data ocall crosses into the
    Glimmer held to ``PrivateContext``'s declared checks: an ``extra``
    that is not a dict is refused there, so its device is ``crashed`` and
    its slot repaired, never a ``TypeError`` out of the round, and every
    other device fares exactly as beside an honest host."""
    _assert_only_the_lying_device_is_down(PrivateContext(extra=5))


def test_a_keystroke_trace_that_fails_its_checks_downs_only_its_device():
    """The checks reach inside the context: a trace whose timestamps are
    strings is refused at the crossing by ``KeyEvent``'s declared fields,
    not subtracted by the keystrokes predicate (a ``TypeError`` out of the
    whole round before they were declared)."""
    trace = KeystrokeTrace(events=[KeyEvent("a", "x")] * 20)
    _assert_only_the_lying_device_is_down(PrivateContext(keystroke_trace=trace))


def test_a_geo_track_that_fails_its_checks_downs_only_its_device():
    """A track whose fixes are strings is refused at the crossing by
    ``TrackPoint``'s declared fields, not subtracted from the photo's
    timestamp by the geo predicate (a ``TypeError`` out of the whole round
    before they were declared)."""
    lie = PrivateContext(
        geo_context=UserGeoContext("u", [TrackPoint("a", "b", "c")], b"x"),
        extra={"submission": PhotoSubmission("p", "u", 0.0, 0.0, 0.0, b"x", False)},
    )
    _assert_only_the_lying_device_is_down(lie, _geo_round)


def test_a_purchase_history_that_fails_its_checks_downs_only_its_device():
    """A history whose purchase time is a string is refused at the crossing
    by ``Purchase``'s declared fields, not compared with the review's
    posting time by the purchase predicate (a ``TypeError`` out of the
    whole round before they were declared)."""
    lie = PrivateContext(
        shopping_context=UserShoppingContext("u", [Purchase("product-001", "later")]),
        extra={"review": Review("r", "u", "product-001", 5, 2.0, False)},
    )
    _assert_only_the_lying_device_is_down(lie, _purchase_round)


def test_a_restored_glimmer_signs_the_words_an_unrestarted_one_would():
    """A mask is held narrowed beside its width, and sealed that way: a
    Glimmer restarted from its checkpoint mid-round blinds to exactly the
    bytes its unrestarted twin does, at the round's width."""
    payloads = []
    for restart in (False, True):
        deployment = Deployment.build(num_users=8, seed=b"restore-width", sentences_per_user=8)
        users = [user.user_id for user in deployment.corpus.users]
        deployment.open_round(1, users)
        client = deployment.clients[users[0]]
        if restart:
            client.crash()
            assert client.restart() == [1]
        values = list(deployment.local_vectors()[users[0]])
        signed = client.contribute(1, values, pack_features(deployment.features.bigrams))
        payloads.append(signed.ring_payload)
    assert len(payloads[0]) == ring_width(8) * len(values)
    assert payloads[0] == payloads[1]
