"""Tests for the Glimmer enclave program: provisioning, processing, properties."""

from dataclasses import replace
from types import NoneType
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import codec, invariants
from repro.core.glimmer import (
    GlimmerConfig,
    KeyDelivery,
    ProcessRequest,
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
    ProtocolViolation,
    ReproError,
    ValidationError,
)
from repro.core.predicates import _weights_from_sentences, trace_commitment
from repro.core.validation import PrivateContext, default_registry
from repro.experiments.common import Deployment
from repro.runtime.telemetry import (
    OUTCOME_ACCEPTED,
    OUTCOME_CRASHED,
    OUTCOME_VALIDATION_REJECTED,
)
from repro.workloads.camera import MOTION_BINS, CameraWorkload, Frame, VideoStream, motion_histogram
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
    """A provisioned Glimmer signs under the service's signing key."""
    client = next(iter(deployment.clients.values()))
    values = [0.5] * len(deployment.features)
    signed = client.contribute(
        1, values, pack_features(deployment.features.bigrams), blind=False
    )
    deployment.signing_keypair.public_key.verify(signed.signed_bytes(), signed.signature)


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
    width = deployment.engine.round_record(1).width
    assert signed.ring_payload != kernels.pack_words(encoded, width)
    # The mask provisioned for party 0 recovers the true values.
    mask = deployment.blinder_provisioner.reveal_dropout_mask(1, 0)
    recovered = deployment.codec.decode(unblinded(signed.ring_payload, mask.share.row(), width))
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
    request = ProcessRequest(
        round_id=1,
        values=kernels.be_doubles_to_bytes([0.5] * len(deployment.features)),
        features=pack_features(deployment.features.bigrams),
        blind=False,
    )
    with pytest.raises(ProtocolError, match="signing key not provisioned"):
        restarted.ecall("process_contribution", request)
    restarted.ecall("restore_signing_key", sealed)
    signed = restarted.ecall("process_contribution", request)
    deployment.signing_keypair.public_key.verify(signed.signed_bytes(), signed.signature)


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


def _round(deployment, lie=None, vectors=None):
    """Round 1 over every corpus user, each contributing ``vectors`` (its
    trained vector by default).  With ``lie``, the first device's host
    answers the private-data ocall with that context instead, or with
    ``lie(answer)`` for a function of the honest answer; every refusal
    the Glimmer raises to that device is kept in ``deployment.refusals``."""
    users = [user.user_id for user in deployment.corpus.users]
    vectors = vectors or deployment.local_vectors(users)
    deployment.refusals = []
    if lie is not None:
        liar = deployment.clients[users[0]]
        honest = liar.data.context_for
        liar.data.context_for = lambda fields: lie(honest(fields)) if callable(lie) else lie
        contribute = liar.contribute

        def recorded(*args, **kwargs):
            try:
                return contribute(*args, **kwargs)
            except ReproError as exc:
                deployment.refusals.append(exc)
                raise

        liar.contribute = recorded
    deployment.last_report = deployment.engine.run_round(
        1, users, vectors, deployment.features.bigrams
    )
    return deployment, vectors


def _keystroke_round(lie=None):
    """Round 1 under the keystrokes predicate, every device typing its own
    sentences; ``lie`` as in :func:`_round`."""
    deployment = Deployment.build(
        num_users=4, predicate_spec="keystrokes", sentences_per_user=10
    )
    for user in deployment.clients:
        deployment.clients[user].data.private.keystroke_trace = trace_for_sentences(
            deployment.corpus.streams[user], HmacDrbg(user.encode())
        )
    return _round(deployment, lie)


def _exec_trace_round(lie=None, forged=()):
    """Round 1 under the exec-trace predicate, every device holding the
    commitment to its own training run, or a forged one for the devices
    in ``forged``; ``lie`` as in :func:`_round`."""
    deployment = Deployment.build(
        num_users=4, predicate_spec="exec-trace", sentences_per_user=10
    )
    for user, vector in deployment.local_vectors().items():
        commitment = trace_commitment(deployment.corpus.streams[user], vector)
        deployment.clients[user].data.private.trace_commitment = (
            bytes(32) if user in forged else commitment
        )
    return _round(deployment, lie)


def _geo_round(lie=None):
    """Round 1 under the geo predicate, every device holding its own track
    and one honest photo claim; ``lie`` as in :func:`_round`."""
    deployment = Deployment.build(num_users=4, predicate_spec="geo")
    workload = GeoWorkload.generate(
        4, HmacDrbg(b"geo-probe"), photos_per_user=1, spoof_fraction=0.0
    )
    for client, context, photo in zip(
        deployment.clients.values(), workload.contexts.values(), workload.submissions
    ):
        client.data.private.geo_context = context
        client.data.private.submission = photo
    return _round(deployment, lie)


def _purchase_round(lie=None):
    """Round 1 under the purchase predicate, every device holding its own
    history and one honest review of a product in it; ``lie`` as in
    :func:`_round`."""
    deployment = Deployment.build(num_users=4, predicate_spec="purchase")
    workload = ReviewWorkload.generate(
        4, HmacDrbg(b"purchase-probe"), reviews_per_user=1, spurious_fraction=0.0
    )
    for client, context, review in zip(
        deployment.clients.values(), workload.contexts.values(), workload.reviews
    ):
        client.data.private.shopping_context = context
        client.data.private.review = review
    return _round(deployment, lie)


def _silhouette_round(lie=None):
    """Round 1 under the silhouette predicate over eight features, every
    device holding its own video and contributing the motion histogram
    the Glimmer recomputes from it (E17's recipe); ``lie`` as in
    :func:`_round`."""
    deployment = Deployment.build(
        num_users=4, predicate_spec="silhouette", max_features=MOTION_BINS
    )
    workload = CameraWorkload.generate(
        4, HmacDrbg(b"silhouette-probe"), frames_per_stream=24, forged_fraction=0.0
    )
    vectors = {}
    for user, stream in zip(deployment.clients, workload.streams.values()):
        deployment.clients[user].data.private.video_stream = stream
        vectors[user] = np.array(motion_histogram(stream.frames))
    return _round(deployment, lie, vectors)


def _assert_only_the_lying_device_is_down(lie, run_round=_keystroke_round):
    honest, vectors = run_round()
    lied, __ = run_round(lie)
    users = list(vectors)
    report = lied.last_report
    assert report.outcomes[users[0]] == OUTCOME_CRASHED
    assert users[0] not in report.survivors and report.masks_repaired == 1
    others = {user: honest.last_report.outcomes[user] for user in users[1:]}
    assert {user: report.outcomes[user] for user in users[1:]} == others
    survivors = {user: vectors[user] for user in report.participants}
    assert invariants.judge(report, lied.codec, survivors).exact
    assert lied.refusals and all(type(exc) is ProtocolViolation for exc in lied.refusals)


def test_a_host_context_that_fails_its_checks_downs_only_its_device():
    """The host's answer to the private-data ocall crosses into the
    Glimmer held to ``PrivateContext``'s declared checks: a trace that is
    not a ``KeystrokeTrace`` is refused there, so its device is
    ``crashed`` and its slot repaired, never an ``AttributeError`` out of
    the round, and every other device fares exactly as beside an honest
    host."""
    _assert_only_the_lying_device_is_down(PrivateContext(keystroke_trace=5))


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
        submission=PhotoSubmission("p", "u", 0.0, 0.0, 0.0, b"x", False),
    )
    _assert_only_the_lying_device_is_down(lie, _geo_round)


def test_a_purchase_history_that_fails_its_checks_downs_only_its_device():
    """A history whose purchase time is a string is refused at the crossing
    by ``Purchase``'s declared fields, not compared with the review's
    posting time by the purchase predicate (a ``TypeError`` out of the
    whole round before they were declared)."""
    lie = PrivateContext(
        shopping_context=UserShoppingContext("u", [Purchase("product-001", "later")]),
        review=Review("r", "u", "product-001", 5, 2.0, False),
    )
    _assert_only_the_lying_device_is_down(lie, _purchase_round)


@pytest.mark.parametrize(
    "stream",
    [
        VideoStream("u", [Frame("a", "b", "c")] * 4, "walk"),
        VideoStream("u", "notalist", "walk"),
        VideoStream("u", [Frame(0, 1e300, 0.0), Frame(1, -1e300, 0.0)], "walk"),
    ],
    ids=["string-frames", "frames-not-a-list", "huge-coordinates"],
)
def test_a_video_stream_that_fails_its_checks_downs_only_its_device(stream):
    """A video whose frames are strings, whose frame list is a string, or
    whose coordinates are too large for a step between them to be squared
    is refused at the crossing by ``Frame``'s and ``VideoStream``'s
    declared fields, not differenced by the silhouette predicate (a
    ``TypeError``, ``AttributeError`` or ``OverflowError`` out of the whole
    round before they were declared)."""
    _assert_only_the_lying_device_is_down(PrivateContext(video_stream=stream), _silhouette_round)


#: A machine's typing: one key every 100 ms, flat as no hand types.
MACHINE_TYPED = "the cat sat on the mat\n" * 4


def _machine_typed_round(last_ms: float):
    """Round 1 under the keystrokes predicate in which the first device's
    host answers with :data:`MACHINE_TYPED` at 100 ms steps, its last key
    at ``last_ms``, and that device contributes the very weights the
    typed text recomputes to, so only the timing check can refuse it."""
    deployment = Deployment.build(
        num_users=4, predicate_spec="keystrokes", sentences_per_user=10
    )
    for user in deployment.clients:
        deployment.clients[user].data.private.keystroke_trace = trace_for_sentences(
            deployment.corpus.streams[user], HmacDrbg(user.encode())
        )
    events = [KeyEvent(char, 100.0 * i) for i, char in enumerate(MACHINE_TYPED)]
    events[-1] = replace(events[-1], timestamp_ms=last_ms)
    trace = KeystrokeTrace(events)
    vectors = deployment.local_vectors()
    liar = next(iter(vectors))
    vectors[liar] = np.array(
        _weights_from_sentences(trace.typed_sentences(), deployment.features.bigrams)
    )
    return _round(deployment, PrivateContext(keystroke_trace=trace), vectors) + (liar,)


def test_a_nan_timestamp_does_not_pass_a_machine_typed_trace():
    """A flat trace is refused as machine-like.  Its last timestamp NaN
    made its timing variance NaN, which no threshold comparison refuses,
    so the same trace passed and its device's weights were signed and
    summed.  A host-fed timestamp is a ``codec.Real``: the NaN is refused
    at the crossing, only the liar's device goes down, and the round is
    exact over the rest."""
    flat, __, liar = _machine_typed_round(100.0 * (len(MACHINE_TYPED) - 1))
    assert flat.last_report.outcomes[liar] == OUTCOME_VALIDATION_REJECTED
    lied, vectors, liar = _machine_typed_round(float("nan"))
    report = lied.last_report
    assert report.outcomes[liar] == OUTCOME_CRASHED
    assert liar not in report.survivors and report.masks_repaired == 1
    assert all(report.outcomes[user] == OUTCOME_ACCEPTED for user in vectors if user != liar)
    survivors = {user: vectors[user] for user in report.participants}
    assert invariants.judge(report, lied.codec, survivors).exact
    assert lied.refusals and all(type(exc) is ProtocolViolation for exc in lied.refusals)


def test_exec_trace_rounds_read_each_devices_own_commitment():
    """The trace commitment is the device's private data, served by the
    same ocall as its sentences: a round whose devices hold their own
    finalizes exactly, and a device holding a forged one is
    ``validation-rejected`` beside it (every device was, while the
    commitment could only ride claims the round never sent)."""
    honest, vectors = _exec_trace_round()
    report = honest.last_report
    assert set(report.outcomes.values()) == {OUTCOME_ACCEPTED}
    assert invariants.judge(report, honest.codec, vectors).exact
    users = list(vectors)
    forged, __ = _exec_trace_round(forged={users[0]})
    report = forged.last_report
    assert report.outcomes[users[0]] == OUTCOME_VALIDATION_REJECTED
    assert {report.outcomes[user] for user in users[1:]} == {OUTCOME_ACCEPTED}
    survivors = {user: vectors[user] for user in report.participants}
    assert invariants.judge(report, forged.codec, survivors).exact


# A host answer, as the device would give it, with one declared field
# mistyped: any field of the record or of a record inside it, however deep
# (the first two items of every list), set to a value of another type.
MISTYPED_VALUES = (5, 1.5, "x", b"x", (), [], True, None)
#: What a float field may hold that no host-fed float may: every
#: comparison with a NaN is false, so it would slip past any threshold.
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def _fields_of(value, path=()):
    """Each ``(path, value)`` below a host answer: the declared fields of
    every record in it, and the first two items of every list."""
    if type(value) in codec.registered().values():
        for name in codec.declared(type(value)):
            yield (path + (name,), getattr(value, name))
            yield from _fields_of(getattr(value, name), path + (name,))
    elif type(value) in (list, tuple):
        for index, item in enumerate(value[:2]):
            yield (path + (index,), item)
            yield from _fields_of(item, path + (index,))


def _swapped(value, path, new):
    """``value`` with what ``path`` names replaced by ``new``."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if type(head) is int:
        items = list(value)
        items[head] = _swapped(items[head], rest, new)
        return type(value)(items)
    return replace(value, **{head: _swapped(getattr(value, head), rest, new)})


HOST_FED_ROUNDS = {
    "keystrokes": _keystroke_round,
    "exec-trace": _exec_trace_round,
    "geo": _geo_round,
    "purchase": _purchase_round,
    "silhouette": _silhouette_round,
}


@pytest.mark.parametrize("spec", sorted(HOST_FED_ROUNDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_host_answer_with_one_mistyped_field_downs_only_its_device(spec, data):
    """Whatever declared field of its answer a host mistypes, or sets to
    NaN or an infinity where it holds a float, under every predicate a
    host feeds, ``run_round`` returns, the refusal is a
    ``ProtocolViolation`` at the crossing, and only the lying device is
    down."""
    honest, __ = HOST_FED_ROUNDS[spec]()
    needed = default_registry().build(spec).required_context()
    answer = next(iter(honest.clients.values())).data.context_for(needed)
    path, current = data.draw(st.sampled_from(list(_fields_of(answer))), label="field")
    if len(path) == 1:  # a PrivateContext field: absent, or what its hint names
        kind = get_args(get_type_hints(PrivateContext)[path[0]])[0]
        mistyped = [v for v in MISTYPED_VALUES if type(v) not in (get_origin(kind) or kind, NoneType)]
    else:
        mistyped = [v for v in MISTYPED_VALUES if type(v) is not type(current)]
        if type(current) is float:
            mistyped += NON_FINITE
    value = data.draw(st.sampled_from(mistyped), label="value")
    _assert_only_the_lying_device_is_down(
        lambda honest_answer: _swapped(honest_answer, path, value), HOST_FED_ROUNDS[spec]
    )


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
    assert ring_width(8, 1.0) == 21
    assert len(payloads[0]) == -(-21 * len(values) // 8)
    assert payloads[0] == payloads[1]
