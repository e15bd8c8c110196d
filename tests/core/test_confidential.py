"""Tests for §4.1 validation confidentiality end to end."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import codec
from repro.core.auditor import RuntimeAuditor
from repro.core.confidential import (
    BotDetectionService,
    ExfiltratingGlimmerProgram,
    MalformedOutputGlimmerProgram,
    DetectorDelivery,
    build_confidential_image,
    raw_signal_leakage_bits,
)
from repro.core.provisioning import VettingRegistry
from repro.crypto.dh import TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.schnorr import SchnorrKeyPair
from repro.errors import (
    AttestationError,
    AuditError,
    AuthenticationError,
    ProtocolError,
    ProtocolViolation,
)
from repro.sgx.attestation import AttestationService, report_data_for
from repro.sgx.measurement import VendorKey
from repro.sgx.platform import SgxPlatform
from repro.workloads.botnet import BotnetWorkload, DetectorWeights, SessionSignals


@pytest.fixture(scope="module")
def setup():
    rng = HmacDrbg(b"confidential-tests")
    ias = AttestationService(b"conf-ias")
    vendor = VendorKey.generate(rng.fork("vendor"))
    identity = SchnorrKeyPair.generate(rng.fork("identity"), TEST_GROUP)
    image = build_confidential_image(vendor, identity.public_key)
    registry = VettingRegistry()
    registry.publish("bot-glimmer", image.mrenclave)
    workload = BotnetWorkload.generate(30, rng.fork("workload"))
    return rng, ias, vendor, identity, image, registry, workload


def provisioned(setup, seed=b"conf-plat", program_image=None, name="bot-glimmer"):
    rng, ias, vendor, identity, image, registry, workload = setup
    image = program_image or image
    service = BotDetectionService(
        identity, DetectorWeights(), ias, registry, name, rng.fork(seed.decode())
    )
    platform = SgxPlatform(seed, attestation_service=ias)
    store = {}
    enclave = platform.load_enclave(
        image, ocall_handlers={"collect_session_signals": lambda sid: store[sid]}
    )
    session = seed + b":prov"
    public = enclave.ecall("begin_handshake", session)
    quote = platform.quote_enclave(
        enclave, report_data_for(public.to_bytes(256, "big"))
    )
    enclave.ecall(
        "install_detector", service.provision_detector(session, public, quote)
    )
    return enclave, service, store, platform


def test_detector_codec_roundtrip():
    detector = DetectorWeights(weights=(1.0, -2.5, 3.25), bias=0.5, threshold=-1.0)
    delivery = codec.decode(
        codec.encode(DetectorDelivery(detector, 987654321)), DetectorDelivery
    )
    assert delivery.detector == detector
    assert delivery.reporting_secret == 987654321


def test_detector_codec_rejects_malformed():
    with pytest.raises(ProtocolViolation):
        codec.decode(b"", DetectorDelivery)
    blob = codec.encode(DetectorDelivery(DetectorWeights(), 1))
    with pytest.raises(ProtocolViolation):
        codec.decode(blob[:-1], DetectorDelivery)


def test_end_to_end_detection_accuracy(setup):
    __, __, __, __, __, __, workload = setup
    enclave, service, store, __ = provisioned(setup, b"conf-e2e")
    auditor = RuntimeAuditor()
    correct = 0
    for signals in workload.sessions:
        store[signals.session_id] = signals
        challenge = service.new_challenge(signals.session_id)
        message = enclave.ecall("evaluate_session", signals.session_id, challenge)
        auditor.audit(message, challenge)
        if service.verify_verdict(message) != signals.is_bot:
            correct += 1
    assert correct / len(workload.sessions) >= 0.95


def test_detector_never_visible_to_host(setup):
    """Validation confidentiality: the host cannot read the detector weights."""
    enclave, __, __, platform = provisioned(setup, b"conf-secrecy")
    from repro.errors import EnclaveError

    with pytest.raises(EnclaveError):
        enclave.peek_private_state()


def test_detector_visible_only_under_memory_disclosure(setup):
    enclave, __, __, platform = provisioned(setup, b"conf-breach")
    platform.threat_model.memory_disclosure = True
    state = enclave.peek_private_state()
    assert state["_detector"] is not None  # the breach model works as designed


def test_evaluate_before_provisioning_rejected(setup):
    rng, ias, vendor, identity, image, registry, workload = setup
    platform = SgxPlatform(b"conf-unprov", attestation_service=ias)
    enclave = platform.load_enclave(image)
    with pytest.raises(ProtocolError):
        enclave.ecall("evaluate_session", "s", b"c" * 32)


def test_provisioning_requires_vetted_measurement(setup):
    rng, ias, vendor, identity, image, registry, workload = setup
    rogue_image = build_confidential_image(
        vendor, identity.public_key, program_class=ExfiltratingGlimmerProgram,
        name="unvetted",
    )
    service = BotDetectionService(
        identity, DetectorWeights(), ias, registry, "bot-glimmer", rng.fork("rx")
    )
    platform = SgxPlatform(b"conf-rogue", attestation_service=ias)
    enclave = platform.load_enclave(rogue_image)
    session = b"rogue-session"
    public = enclave.ecall("begin_handshake", session)
    quote = platform.quote_enclave(
        enclave, report_data_for(public.to_bytes(256, "big"))
    )
    with pytest.raises(AttestationError):
        service.provision_detector(session, public, quote)


def test_verdict_replay_rejected(setup):
    __, __, __, __, __, __, workload = setup
    enclave, service, store, __ = provisioned(setup, b"conf-replay")
    signals = workload.sessions[0]
    store[signals.session_id] = signals
    challenge = service.new_challenge(signals.session_id)
    message = enclave.ecall("evaluate_session", signals.session_id, challenge)
    service.verify_verdict(message)  # consumes the challenge
    with pytest.raises(ProtocolError):
        service.verify_verdict(message)


def test_forged_verdict_signature_rejected(setup):
    __, __, __, __, __, __, workload = setup
    enclave, service, store, __ = provisioned(setup, b"conf-forge")
    signals = workload.sessions[0]
    store[signals.session_id] = signals
    challenge = service.new_challenge(signals.session_id)
    message = enclave.ecall("evaluate_session", signals.session_id, challenge)
    from repro.core.auditor import VerdictMessage, expected_response

    flipped = VerdictMessage(
        session_id=message.session_id,
        challenge=message.challenge,
        verdict_bit=1 - message.verdict_bit,
        challenge_response=expected_response(
            message.challenge, 1 - message.verdict_bit
        ),
        signature_bytes=message.signature_bytes,
    )
    with pytest.raises(AuthenticationError):
        service.verify_verdict(flipped)


def test_exfiltrator_passes_auditor_but_is_counted(setup):
    rng, ias, vendor, identity, image, registry, workload = setup
    exfil_image = build_confidential_image(
        vendor, identity.public_key, program_class=ExfiltratingGlimmerProgram,
        name="exfil-glimmer",
    )
    registry.publish("exfil-glimmer", exfil_image.mrenclave)
    enclave, service, store, __ = provisioned(
        setup, b"conf-exfil", program_image=exfil_image, name="exfil-glimmer"
    )
    auditor = RuntimeAuditor(max_bits_per_session=4)
    signals = workload.sessions[0]
    store[signals.session_id] = signals
    passed = 0
    for __ in range(10):
        challenge = service.new_challenge(signals.session_id)
        message = enclave.ecall("evaluate_session", signals.session_id, challenge)
        try:
            auditor.audit(message, challenge)
            passed += 1
        except AuditError:
            pass
    assert passed == 4
    assert auditor.capacity_bound_bits(signals.session_id) == 4


def test_malformed_stuffer_always_rejected(setup):
    rng, ias, vendor, identity, image, registry, workload = setup
    stuffer_image = build_confidential_image(
        vendor, identity.public_key, program_class=MalformedOutputGlimmerProgram,
        name="stuffer-glimmer",
    )
    registry.publish("stuffer-glimmer", stuffer_image.mrenclave)
    enclave, service, store, __ = provisioned(
        setup, b"conf-stuffer", program_image=stuffer_image, name="stuffer-glimmer"
    )
    auditor = RuntimeAuditor()
    signals = workload.sessions[0]
    store[signals.session_id] = signals
    for __ in range(3):
        challenge = service.new_challenge(signals.session_id)
        message = enclave.ecall("evaluate_session", signals.session_id, challenge)
        with pytest.raises(AuditError):
            auditor.audit(message, challenge)
    assert auditor.capacity_bound_bits(signals.session_id) == 0


def test_raw_leakage_positive_for_all_sessions(setup):
    __, __, __, __, __, __, workload = setup
    for signals in workload.sessions:
        assert raw_signal_leakage_bits(signals) > 100


_PLATFORMS = itertools.count()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_signals_answer_with_one_mistyped_field_refuses_only_that_session(setup, data):
    """The host's answer to ``collect_session_signals`` crosses held to
    ``SessionSignals``' declared fields: one mistyped field, or a detector
    feature set to NaN or an infinity, refuses that session with a
    ``ProtocolViolation`` at the crossing, and the same session answered
    honestly, and the next one, are judged as before.
    Before the fields were declared, a mistyped detector feature raised
    ``TypeError`` out of the ecall, and a mistyped history, profile or
    session id reached the detector."""
    workload = setup[-1]
    signals = workload.sessions[0]
    name = data.draw(st.sampled_from(sorted(codec.declared(SessionSignals))), label="field")
    current = getattr(signals, name)
    mistyped = [v for v in (5, 1.5, "x", b"x", (), True, None) if type(v) is not type(current)]
    if type(current) is float:  # a NaN feature scored every session human
        mistyped += [float("nan"), float("inf"), float("-inf")]
    if type(current) is tuple:
        mistyped.append((5,) + current[1:])
    value = data.draw(st.sampled_from(mistyped), label="value")
    enclave, service, store, __ = provisioned(setup, b"conf-mistyped-%d" % next(_PLATFORMS))
    store[signals.session_id] = replace(signals, **{name: value})
    challenge = service.new_challenge(signals.session_id)
    with pytest.raises(ProtocolViolation, match="collect_session_signals"):
        enclave.ecall("evaluate_session", signals.session_id, challenge)
    for session in (signals, workload.sessions[1]):
        store[session.session_id] = session
        challenge = service.new_challenge(session.session_id)
        message = enclave.ecall("evaluate_session", session.session_id, challenge)
        assert service.verify_verdict(message) == DetectorWeights().is_human(session)
